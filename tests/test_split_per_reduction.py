"""One modular split per distinct reduction mod p.  Components of the
base field whose reduced tables and units agree share one split: with
rational structure constants, as after ``analyze --conductor``, that is one
split per prime.  A basis vector rescaled by i gives kC4 over Q(i)
reductions that differ, and then each component is split.  Either way the
split takes the reductions already made to compare them, and the
Wedderburn data equal those of splitting at every root."""

import pytest

import frobdiv.modular as modular
import frobdiv.wedderburn as wedderburn
from frobdiv import (Matrix, central_primitive_idempotents, group_algebra,
                     named_group)
from frobdiv.serialize import algebra_from_json, algebra_to_json

from dense_oracle import change_basis_algebra


def ks3_at_24():
    """kS3 embedded into Q(zeta_24), as ``analyze --conductor 24`` does."""
    A = group_algebra(named_group("S3")).algebra
    return algebra_from_json(algebra_to_json(A), 24)[0]


def kc4_rescaled():
    """kC4 over Q(i) on the basis 1, i g, g^2, g^3, where
    (i g) g^2 = i g^3: the constant i reduces to a different residue at
    each root of x^2 + 1 mod p.  (The basis i^k g^k would change no
    constant, since k -> i^k is a character of C4.)"""
    A = group_algebra(named_group("C4"), conductor=4).algebra
    field = A.field
    scale = [field.one, field.zeta(1), field.one, field.one]
    P = Matrix(field, [[scale[k] if j == k else field.zero
                        for j in range(A.dim)] for k in range(A.dim)])
    return change_basis_algebra(A, P)


def split_every_root(algebra, p):
    roots, _ = modular.component_roots(algebra.field.conductor, p, 1)
    comps = [modular.ComponentAlgebra(algebra, w, p) for w in roots]
    return comps, [modular.modular_split(comp) for comp in comps]


def fields(data):
    return (data.idempotents, data.degrees, data.block_dims,
            data.center_dims, data.characters, data.split_certified,
            data.prime_used, data.precision_used)


def counted_splits(monkeypatch):
    """Record the modulus of every split and of every reduction built."""
    calls, reductions = [], []
    original = wedderburn.modular_split
    original_init = modular.ComponentAlgebra.__init__

    def counted(comp):
        calls.append(comp.M)
        return original(comp)

    def counted_init(self, algebra, root, M):
        reductions.append(M)
        original_init(self, algebra, root, M)

    monkeypatch.setattr(wedderburn, "modular_split", counted)
    monkeypatch.setattr(modular.ComponentAlgebra, "__init__", counted_init)
    return calls, reductions


@pytest.mark.parametrize("make, splits_per_prime",
                         [(ks3_at_24, 1), (kc4_rescaled, 2)],
                         ids=["kS3@24", "kC4-rescaled"])
def test_one_split_per_distinct_reduction(make, splits_per_prime,
                                          monkeypatch):
    A = make()
    n = A.field.conductor
    primes = modular.good_primes(A)
    for p in (next(primes), next(primes)):
        roots, _ = modular.component_roots(n, p, 1)
        comps = [modular.ComponentAlgebra(A, w, p) for w in roots]
        assert len(comps) == {24: 8, 4: 2}[n]
        distinct = {repr((c.table, c.unit)) for c in comps}
        assert len(distinct) == splits_per_prime

        calls, reductions = counted_splits(monkeypatch)
        data = central_primitive_idempotents(A, prime=p)
        assert calls == [p] * splits_per_prime
        # the split reads the reductions made to compare them: one per
        # component mod p, and none again
        assert data.precision_used == 1
        assert reductions.count(p) == len(comps)
        monkeypatch.undo()

        monkeypatch.setattr(wedderburn, "_split_components",
                            split_every_root)
        reference = central_primitive_idempotents(A, prime=p)
        monkeypatch.undo()
        assert fields(data) == fields(reference)

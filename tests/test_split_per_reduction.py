"""One modular split per prime, of the first CRT component only.  With
rational structure constants, as after ``analyze --conductor``, every
component reduces to the same F_p-algebra; a basis vector rescaled by i
gives kC4 over Q(i) reductions that differ.  Either way only the first
component is reduced mod p and split, and the idempotents and characters
equal those of the product gluing (``dense_oracle.product_wedderburn``),
which splits every component."""

import pytest

import frobdiv.modular as modular
import frobdiv.wedderburn as wedderburn
from frobdiv import (Matrix, central_primitive_idempotents, group_algebra,
                     named_group)
from frobdiv.serialize import algebra_from_json, algebra_to_json

from dense_oracle import (change_basis_algebra, component_roots,
                          product_wedderburn)


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


def blocks(idempotents, characters):
    return {tuple(sorted(e.items())): tuple(sorted(chi.items()))
            for e, chi in zip(idempotents, characters)}


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


@pytest.mark.parametrize("make", [ks3_at_24, kc4_rescaled],
                         ids=["kS3@24", "kC4-rescaled"])
def test_one_split_per_prime(make, monkeypatch):
    A = make()
    n = A.field.conductor
    primes = modular.good_primes(A)
    for p in (next(primes), next(primes)):
        roots, _ = component_roots(n, p, 1)
        distinct = {repr((c.table, c.unit)) for c in
                    (modular.ComponentAlgebra(A, w, p) for w in roots)}
        assert (len(roots), len(distinct)) == {24: (8, 1), 4: (2, 2)}[n]

        calls, reductions = counted_splits(monkeypatch)
        data = central_primitive_idempotents(A, prime=p)
        assert calls == [p]
        # the split's reduction is the only one mod p
        assert reductions.count(p) == 1
        monkeypatch.undo()

        idems, chars, _ = product_wedderburn(A, p)
        assert blocks(data.idempotents, data.characters) == \
            blocks(idems, chars)

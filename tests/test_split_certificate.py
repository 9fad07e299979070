"""The split certificate of ``wedderburn.certify_split_block`` against the
dense eigenspaces (``dense_oracle.dense_eigenspaces``).

For every candidate b tried on a block B = A e of degree d > 1, the
roots in the base field of the minimal polynomial mu of b are those of
the minimal polynomial of the d^2 x d^2 matrix of R_b on B, and at each
root t the certificate's condition (P/mu)(t) != 0, with P the reduced
characteristic polynomial of b, holds exactly when dim ker(R_b - t) = d.
The blocks are those of the benchmark's ladder, of relabelled D(S3), of
D(D4), of relabelled kA4, whose degree-3 block is certified only by
an image x_j e for some bases, and of kQ8 over Q, whose quaternion block
fails every candidate.  Single candidates in M2(Q) and M3(Q)
show each way the condition can fail."""

import math
import random

import pytest

import frobdiv.wedderburn as wedderburn
from frobdiv import (QQ, PrecisionExceeded, StructureConstantAlgebra,
                     central_primitive_idempotents, drinfeld_double,
                     group_algebra, named_group)
from frobdiv.linalg import EchelonSubspace

from conftest import matrix_blocks
from dense_oracle import dense_eigenspaces, permute_algebra
from ladder import LADDER, ladder_algebra


def relabelled(A, seed):
    perm = list(range(A.dim))
    random.Random(seed).shuffle(perm)
    return permute_algebra(A, perm)


def double(gname):
    return drinfeld_double(named_group(gname), verify=False)[0].algebra


def ka4():
    G = named_group("A4")
    return group_algebra(G, conductor=G.exponent).algebra


CASES = {f"{k}-{g}-{c}": (lambda g=g, k=k, c=c: ladder_algebra(g, k, c))
         for g, k, c in LADDER}
CASES.update({f"D(S3)-relabelled-{s}": (lambda s=s: relabelled(
    double("S3"), s)) for s in (2, 4)})
CASES["D(D4)"] = lambda: double("D4")
CASES.update({f"kA4-relabelled-{s}": (lambda s=s: relabelled(ka4(), s))
              for s in (4, 5, 14, 17)})
# the quaternion block is not split over Q: every candidate fails
CASES["kQ8-over-Q"] = lambda: group_algebra(named_group("Q8")).algebra


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_dense_oracle(name, monkeypatch):
    A = CASES[name]()
    tried = []
    certify, candidates = (wedderburn.certify_split_block,
                           wedderburn._split_candidates)

    def recording_certify(algebra, e, d):
        tried.append((e, []))
        return certify(algebra, e, d)

    def recording_candidates(*args):
        for b in candidates(*args):
            tried[-1][1].append(b)
            yield b

    monkeypatch.setattr(wedderburn, "certify_split_block", recording_certify)
    monkeypatch.setattr(wedderburn, "_split_candidates", recording_candidates)
    data = central_primitive_idempotents(A)
    assert len(tried) == sum(1 for d in data.degrees if d > 1)
    pairs = 0
    for e, xs in tried:
        block = EchelonSubspace(A.field, A.dim, (
            A.multiply({j: A.field.one}, e) for j in range(A.dim)))
        d = math.isqrt(block.dim)
        assert xs
        for x in xs:
            _, dims = dense_eigenspaces(A, block, A.multiply(x, e))
            assert list(wedderburn._split_roots(A, e, d, x)) == [
                (t, dim == d) for t, dim in dims]
            pairs += len(dims)
    assert pairs or not tried


def matrix(n, entries):
    """The element sum c e_ij of M_n(Q) on its matrix units, from
    {(i, j): c}."""
    return {i * n + j: QQ.from_rat(c) for (i, j), c in entries.items()}


@pytest.mark.parametrize("n, entries, roots", [
    # unipotent: mu = P = (x - 1)^2, P/mu = 1
    (2, {(0, 0): 1, (0, 1): 1, (1, 1): 1}, [(1, True)]),
    # the identity: mu = x - 1, P/mu = x - 1 vanishes at 1
    (2, {(0, 0): 1, (1, 1): 1}, [(1, False)]),
    # diag(J2(1), 1): mu = (x - 1)^2, P/mu = x - 1
    (3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1}, [(1, False)]),
    # a rotation: mu = x^2 + 1 has no root in Q
    (2, {(0, 1): -1, (1, 0): 1}, []),
])
def test_single_candidate(n, entries, roots, monkeypatch):
    A = matrix_blocks([n])
    e, x = A.unit, matrix(n, entries)
    monkeypatch.setattr(wedderburn, "_split_candidates",
                        lambda algebra, e: iter([x]))
    assert list(wedderburn._split_roots(A, e, n, x)) == [
        (QQ.from_rat(t), ok) for t, ok in roots]
    assert wedderburn.certify_split_block(A, e, n) == any(
        ok for _, ok in roots)


def test_block_not_closed_under_multiplication():
    # x_j x_0 = x_j for j < 4 and x_1 x_1 = x_4: the images x_j x_0 span
    # <x_0, ..., x_3>, of dimension 2^2, and x_1 x_1 leaves it, which only
    # a table that is not associative allows.  The first candidate,
    # b = x_0, has mu = x - 1 and, from chi_reg(x_0) = 1, the
    # characteristic polynomial x^2 - x/2 - 1/8, which mu does not divide
    one = QQ.one
    table = [[{} for _ in range(5)] for _ in range(5)]
    for j in range(4):
        table[j][0] = {j: one}
    table[1][1] = {4: one}
    A = StructureConstantAlgebra(QQ, 5, table, [one] + [QQ.zero] * 4)
    with pytest.raises(PrecisionExceeded, match="does not divide"):
        wedderburn.certify_split_block(A, {0: one}, 2)

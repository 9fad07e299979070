"""The split certificate of ``wedderburn.certify_split_block`` against the
dense path it replaced (``dense_oracle.dense_eigenspaces``).

For every candidate b tried on a block B = A e of degree d > 1, the
minimal polynomial of b in B (one Krylov relation in the coordinates of
A) equals that of the d^2 x d^2 matrix of R_b on B, and so does the
dimension of every eigenspace ker(R_b - t).  The blocks are those of the
benchmark's ladder, of relabelled D(S3), of D(D4) and of relabelled kA4,
whose degree-3 block is certified only by an image x_j e for some
bases."""

import random

import pytest

import frobdiv.wedderburn as wedderburn
from frobdiv import (QQ, PrecisionExceeded, StructureConstantAlgebra,
                     central_primitive_idempotents, drinfeld_double,
                     group_algebra, named_group)
from frobdiv.linalg import EchelonSubspace, sparse

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_dense_oracle(name, monkeypatch):
    A = CASES[name]()
    tried = []
    certify, candidates = (wedderburn.certify_split_block,
                           wedderburn._split_candidates)

    def recording_certify(algebra, e, d, seed=0):
        tried.append((e, []))
        return certify(algebra, e, d, seed=seed)

    def recording_candidates(*args):
        for b in candidates(*args):
            tried[-1][1].append(b)
            yield b

    monkeypatch.setattr(wedderburn, "certify_split_block", recording_certify)
    monkeypatch.setattr(wedderburn, "_split_candidates", recording_candidates)
    data = central_primitive_idempotents(A)
    assert len(tried) == sum(1 for d in data.degrees if d > 1)
    for e, bs in tried:
        block = EchelonSubspace(A.field, A.dim, (
            sparse(A.multiply(A.basis_vec(j), e)) for j in range(A.dim)))
        assert bs
        for b in bs:
            minpoly, dims = dense_eigenspaces(A, block, b)
            assert wedderburn._block_minimal_polynomial(A, e, b) == minpoly
            assert list(wedderburn._eigenspaces(A, e, block, block.basis,
                                                b)) == dims


def test_block_not_closed_under_multiplication():
    # x_j x_0 = x_j for j < 4 and x_1 x_1 = x_4: the images x_j x_0 span
    # <x_0, ..., x_3>, of dimension 2^2, and x_1 x_1 leaves it, which only
    # a table that is not associative allows.  b = x_0 has the eigenvalue
    # 1 on all four dimensions; b = x_1 has the root 0, and its products
    # leave the block
    one = QQ.one
    table = [[{} for _ in range(5)] for _ in range(5)]
    for j in range(4):
        table[j][0] = {j: one}
    table[1][1] = {4: one}
    A = StructureConstantAlgebra(QQ, 5, table, [one] + [QQ.zero] * 4)
    with pytest.raises(PrecisionExceeded, match="not closed"):
        wedderburn.certify_split_block(A, A.basis_vec(0), 2)

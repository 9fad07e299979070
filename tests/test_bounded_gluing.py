"""Bounded gluing against the trial reconstruction it replaced
(``dense_oracle.trial_wedderburn`` and ``dense_oracle.trial_field_roots``).

Idempotents and characters must be the same blocks at the same prime, on
the small ladder, on relabelled kA4 and D(S3), on kC4 over Q(i) on the
basis 1, i g, g^2, g^3 (constants that are not rational), on kS3 on the
basis x_g / 2 (constants 1/2, so the trace denominator D is 2), and on
M3+M2+Q on a dense unimodular basis, whose bound needs a power of p.
Field roots must be the same on rational, Gaussian, conductor-24 and
repeated roots.
"""

import random

import pytest

from frobdiv import (QQ, CyclotomicField, Matrix, Rat,
                     central_primitive_idempotents, drinfeld_double,
                     field_roots, group_algebra, named_group)
from frobdiv.modular import embedding_factor
from frobdiv.wedderburn import _trace_bound

from conftest import group_algebra_plain, matrix_blocks
from dense_oracle import (change_basis_algebra, permute_algebra,
                          trial_field_roots, trial_wedderburn,
                          unimodular_matrix)
from test_exact_checks import LADDER, ladder_algebra
from test_split_per_reduction import kc4_rescaled
from test_wedderburn import _from_roots


def relabelled(A, seed):
    perm = list(range(A.dim))
    random.Random(seed).shuffle(perm)
    return permute_algebra(A, perm)


def ka4(seed):
    G = named_group("A4")
    return relabelled(group_algebra(G, conductor=G.exponent).algebra, seed)


def double_s3(seed):
    H, _ = drinfeld_double(named_group("S3"), verify=False)
    return relabelled(H.algebra, seed)


def ks3_halves():
    """kS3 on the basis x_g / 2: (x_g/2)(x_h/2) = (1/2)(x_gh/2)."""
    A = group_algebra_plain("S3")
    half = QQ.from_rat(Rat(1, 2))
    return change_basis_algebra(A, Matrix(QQ, [
        [half if i == j else QQ.zero for j in range(A.dim)]
        for i in range(A.dim)]))


def dense_blocks():
    """M3+M2+Q over Q on a dense unimodular basis."""
    A = matrix_blocks((3, 2, 1))
    return change_basis_algebra(A, unimodular_matrix(QQ, A.dim, 3))


CASES = {f"{k}-{g}-{c}": (lambda g=g, k=k, c=c: ladder_algebra(g, k, c))
         for g, k, c in LADDER}
CASES.update({f"kA4-relabelled-{s}": (lambda s=s: ka4(s))
              for s in (4, 5, 14, 17)})
CASES["D(S3)-relabelled-2"] = lambda: double_s3(2)
CASES["kC4-rescaled"] = kc4_rescaled
CASES["kS3-halves"] = ks3_halves
CASES["M3+M2+Q-dense"] = dense_blocks


def blocks(idempotents, characters):
    return {tuple(sorted(e.items())): tuple(sorted(chi.items()))
            for e, chi in zip(idempotents, characters)}


@pytest.mark.parametrize("name", list(CASES))
def test_idempotents_and_characters_match_trial(name):
    A = CASES[name]()
    data = central_primitive_idempotents(A)
    idems, chars, _ = trial_wedderburn(A, data.prime_used)
    got = blocks(data.idempotents, data.characters)
    assert len(got) == data.num_blocks
    assert got == blocks(idems, chars)


def test_trace_denominator_and_precision():
    # kS3 on x_g / 2 has constants 1/2: D = 2, and D c = 1 in every cell
    D, bound = _trace_bound(ks3_halves(), 4)
    assert (D, bound) == (2, 4)
    # the dense basis needs a power of p above p
    data = central_primitive_idempotents(dense_blocks())
    assert data.prime_used == 29 and data.precision_used > 1
    assert data.degrees == [1, 2, 3]


def test_embedding_factor_small_conductors():
    assert [embedding_factor(n) for n in (1, 3, 4, 6, 8, 12, 24)] == \
        [1, 2, 1, 2, 1, 2, 2]


def rq(x, y=1):
    return QQ.from_rat(Rat(x, y))


def root_cases():
    K3, K4, K24 = CyclotomicField(3), CyclotomicField(4), CyclotomicField(24)
    i, z = K4.zeta(), K24.zeta()
    conductor_24 = [K24.zeta(7) * K24.from_rat(Rat(2, 3)) - z,
                    K24.from_rat(Rat(-3))]
    return {
        "rational": (QQ, [rq(6), rq(-5), rq(1)]),
        "no-rational-root": (QQ, [rq(1), rq(0), rq(1)]),
        "gaussian": (K4, [K4.one, K4.zero, K4.one]),
        "thirds-and-fifths@3": (K3, _from_roots(
            K3, [K3.from_rat(Rat(1, 3)), K3.from_rat(Rat(-2, 5))])),
        "conductor-24": (K24, _from_roots(K24, conductor_24)),
        "conductor-24-repeated": (K24, _from_roots(
            K24, conductor_24 * 2 + conductor_24[:1])),
        "repeated-zero": (QQ, _from_roots(QQ, [rq(0), rq(0)])),
        "repeated-rational": (QQ, _from_roots(QQ, [rq(1), rq(1), rq(2)])),
        "repeated-gaussian": (K4, _from_roots(K4, [i, i])),
    }


@pytest.mark.parametrize("name", list(root_cases()))
def test_field_roots_match_trial(name):
    field, coeffs = root_cases()[name]
    roots = field_roots(field, coeffs)
    assert roots == trial_field_roots(field, coeffs)
    if name != "no-rational-root":
        assert roots


def test_thirds_and_fifths_roots():
    K = CyclotomicField(3)
    want = [K.from_rat(Rat(-2, 5)), K.from_rat(Rat(1, 3))]
    assert field_roots(K, _from_roots(K, want)) == want

"""The sparse axiom checks against the dense oracle in ``dense_oracle``:
equal verdicts and equal failure lists, on relabelled bases and on inputs
with one entry broken."""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from frobdiv import (Matrix, StructureConstantAlgebra, drinfeld_double,
                     dual_hopf, group_algebra, named_group, verify_hopf)
from frobdiv.hopf import HopfAlgebraData

from conftest import matrix_algebra_2x2
from dense_oracle import (dense_verify, dense_verify_hopf, permute_algebra,
                          permute_hopf, sparse_columns)

_HOPF = {}


def hopf(name):
    """kS3, kQ8, kA4, the dual k^S3 and the double D(C4), built once."""
    if name not in _HOPF:
        if name == "k^S3":
            H = dual_hopf(group_algebra(named_group("S3")))
        elif name == "D(C4)":
            H, _ = drinfeld_double(named_group("C4"), verify=False)
        else:
            H = group_algebra(named_group(name[1:]))
        _HOPF[name] = H
    return _HOPF[name]


def relabelled(H, seed):
    perm = list(range(H.dim))
    random.Random(seed).shuffle(perm)
    return permute_hopf(H, perm)


def same_report(sparse, dense):
    assert sparse.passed == dense.passed
    assert sparse.failures == dense.failures


def _rebuild(H, table=None, unit=None, delta=None, counit=None,
             antipode=None):
    A = H.algebra
    if table is not None or unit is not None:
        A = StructureConstantAlgebra(A.field, A.dim,
                                     table if table is not None else A.table,
                                     unit if unit is not None else A.unit,
                                     name=A.name)
    return HopfAlgebraData(A, delta if delta is not None else H.delta,
                           counit if counit is not None else H.counit,
                           antipode if antipode is not None
                           else H.antipode_columns,
                           name=H.name)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["kS3", "kQ8", "kA4", "k^S3", "D(C4)"])
def test_sparse_matches_dense_on_relabelled_bases(name, seed):
    H = relabelled(hopf(name), seed)
    rep = verify_hopf(H)
    assert rep.passed
    same_report(rep, dense_verify_hopf(H))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_matches_dense_on_m2(seed):
    perm = list(range(4))
    random.Random(seed).shuffle(perm)
    A = permute_algebra(matrix_algebra_2x2(), perm)
    rep = A.verify()
    assert rep.passed
    same_report(rep, dense_verify(A))


@pytest.mark.parametrize("name", ["kS3", "k^S3"])
def test_stored_zeros_are_ignored(name):
    H = hopf(name)
    n = H.dim
    zero = H.field.zero
    table = [[dict(cell) for cell in row] for row in H.algebra.table]
    delta = [dict(d) for d in H.delta]
    for i in range(n):
        table[i][(i + 1) % n].setdefault((i + 2) % n, zero)
        delta[i].setdefault((i + 1) % n * n + (i + 3) % n, zero)
    Hz = _rebuild(H, table=table, delta=delta)
    rep = verify_hopf(Hz)
    assert rep.passed
    same_report(rep, dense_verify_hopf(Hz))


# -- one broken entry --------------------------------------------------------

SMALL = ["kS3", "kQ8", "k^S3", "D(C4)"]
# no shrinking: a dense check of D(C4) takes most of a second
broken = settings(max_examples=4, deadline=None, derandomize=True,
                  phases=[Phase.generate])


def assert_rejected_alike(H):
    rep = verify_hopf(H)
    assert not rep.passed
    same_report(rep, dense_verify_hopf(H))


@broken
@given(st.sampled_from(SMALL), st.integers(0, 10 ** 6))
def test_broken_structure_constant(name, pos):
    H = hopf(name)
    n = H.dim
    i, j, k = pos % n, pos // n % n, pos // (n * n) % n
    table = [[dict(cell) for cell in row] for row in H.algebra.table]
    table[i][j][k] = table[i][j].get(k, H.field.zero) + H.field.one
    assert_rejected_alike(_rebuild(H, table=table))


@broken
@given(st.sampled_from(SMALL), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_broken_comultiplication_entry(name, pos, which):
    H = hopf(name)
    j = pos % H.dim
    delta = [dict(d) for d in H.delta]
    keys = sorted(delta[j])
    idx = keys[which % len(keys)]
    delta[j][idx] = delta[j][idx] + H.field.one
    assert_rejected_alike(_rebuild(H, delta=delta))


@broken
@given(st.sampled_from(SMALL), st.integers(0, 10 ** 6))
def test_broken_antipode_entry(name, pos):
    H = hopf(name)
    n = H.dim
    r, j = divmod(pos % (n * n), n)
    rows = [list(row) for row in H.antipode.entries]
    rows[r][j] = rows[r][j] + H.field.one
    assert_rejected_alike(_rebuild(
        H, antipode=sparse_columns(Matrix(H.field, rows))))


@broken
@given(st.sampled_from(SMALL), st.integers(0, 10 ** 6))
def test_broken_counit(name, pos):
    H = hopf(name)
    counit = dict(H.counit)
    j = pos % H.dim
    counit[j] = counit.get(j, H.field.zero) + H.field.one
    assert_rejected_alike(_rebuild(H, counit=counit))


@broken
@given(st.sampled_from(SMALL), st.integers(0, 10 ** 6))
def test_broken_unit(name, pos):
    H = hopf(name)
    unit = dict(H.algebra.unit)
    i = pos % H.dim
    unit[i] = unit.get(i, H.field.zero) + H.field.one
    assert_rejected_alike(_rebuild(H, unit=unit))

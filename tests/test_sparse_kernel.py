"""The kernel of ``EchelonSubspace`` against the dense kernel of
``dense_oracle``, list for list, over Q, Q(zeta_3) and F_7, with the rows
streamed from a generator."""

import pytest
from hypothesis import given, settings, strategies as st

from frobdiv import CyclotomicField, QQ
from frobdiv.linalg import EchelonSubspace

from dense_oracle import PrimeField, dense_kernel, identity_matrix

FIELDS = {"Q": QQ, "Q(zeta_3)": CyclotomicField(3), "F_7": PrimeField(7)}


def scalar(field, a, b):
    """a + b zeta over Q(zeta_3); a + b elsewhere."""
    if isinstance(field, CyclotomicField):
        return field.from_int(a) + field.from_int(b) * field.zeta(1)
    return field.from_int(a + b)


def sparse_kernel(field, n, rows):
    return EchelonSubspace(field, n, rows).kernel().basis


def streamed(field, dense_rows, keep_zeros):
    """Each row as a sparse dict, yielded one at a time; with keep_zeros the
    zero entries at even columns are stored too."""
    for row in dense_rows:
        yield {k: c for k, c in enumerate(row)
               if c != field.zero or (keep_zeros and k % 2 == 0)}


def same_kernel(field, n, dense_rows, keep_zeros=False):
    got = sparse_kernel(field, n, streamed(field, dense_rows, keep_zeros))
    assert got == dense_kernel(field, dense_rows, n)
    return got


entry = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2, 3]),
                  st.sampled_from([0, 0, 1, -2]))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         max_size=8))
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return n, rows, draw(st.booleans())


@pytest.mark.parametrize("fname", FIELDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=systems())
def test_matches_dense_kernel(fname, system):
    field = FIELDS[fname]
    n, rows, keep_zeros = system
    dense = [[scalar(field, a, b) for a, b in row] for row in rows]
    same_kernel(field, n, dense, keep_zeros)


@pytest.mark.parametrize("fname", FIELDS)
def test_edge_cases(fname):
    field = FIELDS[fname]
    zero, one = field.zero, field.one
    n = 4
    identity = identity_matrix(field, n).entries
    assert same_kernel(field, n, []) == identity
    assert same_kernel(field, n, [[zero] * n] * 3, keep_zeros=True) == \
        identity
    assert same_kernel(field, n, identity) == []
    assert same_kernel(field, n, identity + identity) == []
    two = field.from_int(2)
    dup = [[one, two, zero, one], [one, two, zero, one],
           [two, field.from_int(4), zero, two]]
    assert len(same_kernel(field, n, dup, keep_zeros=True)) == 3


def test_stops_reading_at_full_rank():
    field = QQ
    identity = identity_matrix(field, 3).entries

    def rows():
        yield from (dict(enumerate(row)) for row in identity)
        raise AssertionError("read past full rank")

    assert sparse_kernel(field, 3, rows()) == []

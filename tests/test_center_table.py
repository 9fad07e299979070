"""The modular split on the multiplication table of the mod-p centre,
against the oracle that forms every product of the table densely in the
whole reduced algebra (``dense_oracle.full_algebra_center_table``): the
same blocks, in the same order, at every root of the cyclotomic
polynomial and at two good primes."""

import pytest

import frobdiv.modular as modular
from frobdiv import drinfeld_double, dual_hopf, group_algebra, named_group

from dense_oracle import full_algebra_center_table

_ALGEBRAS = {}


def algebra(name):
    """kS3, kQ8 over Q(zeta_24), k^A4 over Q(zeta_12) and D(C4)."""
    if name not in _ALGEBRAS:
        if name == "kS3":
            H = group_algebra(named_group("S3"))
        elif name == "kQ8@24":
            H = group_algebra(named_group("Q8"), conductor=24)
        elif name == "k^A4@12":
            H = dual_hopf(group_algebra(named_group("A4"), conductor=12))
        else:
            H = drinfeld_double(named_group("C4"))[0]
        _ALGEBRAS[name] = H.algebra
    return _ALGEBRAS[name]


def block_data(blocks):
    return [(b.central_idempotent, b.degree, b.block_dim, b.center_dim)
            for b in blocks]


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("name", ["kS3", "kQ8@24", "k^A4@12", "D(C4)"])
def test_center_table_split_matches_full_algebra_oracle(name, which,
                                                        monkeypatch):
    A = algebra(name)
    primes = modular.good_primes(A)
    p = [next(primes) for _ in range(2)][which]
    roots, _ = modular.component_roots(A.field.conductor, p, 1)
    comps = [modular.ComponentAlgebra(A, w, p) for w in roots]
    table_blocks = [block_data(modular.modular_split(comp))
                    for comp in comps]
    monkeypatch.setattr(modular, "_center_table", full_algebra_center_table)
    oracle_blocks = [block_data(modular.modular_split(comp))
                     for comp in comps]
    assert table_blocks == oracle_blocks
    assert all(table_blocks)


def test_center_table_forms_each_product_once(monkeypatch):
    """r(r+1)/2 products in the reduced algebra for the table, then none
    while the idempotents of the centre are found."""
    A = algebra("D(C4)")
    p = next(modular.good_primes(A))
    w = modular.component_roots(A.field.conductor, p, 1)[0][0]
    comp = modular.ComponentAlgebra(A, w, p)
    products = []
    original = modular.table_product

    def counted(table, a, b):
        if table is comp.table:
            products.append(1)
        return original(table, a, b)

    split = modular._commutative_idempotents

    def marked(*args):
        products.append("split")
        return split(*args)

    monkeypatch.setattr(modular, "table_product", counted)
    monkeypatch.setattr(modular, "_commutative_idempotents", marked)
    blocks = modular.modular_split(comp)
    r = len(blocks)  # D(C4) is commutative: sixteen 1-dimensional blocks
    assert r == 16
    before = products.index("split")
    assert before == r * (r + 1) // 2
    # after the split, nothing multiplies in the algebra: the block
    # dimensions are traces of projections
    assert len(products) == before + 1

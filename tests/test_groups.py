import pytest

from frobdiv import InvalidGroupTable, named_group
from frobdiv.groups import group_from_table

from identity_oracle import conjugacy_classes


ORDERS = {"C2": 2, "C3": 3, "C4": 4, "C6": 6, "S3": 6, "D4": 8,
          "Q8": 8, "A4": 12}
EXPONENTS = {"C2": 2, "C3": 3, "C4": 4, "C6": 6, "S3": 6, "D4": 4,
             "Q8": 4, "A4": 6}
CLASS_COUNTS = {"C2": 2, "C3": 3, "C4": 4, "C6": 6, "S3": 3, "D4": 5,
                "Q8": 5, "A4": 4}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_named_group_invariants(name):
    G = named_group(name)
    assert G.order == ORDERS[name]
    assert G.exponent == EXPONENTS[name]
    assert len(conjugacy_classes(G)) == CLASS_COUNTS[name]
    e = G.identity
    for g in range(G.order):
        assert G.table[e][g] == g and G.table[g][e] == g
        assert G.table[g][G.inverse[g]] == e
    # associativity spot check on the full table (orders are small)
    for a in range(G.order):
        for b in range(G.order):
            for c in range(G.order):
                assert G.table[G.table[a][b]][c] == G.table[a][G.table[b][c]]


def test_s3_class_sizes():
    G = named_group("S3")
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    assert sizes == [1, 2, 3]


def test_a4_class_sizes():
    G = named_group("A4")
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    assert sizes == [1, 3, 4, 4]


def test_q8_center():
    G = named_group("Q8")
    central = [g for g in range(G.order)
               if all(G.table[g][h] == G.table[h][g] for h in range(G.order))]
    assert len(central) == 2


def test_group_from_table_roundtrip():
    G = named_group("S3")
    H = group_from_table(G.table, name="copy")
    assert H.order == 6 and H.identity == G.identity
    assert H.inverse == G.inverse


def test_invalid_table_rejected():
    # 2x2 table with no identity element
    with pytest.raises(InvalidGroupTable):
        group_from_table([[1, 0], [1, 0]])
    # non-associative latin square fails too (smallest is order 5; fake a
    # broken order-3 table with missing inverses)
    with pytest.raises(InvalidGroupTable):
        group_from_table([[0, 1, 2], [1, 1, 1], [2, 1, 0]])


def test_unknown_name():
    with pytest.raises(InvalidGroupTable):
        named_group("M11")

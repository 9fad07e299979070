import time

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


def test_non_associative_loop_names_a_failing_triple():
    # a loop of order 5 (identity 0, every element its own inverse) that
    # is no group: Light's test fails at a generator s, and the triple is
    # read off the row where it fails
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidGroupTable, match=r"not associative at") as err:
        group_from_table(loop)
    i, j, k = map(int, str(err.value).split("(")[1].rstrip(")").split(","))
    assert loop[loop[i][j]][k] != loop[i][loop[j][k]]


def test_table_without_generating_set_is_not_a_group():
    # identity 0, x y = 0 for all x, y != 0: every element is its own
    # inverse, and the words in S reach only S and 0, so no set of at most
    # n // 2 elements generates; on a group the search cannot fail
    n = 6
    table = [[x if y == 0 else y if x == 0 else 0 for y in range(n)]
             for x in range(n)]
    with pytest.raises(InvalidGroupTable, match="no generating set"):
        group_from_table(table)


def test_associativity_of_c300_proven_by_light():
    # the n^3 scan took about 2 s at n = 300; Light's test on S = [1]
    # takes n^2 reads of the table
    n = 300
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    start = time.process_time()
    G = group_from_table(table)
    assert time.process_time() - start < 0.5
    assert G.order == n and G.exponent == n and G.identity == 0


def test_unknown_name():
    with pytest.raises(InvalidGroupTable):
        named_group("M11")

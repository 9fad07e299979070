"""Small finite groups as Cayley tables, for the bundled constructors."""

from __future__ import annotations

import math
from itertools import permutations

from .algebra import _associative_at, light_generators


class InvalidGroupTable(ValueError):
    pass


class FiniteGroup:
    """A group by its Cayley table: ``table[i][j]`` is the index of
    g_i g_j."""

    __hash__ = None

    def __init__(self, name, table, identity, inverse, exponent):
        self.name = name
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self.exponent = exponent

    def _fields(self):
        return (self.name, self.table, self.identity, self.inverse,
                self.exponent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("FiniteGroup(name={!r}, table={!r}, identity={!r}, "
                "inverse={!r}, exponent={!r})".format(*self._fields()))

    @property
    def order(self):
        return len(self.table)


def group_from_table(table, name="group") -> FiniteGroup:
    """The group of a Cayley table: a list of n lists of n ints in
    range(n).  JSON true and false load as bools, which Python counts as
    ints; they are refused.

    The identity and the inverses are found first, in O(n^2).  Then
    associativity is proven by Light's test on a generating set S
    (``algebra.light_generators`` and ``_associative_at`` on the table
    with a zero row and column appended), n^2 |S| triples; a failing one
    is named from the row where the test fails.  On a group the search
    finds S: each greedy step adds a g outside the subgroup H reached,
    whose words reach H g besides H, so it takes at most log2 n <= n // 2
    steps.  A table with an identity and inverses where it fails is not
    associative."""
    if not isinstance(table, list) or not all(
            isinstance(row, list) and len(row) == len(table)
            and all(type(x) is int and 0 <= x < len(table) for x in row)
            for row in table):
        raise InvalidGroupTable("table is not n x n over {0..n-1}")
    n = len(table)
    identity = next((e for e in range(n) if all(
        table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if identity is None:
        raise InvalidGroupTable("no identity element")
    inverse = [next((y for y, z in enumerate(row) if z == identity
                     and table[y][x] == identity), None)
               for x, row in enumerate(table)]
    if None in inverse:
        raise InvalidGroupTable(
            f"element {inverse.index(None)} has no inverse")
    index = [row + [n] for row in table] + [[n] * (n + 1)]
    S = light_generators(index)[0] if n > 1 else [identity]
    if S is None:
        raise InvalidGroupTable("not associative: no generating set found")
    for s in S:
        if not _associative_at(index, None, s):
            i, k = next((i, k) for i in range(n) for k in range(n)
                        if table[table[i][s]][k] != table[i][table[s][k]])
            raise InvalidGroupTable(f"not associative at ({i},{s},{k})")
    # exponent = lcm of element orders
    exponent = 1
    for x in range(n):
        order = 1
        y = x
        while y != identity:
            y = table[y][x]
            order += 1
        exponent = math.lcm(exponent, order)
    return FiniteGroup(name, [list(r) for r in table], identity, inverse, exponent)


def _table_from_elements(elements, compose, name):
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[compose(a, b)] for b in elements] for a in elements]
    return group_from_table(table, name)


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, f"C{n}")


def symmetric_group_3() -> FiniteGroup:
    # permutations as mapping tuples; (p*q)(x) = p(q(x))
    elements = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    return _table_from_elements(elements,
                                lambda p, q: tuple(p[q[x]] for x in range(3)),
                                "S3")


def dihedral_group_4() -> FiniteGroup:
    # order 8: r^4 = s^2 = 1, s r s = r^-1; elements r^a s^b
    elements = [(a, b) for b in range(2) for a in range(4)]

    def compose(x, y):
        a, b = x
        c, d = y
        # (r^a s^b)(r^c s^d) = r^(a + c*(-1)^b) s^(b+d)
        return ((a + (c if b == 0 else -c)) % 4, (b + d) % 2)

    return _table_from_elements(elements, compose, "D4")


def quaternion_group() -> FiniteGroup:
    # the units 1, -1, i, -i, j, -j, k, -k as quaternions a + b i + c j + d k
    units = [tuple(sign * (k == m) for k in range(4))
             for m in range(4) for sign in (1, -1)]

    def compose(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    return _table_from_elements(units, compose, "Q8")


def alternating_group_4() -> FiniteGroup:
    # the permutations with an even number of inversions
    elements = [p for p in permutations(range(4)) if sum(
        p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    return _table_from_elements(elements,
                                lambda p, q: tuple(p[q[x]] for x in range(4)),
                                "A4")


_NAMED = {
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C6": lambda: cyclic_group(6),
    "S3": symmetric_group_3,
    "D4": dihedral_group_4,
    "Q8": quaternion_group,
    "A4": alternating_group_4,
}


def named_group(name: str) -> FiniteGroup:
    try:
        return _NAMED[name]()
    except KeyError:
        raise InvalidGroupTable(f"unknown group name {name!r}") from None

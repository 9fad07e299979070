"""Small finite groups as Cayley tables, for the bundled constructors."""

from __future__ import annotations

from itertools import permutations


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
    ints; they are refused."""
    if not isinstance(table, list) or not all(
            isinstance(row, list) and len(row) == len(table)
            and all(type(x) is int and 0 <= x < len(table) for x in row)
            for row in table):
        raise InvalidGroupTable("table is not n x n over {0..n-1}")
    n = len(table)
    # associativity
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InvalidGroupTable(f"not associative at ({i},{j},{k})")
    # identity
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no identity element")
    # inverses
    inverse = [None] * n
    for x in range(n):
        for y in range(n):
            if table[x][y] == identity and table[y][x] == identity:
                inverse[x] = y
                break
        if inverse[x] is None:
            raise InvalidGroupTable(f"element {x} has no inverse")
    # exponent = lcm of element orders
    exponent = 1
    for x in range(n):
        order = 1
        y = x
        while y != identity:
            y = table[y][x]
            order += 1
        exponent = _lcm(exponent, order)
    return FiniteGroup(name, [list(r) for r in table], identity, inverse, exponent)


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


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
    # units {±1, ±i, ±j, ±k} encoded as (sign, axis), axis in {1,i,j,k}
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul = {}
    axes = ["1", "i", "j", "k"]
    rules = {("i", "j"): ("k", 1), ("j", "k"): ("i", 1), ("k", "i"): ("j", 1),
             ("j", "i"): ("k", -1), ("k", "j"): ("i", -1), ("i", "k"): ("j", -1)}

    def compose(x, y):
        sx, ax = (-1 if x.startswith("-") else 1), x.lstrip("-")
        sy, ay = (-1 if y.startswith("-") else 1), y.lstrip("-")
        s = sx * sy
        if ax == "1":
            axis = ay
        elif ay == "1":
            axis = ax
        elif ax == ay:
            axis, s = "1", -s
        else:
            axis, extra = rules[(ax, ay)]
            s *= extra
        return ("-" if s < 0 else "") + axis

    return _table_from_elements(names, compose, "Q8")


def alternating_group_4() -> FiniteGroup:
    elements = [p for p in permutations(range(4)) if _parity(p) == 1]
    return _table_from_elements(elements,
                                lambda p, q: tuple(p[q[x]] for x in range(4)),
                                "A4")


def _parity(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


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

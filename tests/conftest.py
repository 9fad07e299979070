import random

import pytest

from frobdiv import QQ, StructureConstantAlgebra, named_group


def group_algebra_plain(gname, field=None):
    """Group algebra as a bare StructureConstantAlgebra (no coalgebra)."""
    field = field or QQ
    G = named_group(gname)
    n = G.order
    table = [[{G.table[i][j]: field.one} for j in range(n)]
             for i in range(n)]
    unit = [field.one if i == G.identity else field.zero for i in range(n)]
    return StructureConstantAlgebra(field, n, table, unit,
                                    name=f"k[{gname}]")


def delta_form(algebra):
    """<lambda, x_i> = delta_{i, identity index} (assumes unit = e_0)."""
    return {0: algebra.field.one}


def matrix_algebra_2x2(field=None):
    """M_2(k) on the basis e11, e12, e21, e22."""
    field = field or QQ
    one = field.one

    def mult(a, b):
        # e_{ij} e_{kl} = [j == k] e_{il}
        i, j = divmod(a, 2)
        k, l = divmod(b, 2)
        return {i * 2 + l: one} if j == k else {}

    table = [[mult(a, b) for b in range(4)] for a in range(4)]
    unit = [one, field.zero, field.zero, one]
    return StructureConstantAlgebra(field, 4, table, unit, name="M2")


@pytest.fixture
def rng():
    return random.Random(20260826)


def matrix_blocks(sizes, field=None):
    """M_{n1}(k) + M_{n2}(k) + ... on the matrix units e_ij of each block."""
    field = field or QQ
    offsets, dim = [], 0
    for n in sizes:
        offsets.append(dim)
        dim += n * n
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    unit = [field.zero] * dim
    for off, n in zip(offsets, sizes):
        for i in range(n):
            unit[off + i * n + i] = field.one
            for j in range(n):
                for l in range(n):
                    # e_ij e_jl = e_il
                    table[off + i * n + j][off + j * n + l] = {
                        off + i * n + l: field.one}
    name = "+".join(f"M{n}" for n in sizes)
    return StructureConstantAlgebra(field, dim, table, unit, name=name)

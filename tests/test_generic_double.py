"""The generic Drinfeld double ``double_of`` on Hopf algebras that are not
group algebras, and D(G) = ``double_of(group_algebra(G))`` against the
Dijkgraaf-Pasquier-Roche description of its irreducibles.

The modules of D(H) form the Drinfeld centre of Rep H, and the centres
Z(Vec_G) of Rep k^G and Z(Rep G) of Rep kG are equivalent as tensor
categories, so D(k^G) and D(G) share the degrees of their blocks.
D(D(C2)) is a double of a double.  The irreducibles of D(G) are
indexed by pairs (C, V): a conjugacy class C of G with representative
x_C, and an irreducible V of the centraliser C_G(x_C); that of (C, V) has
degree |C| dim V.  dim V is read off frobdiv's own split of the group
algebra of C_G(x_C), built from its Cayley table with
``group_from_table``.
"""

import json

import pytest

from frobdiv import (HopfAnalysis, double_of, drinfeld_double, dual_hopf,
                     group_algebra, group_from_table, integrals,
                     named_group, quasitriangular_verify, verify_hopf)
from frobdiv.cli import main
from frobdiv.serialize import canonical_dumps, hopf_to_json


def degrees(H):
    return sorted(HopfAnalysis(H).wedderburn.degrees)


@pytest.mark.parametrize("gname", ["C3", "S3"])
def test_double_of_dual_has_degrees_of_group_double(gname):
    G = named_group(gname)
    D, R = double_of(dual_hopf(group_algebra(G, conductor=G.exponent)))
    assert verify_hopf(D).passed
    assert quasitriangular_verify(D, R).report.passed
    assert degrees(D) == degrees(drinfeld_double(G)[0])


def test_double_of_double_analyses_with_every_section_pass(tmp_path):
    D, R = double_of(drinfeld_double(named_group("C2"))[0])
    assert D.dim == 16 and D.name == "D(D(C2))"
    assert verify_hopf(D).passed
    assert quasitriangular_verify(D, R).report.passed
    doc = tmp_path / "ddc2.json"
    doc.write_text(canonical_dumps(hopf_to_json(D, lam=integrals(D).lam,
                                                 R=R)))
    out = tmp_path / "ddc2-report.json"
    assert main(["analyze", str(doc), "--check", "all", "--format", "json",
                 "--out", str(out)]) == 0
    sections = json.loads(out.read_text())["sections"]
    assert [s["name"] for s in sections] == [
        "hopf axioms", "frobenius divisibility (FD)", "Zhu divisibility",
        "class equation", "schneider divisibility"]
    assert all(s["status"] == "pass" for s in sections)


def dpr_degrees(G):
    """|C| dim V over the classes C of G and the irreducibles V of
    C_G(x_C), sorted."""
    n, t, inv = G.order, G.table, G.inverse
    seen, out = set(), []
    for x in range(n):
        if x in seen:
            continue
        cls = {t[t[g][x]][inv[g]] for g in range(n)}
        seen |= cls
        cent = [g for g in range(n) if t[g][x] == t[x][g]]
        pos = {g: i for i, g in enumerate(cent)}
        Z = group_from_table([[pos[t[a][b]] for b in cent] for a in cent],
                             name=f"C({x})")
        out += [len(cls) * d
                for d in degrees(group_algebra(Z, conductor=G.exponent))]
    return sorted(out)


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8", "A4"])
def test_group_double_matches_dijkgraaf_pasquier_roche(gname):
    G = named_group(gname)
    assert degrees(drinfeld_double(G)[0]) == dpr_degrees(G)

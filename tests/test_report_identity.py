"""Byte identity of ``frobdiv analyze --format json`` reports.

``tests/reports/`` holds the reports of ``analyze --format json`` on the
documents written by ``frobdiv build`` for D(S3), D(C4), kA4 and k^Q8 (the
last analysed at ``--conductor 24``), and on M3+M2+M1 over Q on its matrix
units (``--check fd``).  They were generated at commit cf6821a, before the
exact checks of the Wedderburn split and of the relative divisibility
moved onto the block images and the structure table.  The report of D(D4)
(dim 64, with blocks of degree 2) was generated at commit caae4b3, before
the Hopf maps on H (x) H were written once each.  Every report must still
match byte for byte, with the same exit code.  The report of D(S4)
(dim 576, with blocks of degree 6 and 8), built from the Cayley table of
the permutations of 0..3 with ``build --table``, was generated at commit
170e31e, before coassociativity, the R-intertwining and the integrals
were proven on Light's generating set; at about 10 s of CPU it is
compared by a step of the CI workflow, not here.  So is the report of
kPSL(2,7) (dim 168 over Q(zeta_84), blocks of degree 3 to 8), built the
same way from its permutations of the projective line over F_7, which
was generated at commit 7580486, before the split certificate read the
minimal and characteristic polynomials of one element instead of its
eigenspaces; it takes about 45 s of CPU.  The report of kS3 over
Q(zeta_12) on the basis ((1 + i)/2) x_g, whose table has the common
denominator D = 2 and irrational constants, so that the integral table
holds integral ``Cyc`` values, was generated at commit ae694ee, before
the sparse product and the linear combinations were written once each.
The reports of kS3 and kQ8 built over Q (``build --conductor 1``), the
first passing every section and the second non-split, so that its
Frobenius-divisibility section is inapplicable, were generated at commit
9422d92, while Q still had a field class and a scalar type of its own.

A change that means to alter a report regenerates the files with

    PYTHONPATH=src python3 tests/test_report_identity.py

and says in its change log why the reports changed.
"""

import sys
from pathlib import Path

import pytest

from frobdiv import group_algebra, named_group
from frobdiv.cli import main
from frobdiv.serialize import algebra_to_json, canonical_dumps, hopf_to_json

from conftest import matrix_blocks
from dense_oracle import change_basis_hopf, scalar_matrix

REPORTS = Path(__file__).resolve().parent / "reports"


def rescaled_s3():
    """kS3 over Q(zeta_12) on the basis ((1 + i)/2) x_g, i = zeta_12^3."""
    H = group_algebra(named_group("S3"), conductor=12)
    field = H.field
    t = (field.one + field.zeta(3)) / field.from_rat(2)
    return hopf_to_json(
        change_basis_hopf(H, scalar_matrix(field, H.dim, t))[0])


def matrix_units():
    """M3+M2+M1 over Q on its matrix units."""
    return algebra_to_json(matrix_blocks((3, 2, 1)))


# name -> (build arguments, or a function that returns the document;
#          analyze arguments; exit code)
CASES = {
    "double-s3": (["--group", "S3", "--as", "double"], [], 0),
    "double-c4": (["--group", "C4", "--as", "double"], [], 0),
    "double-d4": (["--group", "D4", "--as", "double"], [], 0),
    "group-a4": (["--group", "A4"], [], 0),
    "dual-q8-at-24": (["--group", "Q8", "--as", "dual"],
                      ["--conductor", "24"], 0),
    # the regular form gives Gamma(1) = 1: a negative verdict, exit 1
    "m3-m2-m1": (matrix_units, ["--check", "fd"], 1),
    "group-s3-rescaled-at-12": (rescaled_s3, ["--check", "all"], 0),
    "group-s3-over-q": (["--group", "S3", "--conductor", "1"],
                        ["--check", "all"], 0),
    # Q8 has a degree-2 block that does not split over Q: exit 1
    "group-q8-over-q": (["--group", "Q8", "--conductor", "1"], [], 1),
}


def analyze(name, workdir):
    """The exit code and report bytes of one case, run in ``workdir``."""
    build, analyze_args, _ = CASES[name]
    doc = workdir / f"{name}.in.json"
    if callable(build):
        doc.write_text(canonical_dumps(build()) + "\n")
    else:
        assert main(["build", *build, "--out", str(doc)]) == 0
    out = workdir / f"{name}.json"
    code = main(["analyze", str(doc), "--format", "json", "--out", str(out),
                 *analyze_args])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_byte_identical(name, tmp_path):
    code, report = analyze(name, tmp_path)
    assert code == CASES[name][2]
    assert report == (REPORTS / f"{name}.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    REPORTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, report = analyze(name, Path(tmp))
            if code != CASES[name][2]:
                sys.exit(f"{name}: exit code {code}")
            (REPORTS / f"{name}.json").write_bytes(report)
            print(f"wrote {REPORTS / name}.json")

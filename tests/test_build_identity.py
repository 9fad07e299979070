"""Byte identity of ``frobdiv build`` output.

``tests/builds/`` holds the documents that ``frobdiv build --group G --as
KIND`` wrote for G in C4, S3 and each KIND, at commit 4b72132, when the
antipode was still a dense matrix inside ``HopfAlgebraData``.  The
constructors and ``hopf_to_json`` must still write them byte for byte:
the antipode column by column, each in ascending row order.

A change that means to alter a build regenerates the files with

    PYTHONPATH=src python3 tests/test_build_identity.py

and says in its change log why the documents changed.
"""

from pathlib import Path

import pytest

from frobdiv.cli import main

BUILDS = Path(__file__).resolve().parent / "builds"
CASES = [(g, kind) for g in ("C4", "S3")
         for kind in ("group-algebra", "dual", "double")]


def build(group, kind, workdir):
    out = workdir / f"{group}-{kind}.json"
    assert main(["build", "--group", group, "--as", kind,
                 "--out", str(out)]) == 0
    return out.read_bytes()


def fixture(group, kind):
    return BUILDS / f"{group.lower()}-{kind}.json"


@pytest.mark.parametrize("group,kind", CASES,
                         ids=[f"{g}-{k}" for g, k in CASES])
def test_build_byte_identical(group, kind, tmp_path):
    assert build(group, kind, tmp_path) == fixture(group, kind).read_bytes()


if __name__ == "__main__":
    import tempfile

    BUILDS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for group, kind in CASES:
            fixture(group, kind).write_bytes(build(group, kind, Path(tmp)))
            print(f"wrote {fixture(group, kind)}")

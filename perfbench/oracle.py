"""Correctness oracle for ``frobdiv analyze --format json`` reports.

A report is reduced to the invariants of the analysed algebra, which a
relabelling of its basis must not change: exit code, overall and section
statuses, sorted degrees (with sum d^2 = dim), Gamma(1), the Casimir
minimal polynomial, sorted induced dimensions and degree squares, and the
Zhu rows as a multiset (block order follows basis order, so which row is
S2 can move).  An analysis that ends in a traceback or an undocumented
exit code failed without answering; one whose report differs from the
expected one answered wrongly.  Raw bytes are never compared: the input digest changes
with every seed.

``expected.json`` holds the reduced reports of frobdiv 0.1.0, keyed by
analysis name; they are the same at every seed.
"""

from __future__ import annotations

import json
import os
import re

EXIT_CODES = (0, 1, 2, 3)          # documented in the frobdiv CLI
SORTED_ITEMS = {"degrees", "induced dimensions", "degree squares",
                "split certified"}
ZHU_ROW = re.compile(r"S\d+ \(degree (\d+)\)")

with open(os.path.join(os.path.dirname(__file__), "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def reduce_report(code, stdout):
    """The relabelling-invariant content of one analysis."""
    report = json.loads(stdout)
    sections = {}
    for sec in report["sections"]:
        items = {}
        zhu = []
        for key, value in sec["items"]:
            row = ZHU_ROW.fullmatch(key)
            if row:
                zhu.append(f"degree {row.group(1)}: {value}")
            elif key in SORTED_ITEMS:
                items[key] = " ".join(sorted(value.split(),
                                             key=_num_or_text))
            else:
                items[key] = value
        if zhu:
            items["rows"] = sorted(zhu)
        sections[sec["name"]] = {"status": sec["status"], "items": items}
    return {"exit": code, "status": report["status"], "sections": sections}


def _num_or_text(token):
    return (0, int(token), "") if token.lstrip("-").isdigit() \
        else (1, 0, token)


def unfinished(code, stderr):
    """None if the program ended normally, else a one-line reason: a
    traceback or an undocumented exit code.  Such an analysis failed, but
    it gave no answer that could be wrong."""
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1][:200]
    if code not in EXIT_CODES:
        return f"undocumented exit code {code}"
    return None


def check(name, code, stdout):
    """None if the finished analysis gave the expected report, else a
    one-line reason: the answer is wrong."""
    try:
        got = reduce_report(code, stdout)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report ({err.__class__.__name__}: {err})"
    want = EXPECTED.get(name)
    if want is None:
        return f"no expected report for {name!r}"
    if got != want:
        return f"report differs from expected: {_first_difference(got, want)}"
    return _degree_identity(got)


def _degree_identity(got):
    """Sum of squared degrees equals the dimension for split algebras."""
    dims = [s["items"]["dim"] for s in got["sections"].values()
            if "dim" in s["items"]]
    for sec in got["sections"].values():
        items = sec["items"]
        if "degrees" in items and dims and \
                "no" not in items.get("split certified", ""):
            total = sum(int(d) ** 2 for d in items["degrees"].split())
            if str(total) != dims[0]:
                return f"sum of squared degrees {total} != dim {dims[0]}"
    return None


def _first_difference(got, want, path=""):
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return _first_difference(got.get(key), want.get(key),
                                         f"{path}/{key}")
    return f"{path}: got {got!r}, expected {want!r}"

"""JSON ingestion and emission with bit-exact scalar strings.

Algebra schema:
  { "dim": n,
    "field": {"type": "rational"} | {"type": "cyclotomic", "conductor": n},
    "structure_constants": [[i, j, k, "scalar"], ...],
    "unit": ["scalar", ...],
    "lambda": ["scalar", ...],           # optional
    "name": "..." }                      # optional

Hopf input extends this with "comultiplication" (triples
[flat_ik, j, "scalar"] for the dim^2 x dim matrix of Delta), "counit",
"antipode" (triples [i, j, "scalar"]), and optional "R" (pairs
[flat, "scalar"]).  All indices 0-based.
"""

from __future__ import annotations

import json
import math

from .algebra import StructureConstantAlgebra
from .linalg import Matrix
from .scalars import field_from_descriptor


class SchemaError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _index(x, bound):
    """Whether x is an integer in range(bound).  JSON true and false load
    as bools, which Python counts as ints; they are refused."""
    return type(x) is int and 0 <= x < bound


def _list(doc, key):
    """The section ``key`` of the document, which must be a JSON list."""
    raw = doc[key]
    _require(isinstance(raw, list), f"{key} must be a list")
    return raw


def algebra_from_json(doc):
    """Returns (StructureConstantAlgebra, lambda-or-None)."""
    _require(isinstance(doc, dict), "input is not a JSON object")
    for key in ("dim", "field", "structure_constants", "unit"):
        _require(key in doc, f"missing key {key!r}")
    dim = doc["dim"]
    _require(_index(dim, math.inf) and dim > 0, "dim must be a positive int")
    try:
        field = field_from_descriptor(doc["field"])
    except ValueError as err:
        raise SchemaError(str(err)) from None
    entries = _list(doc, "structure_constants")
    unit = _parse_vector(field, doc["unit"], dim, "unit")
    # x_j = 1 x_j needs some c_ij^k != 0 for each j: dim constants at least
    _require(dim <= len(entries), f"dim {dim} needs at least {dim} "
             f"structure constants, the document lists {len(entries)}")
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 4,
                 f"bad structure-constant entry {entry!r}")
        i, j, k, s = entry
        _require(all(_index(x, dim) for x in (i, j, k)),
                 f"index out of range in {entry!r}")
        table[i][j][k] = _parse_scalar(field, s)
    lam = (_parse_vector(field, doc["lambda"], dim, "lambda")
           if "lambda" in doc else None)
    name = doc.get("name", "")
    _require(isinstance(name, str), "name must be a string")
    return StructureConstantAlgebra(field, dim, table, unit, name=name), lam


def _parse_vector(field, raw, dim, what):
    _require(isinstance(raw, list) and len(raw) == dim,
             f"{what} must be a list of {dim} scalars")
    return [_parse_scalar(field, s) for s in raw]


def _parse_scalar(field, s):
    _require(isinstance(s, str), f"scalar {s!r} is not a string")
    try:
        return field.parse(s)
    except (ValueError, ZeroDivisionError) as err:
        shown = repr(s) if len(s) <= 40 else f"{s[:40]!r}... ({len(s)} chars)"
        raise SchemaError(f"bad scalar {shown}: {err}") from None


def algebra_to_json(algebra, lam=None):
    field = algebra.field
    triples = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for k in sorted(algebra.table[i][j]):
                c = algebra.table[i][j][k]
                if bool(c):
                    triples.append([i, j, k, field.format(c)])
    doc = {
        "dim": algebra.dim,
        "field": field.describe(),
        "structure_constants": triples,
        "unit": [field.format(c) for c in algebra.unit],
    }
    if algebra.name:
        doc["name"] = algebra.name
    if lam is not None:
        doc["lambda"] = [field.format(c) for c in lam]
    return doc


def hopf_from_json(doc):
    """Returns (HopfAlgebraData, lambda-or-None, R-or-None)."""
    from .hopf import HopfAlgebraData
    algebra, lam = algebra_from_json(doc)
    for key in ("comultiplication", "counit", "antipode"):
        _require(key in doc, f"missing Hopf key {key!r}")
    n = algebra.dim
    field = algebra.field
    delta = [dict() for _ in range(n)]
    for entry in _list(doc, "comultiplication"):
        _require(isinstance(entry, list) and len(entry) == 3,
                 f"bad comultiplication entry {entry!r}")
        flat, j, s = entry
        _require(_index(flat, n * n) and _index(j, n),
                 f"index out of range in {entry!r}")
        delta[j][flat] = _parse_scalar(field, s)
    counit = _parse_vector(field, doc["counit"], n, "counit")
    cols = [[field.zero] * n for _ in range(n)]
    for entry in _list(doc, "antipode"):
        _require(isinstance(entry, list) and len(entry) == 3,
                 f"bad antipode entry {entry!r}")
        i, j, s = entry
        _require(_index(i, n) and _index(j, n),
                 f"index out of range in {entry!r}")
        cols[j][i] = _parse_scalar(field, s)
    antipode = Matrix.from_columns(field, cols)
    H = HopfAlgebraData(algebra, delta, counit, antipode, name=algebra.name)
    R = None
    if "R" in doc:
        R = {}
        for entry in _list(doc, "R"):
            _require(isinstance(entry, list) and len(entry) == 2,
                     f"bad R entry {entry!r}")
            flat, s = entry
            _require(_index(flat, n * n),
                     f"index out of range in {entry!r}")
            R[flat] = _parse_scalar(field, s)
    return H, lam, R


def hopf_to_json(H, lam=None, R=None):
    field = H.field
    n = H.dim
    doc = algebra_to_json(H.algebra, lam)
    comul = []
    for j in range(n):
        for flat in sorted(H.delta[j]):
            c = H.delta[j][flat]
            if bool(c):
                comul.append([flat, j, field.format(c)])
    doc["comultiplication"] = comul
    doc["counit"] = [field.format(c) for c in H.counit]
    anti = []
    for j in range(n):
        col = H.antipode.column(j)
        for i in range(n):
            if bool(col[i]):
                anti.append([i, j, field.format(col[i])])
    doc["antipode"] = anti
    if H.name:
        doc["name"] = H.name
    if R is not None:
        doc["R"] = [[flat, field.format(R[flat])] for flat in sorted(R)
                    if bool(R[flat])]
    return doc


def is_hopf_doc(doc):
    return isinstance(doc, dict) and "comultiplication" in doc


def canonical_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_path(path):
    with open(path) as fh:
        return json.load(fh)

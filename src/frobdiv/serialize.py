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

Given a conductor N, each scalar of Q(zeta_m) is mapped into Q(zeta_N) as
it is read, zeta_m -> zeta_N^(N/m) when m divides N.  For m = 2m' with m'
odd, Q(zeta_m) = Q(zeta_m'), and m' dividing N is enough:
zeta_m = -zeta_m'^((m'+1)/2) -> -zeta_N^((N/m')(m'+1)/2).
"""

from __future__ import annotations

import json
import math
import re

from .algebra import StructureConstantAlgebra
from .scalars import CyclotomicField, field_from_descriptor


# The most digits of an integer in a scalar string, on every Python version
MAX_SCALAR_DIGITS = 4300

# The largest dim a document may declare: its table holds dim^2 cells, and
# D(A5), dim 3600, is the largest input in view
MAX_DIM = 4096


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


def algebra_from_json(doc, conductor=None):
    """Returns (StructureConstantAlgebra, lambda-or-None), over Q(zeta_N)
    for N = ``conductor`` when one is given."""
    _require(isinstance(doc, dict), "input is not a JSON object")
    for key in ("dim", "field", "structure_constants", "unit"):
        _require(key in doc, f"missing key {key!r}")
    dim = doc["dim"]
    _require(_index(dim, math.inf) and dim > 0, "dim must be a positive int")
    _require(dim <= MAX_DIM, f"dim {dim} is above the limit {MAX_DIM}")
    try:
        source = field_from_descriptor(doc["field"])
    except ValueError as err:
        raise SchemaError(str(err)) from None
    field = source
    if conductor is not None:
        _require(_zeta_image(source.conductor, conductor) is not None,
                 f"conductor {conductor} is not a multiple of "
                 f"{source.conductor}")
        field = CyclotomicField(conductor)
    scalar = _reader(source, field)
    entries = _list(doc, "structure_constants")
    unit = _parse_vector(scalar, doc["unit"], dim, "unit")
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
        table[i][j][k] = scalar(s)
    lam = (_parse_vector(scalar, doc["lambda"], dim, "lambda")
           if "lambda" in doc else None)
    name = doc.get("name", "")
    _require(isinstance(name, str), "name must be a string")
    return StructureConstantAlgebra(field, dim, table, unit, name=name), lam


def _parse_vector(scalar, raw, dim, what):
    """The document's list of dim scalars as a sparse vector."""
    _require(isinstance(raw, list) and len(raw) == dim,
             f"{what} must be a list of {dim} scalars")
    return {k: c for k, s in enumerate(raw) if (c := scalar(s))}


def _reader(source, field):
    """The parser of the scalar strings of the document's field
    ``source`` = Q(zeta_m), with values in ``field`` = Q(zeta_N) under
    the embedding of ``_zeta_image``."""
    if field is source:
        return lambda s: _parse_scalar(source, s)
    sign, step = _zeta_image(source.conductor, field.conductor)
    powers = [-field.zeta(i * step) if sign < 0 and i % 2
              else field.zeta(i * step) for i in range(source.phi)]

    def scalar(s):
        out = field.zero
        for q, z in zip(_parse_scalar(source, s).rats(), powers):
            if q:
                out = out + field.from_rat(q) * z
        return out
    return scalar


def _zeta_image(m, N):
    """(sign, step) with zeta_m -> sign zeta_N^step an embedding of
    Q(zeta_m) into Q(zeta_N), or None when there is none of that form."""
    if N % m == 0:
        return 1, N // m
    if m % 4 == 2 and N % (m // 2) == 0:
        return -1, N // (m // 2) * (m // 2 + 1) // 2
    return None


def _parse_scalar(field, s):
    _require(isinstance(s, str), f"scalar {s!r} is not a string")
    if len(s) > MAX_SCALAR_DIGITS:
        digits = max(map(len, re.findall(r"\d+", s.replace("_", ""))),
                     default=0)
        _require(digits <= MAX_SCALAR_DIGITS, f"bad scalar {s[:40]!r}... "
                 f"({len(s)} chars): an integer has {digits} digits, more "
                 f"than the limit ({MAX_SCALAR_DIGITS} digits)")
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
        "unit": vector_strings(field, algebra.unit, algebra.dim),
    }
    if algebra.name:
        doc["name"] = algebra.name
    if lam is not None:
        doc["lambda"] = vector_strings(field, lam, algebra.dim)
    return doc


def vector_strings(field, vec, dim):
    """The dim scalar strings of a sparse vector, zeros written out."""
    return [field.format(vec.get(k, field.zero)) for k in range(dim)]


def hopf_from_json(doc, conductor=None):
    """Returns (HopfAlgebraData, lambda-or-None, R-or-None), over
    Q(zeta_N) for N = ``conductor`` when one is given."""
    from .hopf import HopfAlgebraData
    algebra, lam = algebra_from_json(doc, conductor)
    for key in ("comultiplication", "counit", "antipode"):
        _require(key in doc, f"missing Hopf key {key!r}")
    n = algebra.dim
    field = algebra.field
    scalar = _reader(field_from_descriptor(doc["field"]), field)
    delta = [dict() for _ in range(n)]
    for entry in _list(doc, "comultiplication"):
        _require(isinstance(entry, list) and len(entry) == 3,
                 f"bad comultiplication entry {entry!r}")
        flat, j, s = entry
        _require(_index(flat, n * n) and _index(j, n),
                 f"index out of range in {entry!r}")
        delta[j][flat] = scalar(s)
    counit = _parse_vector(scalar, doc["counit"], n, "counit")
    cols = [{} for _ in range(n)]
    for entry in _list(doc, "antipode"):
        _require(isinstance(entry, list) and len(entry) == 3,
                 f"bad antipode entry {entry!r}")
        i, j, s = entry
        _require(_index(i, n) and _index(j, n),
                 f"index out of range in {entry!r}")
        cols[j][i] = scalar(s)
    H = HopfAlgebraData(algebra, delta, counit, cols, name=algebra.name)
    R = None
    if "R" in doc:
        R = {}
        for entry in _list(doc, "R"):
            _require(isinstance(entry, list) and len(entry) == 2,
                     f"bad R entry {entry!r}")
            flat, s = entry
            _require(_index(flat, n * n),
                     f"index out of range in {entry!r}")
            R[flat] = scalar(s)
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
    doc["counit"] = vector_strings(field, H.counit, n)
    # each column is stored in ascending row order
    doc["antipode"] = [[i, j, field.format(c)]
                       for j, col in enumerate(H.antipode_columns)
                       for i, c in col.items()]
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

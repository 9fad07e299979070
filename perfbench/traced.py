"""Run ``frobdiv`` with its public functions wrapped from outside.

    PYTHONPATH=src python3 perfbench/traced.py --mode spans \
        --out spans.bin --analysis-id 0 -- analyze doc.json --check all

The program is imported unchanged; each traced function is replaced in
every frobdiv module and class namespace that binds it (``cli`` and
``wedderburn`` import several by name), then ``frobdiv.cli.main`` runs
with the given arguments and its exit code is returned.

``--mode spans`` records one span per call of a function in ``TRACED``:
name, start, end and parent, kept in memory and written to ``--out`` when
the run ends.  ``--mode counts`` records no spans; it counts scalar
operations and the call properties the per-layer report needs (repeat
inputs, blocks found, Hensel precision), so that wrappers around millions
of scalar calls never sit inside a timed span.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from array import array

# layer -> functions (dotted within the module).  The layer is the module.
TRACED = {
    "cli": ["cmd_analyze"],
    "serialize": ["load_path", "algebra_from_json", "hopf_from_json"],
    "hopf": ["verify_hopf", "integrals", "hopf_casimir",
             "frobenius_divisibility_hopf", "representation_ring",
             "zhu_check", "class_equation_check", "quasitriangular_verify",
             "factorizable_check", "schneider_check"],
    "algebra": ["StructureConstantAlgebra.verify",
                "StructureConstantAlgebra.multiply",
                "StructureConstantAlgebra.center_basis",
                "TensorSquareAlgebra.mult", "frobenius_structure"],
    "wedderburn": ["central_primitive_idempotents", "certify_split_block"],
    "modular": ["modular_split", "hensel_lift_idempotent",
                "reconstruct_element", "EchelonSubspace.coords"],
    "integrality": ["frobenius_divisibility_verdict",
                    "minimal_polynomial_over_Q", "relative_divisibility"],
    "linalg": ["Matrix.rref", "Matrix.apply", "Matrix.solve",
               "Matrix.kernel", "Matrix.minimal_polynomial"],
}

# Several functions reported under one span name.
SPAN_NAME = {
    "cli.cmd_analyze": "cli.analyze",
    "serialize.load_path": "serialize.load",
    "serialize.algebra_from_json": "serialize.load",
    "serialize.hopf_from_json": "serialize.load",
}

# metric stem -> (class, methods counted together)
SCALAR_OPS = {
    "scalars.Cyc.mul": ("Cyc", ("__mul__", "__rmul__")),
    "scalars.Cyc.add": ("Cyc", ("__add__", "__radd__")),
    "scalars.Cyc.eq": ("Cyc", ("__eq__",)),
    "scalars.PrimeFieldElement.mul": ("PrimeFieldElement",
                                      ("__mul__", "__rmul__")),
    "scalars.PrimeFieldElement.add": ("PrimeFieldElement",
                                      ("__add__", "__radd__")),
}


def span_names():
    """Every span name, in report order."""
    out = []
    for module, funcs in TRACED.items():
        for func in funcs:
            name = SPAN_NAME.get(f"{module}.{func}", f"{module}.{func}")
            if name not in out:
                out.append(name)
    return out


def _lookup(module, dotted):
    """The function object itself (not a bound method) named by
    ``Class.method`` or ``function`` in ``module``."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _patch(original, wrapper, namespaces):
    """Rebind ``original`` to ``wrapper`` wherever a namespace binds it."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, wrapper)


def _namespaces():
    import frobdiv.cli  # noqa: F401  (loads every module the CLI uses)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "frobdiv" or name.startswith("frobdiv.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("frobdiv")]
    return modules, modules + classes


class SpanRecorder:
    """Spans in flat arrays: parent index, name id, outermost-of-its-name
    flag, start and end (perf_counter seconds)."""

    def __init__(self):
        self.names = span_names()
        self.parent = array("i")
        self.name = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active = [0] * len(self.names)

    def wrap(self, qualname, func):
        nid = self.names.index(SPAN_NAME.get(qualname, qualname))
        parent, name, outer = self.parent, self.name, self.outer
        start, end = self.start, self.end
        stack, active = self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            parent.append(stack[-1])
            name.append(nid)
            outer.append(active[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                active[nid] -= 1
                stack.pop()

        return traced

    def dump(self, path, analysis_id):
        header = {"analysis_id": analysis_id, "names": self.names,
                  "spans": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.outer, self.start,
                        self.end):
                arr.tofile(fh)


def load_spans(path):
    """Inverse of SpanRecorder.dump: (header, parent, name, outer, start,
    end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "b", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


class Counter:
    """Call and scalar-operation counts for one analysis."""

    def __init__(self):
        self.calls = {}
        self.values = {"blocks": 0, "precision_exp.max": 0,
                       "verify_hopf.repeat_calls": 0,
                       "central_primitive_idempotents.repeat_calls": 0}
        self._seen = {"verify_hopf": set(),
                      "central_primitive_idempotents": set()}

    def wrap(self, qualname, func):
        tick = itertools.count()
        self.calls[qualname] = tick
        short = qualname.split(".", 1)[1]
        if short == "verify_hopf":
            def counted(H, *args, **kwargs):
                next(tick)
                self._repeat(short, _hopf_key(H))
                return func(H, *args, **kwargs)
        elif short == "central_primitive_idempotents":
            def counted(algebra, frobenius=None, *args, **kwargs):
                next(tick)
                lam = None if frobenius is None else _raw_vec(frobenius.lam)
                self._repeat(short, (_algebra_key(algebra), lam, args,
                                     tuple(sorted(kwargs.items()))))
                data = func(algebra, frobenius, *args, **kwargs)
                self.values["blocks"] += data.num_blocks
                self.values["precision_exp.max"] = max(
                    self.values["precision_exp.max"], data.precision_used)
                return data
        else:
            def counted(*args, **kwargs):
                next(tick)
                return func(*args, **kwargs)
        return counted

    def wrap_op(self, stem, func):
        tick = self.calls.setdefault(stem, itertools.count())
        nxt = tick.__next__

        def counted(a, b):
            nxt()
            return func(a, b)

        return counted

    def _repeat(self, short, key):
        seen = self._seen[short]
        if key in seen:
            self.values[f"{short}.repeat_calls"] += 1
        seen.add(key)

    def dump(self, path, analysis_id):
        out = {name: next(tick) for name, tick in self.calls.items()}
        out.update(self.values)
        with open(path, "w") as fh:
            json.dump({"analysis_id": analysis_id, "counts": out}, fh)


def _raw(c):
    return getattr(c, "coeffs", c)


def _raw_vec(vec):
    return tuple(_raw(c) for c in vec)


def _algebra_key(A):
    table = tuple(tuple(sorted((k, _raw(c)) for k, c in cell.items()))
                  for row in A.table for cell in row)
    return (A.dim, A.field.conductor, table, _raw_vec(A.unit))


def _hopf_key(H):
    delta = tuple(tuple(sorted((k, _raw(c)) for k, c in d.items()))
                  for d in H.delta)
    antipode = tuple(_raw_vec(row) for row in H.antipode.entries)
    return (_algebra_key(H.algebra), delta, _raw_vec(H.counit), antipode)


def install(recorder):
    """Wrap every traced function (and, for a Counter, the scalar ops)."""
    modules, namespaces = _namespaces()
    by_name = {m.__name__: m for m in modules}
    for module, funcs in TRACED.items():
        for func in funcs:
            original = _lookup(by_name[f"frobdiv.{module}"], func)
            _patch(original, recorder.wrap(f"{module}.{func}", original),
                   namespaces)
    if isinstance(recorder, Counter):
        scalars = by_name["frobdiv.scalars"]
        for stem, (cls_name, methods) in SCALAR_OPS.items():
            cls = getattr(scalars, cls_name)
            # aliases such as __rmul__ = __mul__ are one function
            originals = {id(cls.__dict__[m]): cls.__dict__[m]
                         for m in methods}
            for original in originals.values():
                _patch(original, recorder.wrap_op(stem, original), [cls])


def main(argv=None):
    ap = argparse.ArgumentParser(description="frobdiv under a tracer")
    ap.add_argument("--mode", choices=("spans", "counts"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--analysis-id", type=int, required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    recorder = SpanRecorder() if args.mode == "spans" else Counter()
    install(recorder)
    import frobdiv.cli
    try:
        code = frobdiv.cli.main(cli_args)
    finally:
        recorder.dump(args.out, args.analysis_id)
    return code


if __name__ == "__main__":
    sys.exit(main())

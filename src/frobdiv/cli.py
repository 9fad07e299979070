"""Command-line front-end.

``frobdiv analyze INPUT.json [--check ...]`` runs verification and the
selected theorem checks; ``frobdiv build --group S3 --as double`` emits
canonical ingestion JSON for the constructors.

Exit codes: 0 all checks pass; 1 a mathematical verdict is negative or a
theorem hypothesis is unmet; 2 invalid input; 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import sys

from . import hopf as hopf_mod
from .algebra import DegenerateForm, NotATraceForm, frobenius_structure
from .groups import InvalidGroupTable, group_from_table, named_group
from .integrality import (EquivalenceViolation, InapplicableHypothesis,
                          frobenius_divisibility_verdict)
from .modular import BadPrime, PrecisionExceeded, bad_prime_reason
from .report import Report, Section, input_digest
from .serialize import (SchemaError, algebra_from_json, canonical_dumps,
                        hopf_from_json, hopf_to_json, is_hopf_doc, load_path,
                        vector_strings)
from .wedderburn import central_primitive_idempotents

CHECKS = ("fd", "zhu", "class-equation", "schneider", "all")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="frobdiv",
        description="exact Frobenius/Casimir/Hopf divisibility toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run checks on an ingestion file")
    pa.add_argument("input")
    pa.add_argument("--check", choices=CHECKS, default="all")
    pa.add_argument("--lambda", dest="lam", default="regular",
                    choices=("regular", "delta-one", "custom"))
    pa.add_argument("--conductor", type=int, default=None)
    pa.add_argument("--prime", type=int, default=None)
    pa.add_argument("--format", dest="fmt", choices=("text", "json"),
                    default="text")
    pa.add_argument("--out", default=None)

    pb = sub.add_parser("build", help="emit canonical JSON for a constructor")
    pb.add_argument("--group", default=None,
                    help="named group (C2, C3, C4, C6, S3, D4, Q8, A4)")
    pb.add_argument("--table", default=None,
                    help="path to JSON {\"table\": [[...]]}")
    pb.add_argument("--as", dest="build_as", default="group-algebra",
                    choices=("group-algebra", "dual", "double"))
    pb.add_argument("--conductor", type=int, default=None)
    pb.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.conductor is not None and args.conductor <= 0:
        print(f"invalid input: conductor {args.conductor} is not positive",
              file=sys.stderr)
        return 2
    if args.command == "build":
        return cmd_build(args)
    return cmd_analyze(args)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    try:
        doc = load_path(args.input)
    except (OSError, ValueError) as err:
        print(f"cannot read input: {err}", file=sys.stderr)
        return 2
    digest = input_digest(canonical_dumps(doc))
    sections = []
    try:
        code = _analyze(doc, args, sections)
    except SchemaError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except (EquivalenceViolation, hopf_mod.HopfError) as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except (BadPrime, PrecisionExceeded) as err:
        print(f"modular pipeline failed: {err}", file=sys.stderr)
        return 3
    status = "pass" if code == 0 else "fail"
    rep = Report(digest, sections, status)
    text = rep.to_text() if args.fmt == "text" else rep.dumps_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _analyze(doc, args, sections):
    if is_hopf_doc(doc):
        if args.lam != "regular":
            raise SchemaError("--lambda applies to algebra documents: a Hopf "
                              "document is analysed with lambda = "
                              "chi_reg / dim H")
        H, lam, R = hopf_from_json(doc, args.conductor)
        base_report = hopf_mod.verify_hopf(H)
        if not base_report.passed:
            raise SchemaError(f"Hopf axioms fail: {base_report.failures[:3]}")
        _check_prime(H.algebra, args.prime)
        sections.append(Section("hopf axioms", "pass",
                                [("dim", str(H.dim)),
                                 ("field", _field_str(H.field))]))
        return _analyze_hopf(H, R, args, sections)

    algebra, lam = algebra_from_json(doc, args.conductor)
    base_report = algebra.verify()
    if not base_report.passed:
        raise SchemaError(f"algebra axioms fail: {base_report.failures[:3]}")
    sections.append(Section("algebra axioms", "pass",
                            [("dim", str(algebra.dim)),
                             ("field", _field_str(algebra.field))]))
    if args.check not in ("fd", "all"):
        raise SchemaError(f"check {args.check!r} needs Hopf input")
    _check_prime(algebra, args.prime)
    return _check_fd_plain(algebra, lam, args, sections)


def _check_prime(algebra, prime):
    """A --prime that breaks the good-prime policy is invalid input."""
    reason = None if prime is None else bad_prime_reason(algebra, prime)
    if reason is not None:
        raise SchemaError(reason)


def _check_fd_plain(algebra, lam, args, sections):
    form = _select_lambda(algebra, lam, args.lam)
    try:
        frob = frobenius_structure(algebra, form)
    except NotATraceForm as err:
        raise SchemaError(f"lambda is not a trace form: {err}")
    except DegenerateForm as err:
        sections.append(Section(
            "frobenius form", "fail",
            [("degenerate", "yes"),
             ("ideal witness", _vec_str(algebra, err.witness))]))
        return 1
    try:
        data = central_primitive_idempotents(algebra, frob, prime=args.prime)
    except DegenerateForm as err:
        # a nondegenerate form on a non-semisimple algebra
        sections.append(Section(
            "frobenius divisibility", "inapplicable",
            [("semisimple", "no"),
             ("radical witness", _vec_str(algebra, err.witness))]))
        return 1
    items = [("degrees", " ".join(map(str, data.degrees))),
             ("split certified", " ".join("yes" if f else "no"
                                          for f in data.split_certified))]
    try:
        verdict = frobenius_divisibility_verdict(frob, data)
    except InapplicableHypothesis as err:
        sections.append(Section("frobenius divisibility", "inapplicable",
                                items + [("reason", str(err))]))
        return 1
    items.append(("Gamma(1)", str(verdict.gamma_one)))
    items.append(("casimir integral",
                  "yes" if verdict.casimir_cert.integral else "no"))
    items.append(("minimal polynomial",
                  " ".join(verdict.casimir_cert.poly_strings())))
    sections.append(Section("frobenius divisibility",
                            "pass" if verdict.holds else "fail", items))
    return 0 if verdict.holds else 1


def _analyze_hopf(H, R, args, sections):
    code = 0
    S = hopf_mod.HopfAnalysis(H, R, prime=args.prime)
    try:
        verdict = hopf_mod.frobenius_divisibility_hopf(S)
    except (InapplicableHypothesis, DegenerateForm) as err:
        # every check below reads the split Wedderburn data
        sections.append(Section("frobenius divisibility (FD)",
                                 "inapplicable",
                                 [("dim", str(H.dim)), ("reason", str(err))]))
        return 1
    if args.check in ("fd", "all"):
        sections.append(Section(
            "frobenius divisibility (FD)",
            "pass" if verdict.holds else "fail",
            [("degrees", " ".join(map(str, S.wedderburn.degrees))),
             ("dim", str(H.dim)),
             ("Gamma(1)", str(verdict.gamma_one)),
             ("casimir integral",
              "yes" if verdict.casimir_cert.integral else "no"),
             ("minimal polynomial",
              " ".join(verdict.casimir_cert.poly_strings()))]))
        if not verdict.holds:
            code = 1
    if args.check in ("zhu", "all"):
        entries = hopf_mod.zhu_check(S)
        ok = all(e.divides for e in entries if e.central) and \
            all(e.identity_ok for e in entries if e.central)
        items = []
        for e in entries:
            if e.central:
                items.append((f"S{e.index} (degree {e.degree})",
                              f"central; identity {'ok' if e.identity_ok else 'FAIL'}; "
                              f"integral {'yes' if e.integral else 'no'}; "
                              f"divides {'yes' if e.divides else 'no'}"))
            else:
                items.append((f"S{e.index} (degree {e.degree})",
                              "character not central: theorem silent"))
        sections.append(Section("Zhu divisibility",
                                "pass" if ok else "fail", items))
        if not ok:
            code = max(code, 1)
    if args.check in ("class-equation", "all"):
        ce = hopf_mod.class_equation_check(S)
        sections.append(Section(
            "class equation",
            "pass" if ce.holds else "fail",
            [("induced dimensions", " ".join(map(str, ce.induced_dims))),
             ("dim", str(ce.dim))]))
        if not ce.holds:
            code = max(code, 1)
    if args.check in ("schneider", "all"):
        if R is None:
            if args.check == "schneider":
                raise SchemaError("schneider check needs an R-matrix")
        elif not S.quasitriangular.report.passed:
            sections.append(Section(
                "schneider divisibility", "fail",
                [("quasitriangular axioms",
                  str(S.quasitriangular.report.failures[:3]))]))
            return 1
        elif not S.factorizable.factorizable:
            sections.append(Section(
                "schneider divisibility", "inapplicable",
                [("factorizable", "no"),
                 ("Phi rank", f"{S.factorizable.rank}/{H.dim}")]))
            code = max(code, 1)
        else:
            sch = hopf_mod.schneider_check(S)
            sections.append(Section(
                "schneider divisibility",
                "pass" if sch.holds else "fail",
                [("factorizable", "yes"),
                 ("degree squares", " ".join(map(str, sch.squares))),
                 ("induced dimensions",
                  " ".join(map(str, sch.induced_dims))),
                 ("dim", str(sch.dim))]))
            if not sch.holds:
                code = max(code, 1)
    return code


def _select_lambda(algebra, custom, mode):
    field = algebra.field
    if mode == "regular":
        return algebra.regular_character()
    if mode == "delta-one":
        if len(algebra.unit) != 1:
            raise SchemaError("--lambda delta-one needs a unit supported on "
                              "a single basis element")
        (i0, u), = algebra.unit.items()
        return {i0: field.one / u}
    if custom is None:
        raise SchemaError("--lambda custom requires a \"lambda\" entry in "
                          "the input")
    return custom


def _field_str(field):
    d = field.describe()
    if d["type"] == "rational":
        return "Q"
    return f"Q(zeta_{d['conductor']})"


def _vec_str(algebra, vec):
    return ("[" + ", ".join(vector_strings(algebra.field, vec, algebra.dim))
            + "]")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build(args):
    try:
        if args.group:
            G = named_group(args.group)
        elif args.table:
            raw = load_path(args.table)
            if not isinstance(raw, dict):
                raise InvalidGroupTable("table file is not a JSON object")
            if "table" not in raw:
                raise InvalidGroupTable("table file: missing key 'table'")
            G = group_from_table(raw["table"], name="G")
        else:
            print("build needs --group or --table", file=sys.stderr)
            return 2
    except (ValueError, OSError, InvalidGroupTable) as err:
        print(f"invalid group: {err}", file=sys.stderr)
        return 2
    H, R = hopf_mod.group_algebra(
        G, conductor=args.conductor or G.exponent), None
    if args.build_as == "dual":
        H = hopf_mod.dual_hopf(H)
    elif args.build_as == "double":
        H, R = hopf_mod.double_of(H, name=f"D({G.name})")
    doc = hopf_to_json(H, lam=hopf_mod.integrals(H).lam, R=R)
    text = canonical_dumps(doc) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

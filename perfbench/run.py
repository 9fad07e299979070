#!/usr/bin/env python3
"""The frobdiv benchmark: seeded ``frobdiv analyze`` workloads, measured
end to end and, in a separate traced run, module by module.

    python3 perfbench/run.py --workload double-c4 --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; nothing needs installing.  Each
run builds its inputs from the seed in fresh interpreters (set-up), then
runs every analysis of the workload as its own ``python3 -m frobdiv.cli
analyze`` process, one at a time, and checks each report with the oracle.
Every process runs under the pace probe (``pace.py``), and times are
reported as CPU seconds at a nominal pace, so that a shared host's
changing speed does not read as a change of the program.

``--trace 0`` repeats passes over the workload while another pass fits in
``--seconds`` (always at least one) and reports the end-to-end metrics.
``--trace 1`` makes one untraced, one traced and one counting pass and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts the
analyses that failed: a traceback, an undocumented exit code, the time
cap or a wrong report.  ``correct`` is false only if some analysis
finished with a wrong report.  An analysis that ends in a traceback is run
again on another relabelling of the seed (see ``Bench.run_pass``); only
the last try is timed, and every failed one counts in ``failed``.  Each
run also writes that object, with its environment and per-analysis times,
under ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import traced  # noqa: E402

SETUP_REPS = 5           # set-up runs per benchmark run; setup_s is their median
ANALYSIS_CAP_S = 150.0   # one analysis past this counts as failed
RETRIES = 2              # further relabellings tried after a failed analysis
RUN_CAP_S = 170.0        # no analysis starts or runs past this
PACE_S = 0.001           # nominal pace: seconds per pace.reference() loop
# Measured and printed, but not declared in BENCHMARK.json.  On a shared
# 2-vCPU host the wall time of one analysis spread up to 29% of its median
# over ten seeds, past the largest bound (25%), and its CPU time moves
# with the host's pace as well; so the bounded times are CPU seconds at a
# nominal pace (see pace.py).  The slowest and the median analysis of
# ladder-small depend on the seed's basis for kA4 (24% spread), where the
# geometric mean over the ten analyses does not.
PRINTED_ONLY = {"wall_s": "s", "analysis_s.p50": "s", "analysis_s.max": "s",
                "cpu_raw_s": "s", "setup_wall_s": "s"}


class Child(NamedTuple):
    code: int
    wall: float
    cpu: float           # user + system seconds, less the pace probe's
    paced: float         # cpu at the nominal pace (see pace.py)
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


class Outcome(NamedTuple):
    name: str
    wall: float
    cpu: float
    paced: float
    rss_mb: float
    error: str | None    # why the analysis failed, if it did
    wrong: bool          # it finished with a report that is not expected
    final: bool          # no retry follows; this one is timed
    data: Path


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed
    set-up, undeclared metrics)."""


def run_child(argv, out_path, timeout):
    """Run one Python process (``argv`` after the interpreter) to
    completion under the pace probe: its wall time, CPU time, paced time
    and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    err_path = out_path.with_suffix(".err")
    pace_path = out_path.with_suffix(".pace")
    argv = [sys.executable, str(HERE / "pace.py"), "--out", str(pace_path),
            "--", *argv]
    expired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL)

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    adjusted = cpu
    if not expired.is_set():   # a killed process wrote none
        try:
            with open(pace_path) as fh:
                probe = json.load(fh)
        except (OSError, ValueError) as err:
            raise BenchError(f"pace probe wrote no data: {err}") from err
        cpu -= probe["probe_cpu_s"]
        adjusted = cpu
        if probe["samples"]:
            adjusted = cpu * PACE_S / probe["reference_mean_s"]
    return Child(os.waitstatus_to_exitcode(status), wall, cpu, adjusted,
                 usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"), expired.is_set())


class Bench:
    def __init__(self, workload, seed, seconds, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.analyses = inputs.WORKLOADS[workload]
        self.started = time.perf_counter()
        self.paths = {}          # attempt -> one input file per analysis
        self.attempt = {}        # analysis -> attempt its last pass ended on
        self.env = {}
        self.setups = []         # Child of each set-up

    # -- set-up ------------------------------------------------------------
    def setup(self):
        """Build the inputs several times, each in a fresh interpreter;
        every repetition must write the same bytes."""
        contents = None
        for rep in range(SETUP_REPS):
            child, paths = self.build_inputs(0, f"inputs{rep}")
            self.setups.append(child)
            self.env = json.loads(child.stdout.strip().splitlines()[-1])
            now = [p.read_bytes() for p in paths]
            if contents is not None and now != contents:
                raise BenchError("set-up is not deterministic for this seed")
            contents, self.paths[0] = now, paths

    def build_inputs(self, attempt, label):
        out_dir = self.work / label
        child = run_child(
            [str(HERE / "inputs.py"), "--workload",
             self.workload, "--seed", str(self.seed), "--attempt",
             str(attempt), "--out", str(out_dir)],
            self.work / f"{label}.out", ANALYSIS_CAP_S)
        if child.code != 0 or child.timed_out:
            raise BenchError("set-up failed: " + (child.stderr.strip()[-500:]
                                                  or f"exit {child.code}"))
        return child, [out_dir / f"{i}.json"
                       for i in range(len(self.analyses))]

    def input_path(self, idx, attempt):
        """Input of one analysis; a retry's inputs are built (untimed) the
        first time one is needed."""
        if attempt not in self.paths:
            self.paths[attempt] = self.build_inputs(
                attempt, f"retry{attempt}")[1]
        return self.paths[attempt][idx]

    # -- passes --------------------------------------------------------------
    def run_pass(self, mode, label):
        """One process per analysis, in workload order.  An analysis that
        ends without an answer (a traceback) counts as failed and, if its
        document is relabelled, runs again on another relabelling of the
        seed, up to RETRIES times.  So the timings are of analyses that
        finished, and every failure still counts.  A later pass starts on
        the relabelling the last one ended on."""
        outcomes = []
        for idx, analysis in enumerate(self.analyses):
            for attempt in range(self.attempt.get(idx, 0), RETRIES + 1):
                outcome, unfinished = self.run_analysis(
                    mode, f"{label}{idx}r{attempt}", idx, attempt)
                retry = unfinished and attempt < RETRIES and \
                    analysis.doc not in inputs.FIXED_BASIS
                outcomes.append(outcome._replace(final=not retry))
                if not retry:
                    self.attempt[idx] = attempt
                    break
        return outcomes

    def run_analysis(self, mode, label, idx, attempt):
        """(outcome, whether the program ended without an answer)."""
        analysis = self.analyses[idx]
        name = analysis.name + (f" (relabelling {attempt})" if attempt
                                else "")
        data = self.work / f"{label}.dat"
        cli_args = analysis.argv(str(self.input_path(idx, attempt)))
        if mode == "plain":
            argv = ["-m", "frobdiv.cli", *cli_args]
        else:
            argv = [str(HERE / "traced.py"), "--mode", mode, "--out",
                    str(data), "--analysis-id", str(idx), "--", *cli_args]
        budget = min(ANALYSIS_CAP_S,
                     RUN_CAP_S - (time.perf_counter() - self.started))
        if budget <= 0:
            return Outcome(name, 0.0, 0.0, 0.0, 0.0,
                           "not started: run time cap",
                           False, True, data), False
        child = run_child(argv, self.work / f"{label}.out", budget)
        if child.timed_out:
            return Outcome(name, child.wall, child.cpu, child.paced,
                           child.rss_mb,
                           f"killed after {budget:.0f} s", False, True,
                           data), False
        error = oracle.unfinished(child.code, child.stderr)
        unfinished = error is not None
        wrong = False
        if not unfinished:
            error = oracle.check(analysis.name, child.code, child.stdout)
            wrong = error is not None
        if error is None and mode != "plain" and not data.exists():
            error = "tracer wrote no data"
        return Outcome(name, child.wall, child.cpu, child.paced,
                       child.rss_mb, error, wrong, True, data), unfinished

    def measure(self):
        """Untraced passes while another one fits in --seconds."""
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(self.run_pass("plain", f"p{len(passes)}-"))
            typical = statistics.median(_total(p, "wall") for p in passes)
            spent = time.perf_counter() - begin
            if spent + typical > self.seconds or \
                    time.perf_counter() - self.started + typical > RUN_CAP_S:
                break
        timed = [o for p in passes for o in p if o.final]
        metrics = {
            "cpu_s": statistics.median(_total(p, "paced") for p in passes),
            "analysis_cpu_s.geomean": statistics.geometric_mean(
                o.paced for o in timed if o.paced > 0),
            "setup_s": statistics.median(c.paced for c in self.setups),
            "peak_rss_mb": max(o.rss_mb for o in timed),
            "wall_s": statistics.median(_total(p, "wall") for p in passes),
            "analysis_s.p50": statistics.median(o.wall for o in timed),
            "analysis_s.max": max(o.wall for o in timed),
            "cpu_raw_s": statistics.median(_total(p, "cpu") for p in passes),
            "setup_wall_s": statistics.median(c.wall for c in self.setups),
        }
        return passes, metrics

    def measure_layers(self):
        """One untraced, one traced and one counting pass, each reduced
        over the timed (final) analyses.  One that failed on every
        relabelling still counts up to where it stopped: the tracer writes
        its data however the program ends, unless it was killed."""
        plain = self.run_pass("plain", "u")
        spans = self.run_pass("spans", "t")
        counts = self.run_pass("counts", "c")
        passes = [plain, spans, counts]
        written = [[o.data for o in p if o.final and o.data.exists()]
                   for p in (spans, counts)]
        if not all(written):
            raise BenchError("no analysis of a traced pass wrote data")
        metrics = span_metrics(written[0])
        metrics.update(count_metrics(written[1]))
        metrics["trace.overhead_s"] = _total(spans, "paced") - \
            _total(plain, "paced")
        return passes, metrics


def _total(outcomes, field):
    """Time of one pass ("wall", "cpu" or "paced" seconds): its timed
    analyses."""
    return sum(getattr(o, field) for o in outcomes if o.final)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def span_metrics(paths):
    """calls, inclusive seconds (outermost span of each name only, so
    recursion is not counted twice) and self seconds per span name, summed
    over the analyses of one pass."""
    names = traced.span_names()
    calls = dict.fromkeys(names, 0)
    incl = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    for path in paths:
        header, parent, name, outer, start, end = traced.load_spans(path)
        ids = header["names"]
        n = header["spans"]
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        for i in range(n):
            key = ids[name[i]]
            calls[key] += 1
            own[key] += dur[i] - child[i]
            if outer[i]:
                incl[key] += dur[i]
    out = {}
    for key in names:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.s"] = incl[key]
        out[f"{key}.self_s"] = own[key]
    return out


def count_metrics(paths):
    total = {}
    precision = 0
    for path in paths:
        with open(path) as fh:
            counts = json.load(fh)["counts"]
        precision = max(precision, counts.pop("precision_exp.max"))
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    out = {stem + ".calls": total[stem] for stem in traced.SCALAR_OPS}
    out["hopf.verify_hopf.repeat_calls"] = total["verify_hopf.repeat_calls"]
    out["wedderburn.central_primitive_idempotents.repeat_calls"] = \
        total["central_primitive_idempotents.repeat_calls"]
    out["wedderburn.blocks"] = total["blocks"]
    out["wedderburn.precision_exp.max"] = precision
    recon = total["modular.reconstruct_element"]
    out["modular.reconstruct.useful_ratio"] = \
        total["blocks"] / recon if recon else 0.0
    return out


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def environment(env):
    """Scalar backend and Python version (from the set-up interpreter),
    CPUs, commit and a digest of the program's sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "frobdiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return dict(env, nproc=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)),
                platform=platform.platform(), commit=commit,
                src_sha256=digest.hexdigest())


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def format_metrics(declared, values):
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = set(values) - {m["name"] for m in declared} - set(PRINTED_ONLY)
    if missing or extra:
        raise BenchError(f"metrics do not match BENCHMARK.json: missing "
                         f"{missing}, undeclared {sorted(extra)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run(workload, seed, seconds, trace, work):
    bench = Bench(workload, seed, seconds, work)
    bench.setup()
    env = environment(bench.env)
    print(f"frobdiv benchmark: workload {workload}, seed {seed}, "
          f"trace {trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    passes, values = bench.measure_layers() if trace else bench.measure()
    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.error)
    for o in outcomes:
        print(f"analysis {o.name}: {o.wall:.3f} s, {o.cpu:.3f} s CPU, "
              f"{o.paced:.3f} s paced, {o.rss_mb:.1f} MB, "
              + (f"FAILED: {o.error}" if o.error else "ok"))
    result = {"correct": not any(o.wrong for o in outcomes),
              "attempted": len(outcomes), "failed": failed,
              "metrics": format_metrics(declared_metrics(trace), values)}
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, unit in PRINTED_ONLY.items():
        if name in values:
            print(f"{name} = {values[name]:.6g} {unit} "
                  "(not in BENCHMARK.json)")
    print(f"failed_frac = {failed}/{len(outcomes)} = "
          f"{failed / len(outcomes):.3g}")
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  env=env, analyses=[[o.name, o.wall, o.cpu, o.paced,
                                      o.error]
                                     for o in outcomes])
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"{workload}-seed{seed}-trace{trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def smoke(work):
    """kS3 end to end and traced, plus relabelling invariance."""
    problems = []
    for trace in (0, 1):
        # two seeds: the oracle's invariants must survive relabelling
        result = run("smoke", 1 + trace, 0, trace, work / f"trace{trace}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: {result['failed']} analyses "
                            "failed")
    base = inputs.build_doc(inputs.WORKLOADS["smoke"][0].doc)
    docs = [inputs.seeded_doc(inputs.WORKLOADS["smoke"][0].doc, base, s)
            for s in (1, 2)]
    if docs[0] == docs[1]:
        problems.append("seeds 1 and 2 gave the same document")
    perm = list(range(base["dim"]))[::-1]
    back = inputs.relabel(inputs.relabel(base, perm), perm)
    if json.dumps(back, sort_keys=True) != json.dumps(
            inputs.relabel(base, list(range(base["dim"]))), sort_keys=True):
        problems.append("relabelling twice by an involution is not the "
                        "identity")
    for problem in problems:
        print("smoke: " + problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="frobdiv benchmark")
    measured = sorted(w for w in inputs.WORKLOADS if w != "smoke")
    ap.add_argument("--workload", choices=measured + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check the benchmark itself on kS3 and exit")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not (SRC / "frobdiv" / "cli.py").is_file():
        print(f"frobdiv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    label = "smoke" if args.smoke else f"{args.workload}-{args.seed}"
    work = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    try:
        if args.smoke:
            return smoke(work)
        names = measured if args.workload == "all" else [args.workload]
        results = {w: run(w, args.seed, args.seconds, args.trace, work / w)
                   for w in names}
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, result in results.items():
        for name, m in result["metrics"].items():
            print(f"{w:14} {name:24} {m['value']:12.6g} {m['unit']}")
        print(f"{w:14} {'failed_frac':24} {result['failed']:>12}/"
              f"{result['attempted']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

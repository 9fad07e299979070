"""Run a Python program while a probe thread measures the host's pace.

    python3 perfbench/pace.py --out pace.json -- -m frobdiv.cli analyze ...
    python3 perfbench/pace.py --out pace.json -- perfbench/inputs.py ...

On a shared host the same interpreted work can take from 1.1 to 1.9 times
its quickest CPU time, changing from one second to the next.  The likely
cause is other guests' work on the same core, which slows every
instruction; no CPU clock leaves that out.  So while the program runs, a
thread of its own process wakes every ``PERIOD_S``, times ``reference()``
(a fixed loop of rational arithmetic and dict updates, like the program's
own inner loops) on its thread CPU clock, and sleeps again.  The mean of those times is the pace
the program ran at.  When the program ends, however it ends, ``--out``
gets the probe's own CPU seconds (to take out of the process's), its
samples and their mean.  The program's exit code and output are its own.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import threading
import time
from fractions import Fraction

PERIOD_S = 0.02          # probe wakes this often (wall clock)
LOOP = 120               # iterations of the reference loop, about 1 ms


def reference():
    acc = Fraction(0)
    table = {}
    for i in range(1, LOOP + 1):
        x = Fraction(i, i + 3)
        acc = acc * x + Fraction(1, i)
        table[i % 7] = table.get(i % 7, 0) + acc.numerator % 1009
    return acc, table


class Probe:
    """Samples of ``reference`` thread CPU time, taken until ``stop``."""

    def __init__(self):
        self.samples = []
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.cpu_s = 0.0           # the probe thread's own CPU time

    def start(self):
        self._thread.start()

    def _run(self):
        begin = time.thread_time()
        while not self._halt.wait(PERIOD_S):
            t0 = time.thread_time()
            reference()
            self.samples.append(time.thread_time() - t0)
        self.cpu_s = time.thread_time() - begin

    def stop(self):
        self._halt.set()
        self._thread.join()

    def dump(self, path):
        mean = sum(self.samples) / len(self.samples) if self.samples \
            else None
        with open(path, "w") as fh:
            json.dump({"probe_cpu_s": self.cpu_s, "samples": len(self.samples),
                       "reference_mean_s": mean}, fh)


def main():
    argv = sys.argv[1:]
    if len(argv) < 4 or argv[0] != "--out" or argv[2] != "--":
        print("usage: pace.py --out FILE -- (-m MODULE | SCRIPT) ARGS...",
              file=sys.stderr)
        return 2
    out, target = argv[1], argv[3:]
    probe = Probe()
    probe.start()
    try:
        if target[0] == "-m":
            sys.argv = [target[1], *target[2:]]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
            runpy.run_path(target[0], run_name="__main__")
    finally:
        probe.stop()
        probe.dump(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

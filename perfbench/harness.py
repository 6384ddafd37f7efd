"""End-to-end run: a closed loop of `snpkit` CLI invocations.

One client starts each query as a fresh interpreter (start-up included)
only after the previous one has exited.  Every output is checked by the
oracles; times, exit status and resource use come from ``os.wait4``.
Times are reported at a fixed calibration speed (see CALIBRATION).
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import oracles

QUERY_TIMEOUT_S = 60.0
SETUP_EVERY = 8  # a bare `import snpkit.cli` and a calibration before every eighth query

# A fresh interpreter importing the standard modules snpkit's CLI imports,
# but not snpkit itself: its wall time tracks how fast the host starts
# Python and runs import-heavy code at the moment, and no change to snpkit
# moves it.  Shared hosts drift by tens of percent within minutes, so
# times are reported in seconds at the calibration speed below, which is
# the job's median on the host the bounds were set on (2-vCPU Xeon,
# CPython 3.11).  The raw wall times are logged alongside.
IMPORTER = ["-c", "import snpkit.cli"]  # the start-up every query pays
CALIBRATION = ["-c", "import argparse, dataclasses, fractions, functools, itertools, json, random, re"]
CALIBRATION_REF_S = 0.08


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout


@dataclass
class Result:
    wall: float
    code: int | None  # None: timed out
    out: str
    err: str
    maxrss_kb: int


class Runner:
    """Starts one child at a time; stdout and stderr go to files so that a
    large output cannot block the child."""

    def __init__(self, root: str, work: str):
        self.root = root
        # no inherited PYTHON* setting may change how the children start
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"),
            PYTHONHASHSEED="0",
        )
        self._out = open(os.path.join(work, "stdout"), "w+b")
        self._err = open(os.path.join(work, "stderr"), "w+b")

    def close(self):
        self._out.close()
        self._err.close()

    def run(self, args: list[str], timeout: float = QUERY_TIMEOUT_S) -> Result:
        for fh in (self._out, self._err):
            fh.seek(0)
            fh.truncate()
        old = signal.signal(signal.SIGALRM, _alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=self._out,
            stderr=self._err,
            env=self.env,
            cwd=self.root,
        )
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall, code = time.perf_counter() - t0, None
        finally:
            signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        out, err = (self._read(fh) for fh in (self._out, self._err))
        return Result(wall, code, out, err, usage.ru_maxrss)

    @staticmethod
    def _read(fh) -> str:
        fh.flush()
        fh.seek(0)
        return fh.read().decode("utf-8", "replace")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; failed queries are +inf."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def classify(oracle, q, path: str, res: Result) -> tuple[bool, bool, str | None]:
    """(failed, wrong answer, reason).  A crash, timeout or undocumented
    exit code fails the query; output the oracle rejects is also a wrong
    answer."""
    if res.code is None:
        return True, False, "timeout"
    if "Traceback (most recent call last)" in res.err:
        return True, False, f"traceback (exit {res.code}): {res.err.strip().splitlines()[-1]}"
    if res.code not in oracles.DOCUMENTED_EXITS:
        return True, False, f"undocumented exit code {res.code}"
    reason = oracle.check(q, path, res.code, res.out, res.err)
    return reason is not None, reason is not None, reason


def run(wl, oracle, paths: dict[str, str], root: str, work: str, seconds: float, log) -> dict:
    runner = Runner(root, work)
    try:
        runner.run(IMPORTER)  # fills the bytecode cache
        # spread over the run, so that a burst of noise hits few samples
        setup: list[float] = []
        calibration: list[float] = []
        samples: list[float] = []
        passes: list[float] = []
        by_case: dict[str, list[float]] = {}
        attempted = failed = wrong = 0
        peak_kb = 0
        t0 = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            pass_wall = 0.0
            for i, q in enumerate(wl.queries):
                if i % SETUP_EVERY == 0:
                    setup.append(runner.run(IMPORTER).wall)
                    calibration.append(runner.run(CALIBRATION).wall)
                res = runner.run(["-m", "snpkit.cli", *q.argv(paths[q.file])])
                attempted += 1
                pass_wall += res.wall
                peak_kb = max(peak_kb, res.maxrss_kb)
                bad, wrong_answer, reason = classify(oracle, q, paths[q.file], res)
                failed += bad
                wrong += wrong_answer
                if bad:
                    log(f"FAIL {q.case} {' '.join(q.argv(paths[q.file]))}: {reason}")
                samples.append(math.inf if bad else res.wall)
                by_case.setdefault(q.case, []).append(math.inf if bad else res.wall)
            passes.append(pass_wall)
            now = time.perf_counter()
            if now - t0 + (now - pass_start) > seconds:
                break
    finally:
        runner.close()

    for case in sorted(by_case):
        xs = by_case[case]
        log(f"case {case:<28} n={len(xs):<4} median {statistics.median(xs):.4f} s")
    p90 = percentile(samples, 0.9)
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "query_p50_s": percentile(samples, 0.5),
        "query_p90_s": p90,
    }
    calib = statistics.median(calibration)
    scale = CALIBRATION_REF_S / calib
    log(
        f"{len(passes)} pass(es) of {len(wl.queries)} queries: {len(samples)} latency samples, "
        f"{sum(x > p90 for x in samples)} beyond p90; setup_s is the median of {len(setup)}"
    )
    log(
        f"calibration median {calib:.4f} s of {len(calibration)} (reference {CALIBRATION_REF_S} s); "
        "raw wall times: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())
    )
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics.update({
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    })
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

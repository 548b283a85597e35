#!/usr/bin/env python3
"""Campaign benchmark for meanineq: microseconds per trial on four workloads.

Run from the repository root:

    python3 bench/run.py --workload num-mixed --seed 1 --trace 0
    python3 bench/run.py --workload all

Every campaign is ``run_campaign(config, workers)`` followed by
``emit_report(summary, "json")``, which is what ``meanineq campaign`` does
after start-up, run in a closed loop: the next campaign starts when the
previous one has finished.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run that reports per-layer metrics from spans
recorded around the package's public functions (see ``spans.py``).  Each
run checks the campaign outputs; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md beside this file for the metrics, their layers and the
reasons for each workload.
"""

from __future__ import annotations

import os

#: Pool threads times BLAS threads must stay within nproc; the largest pool
#: here has two workers, so BLAS runs single-threaded.  Set before numpy loads,
#: in this process and (through the environment) in every child it starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CONCAVE = ("arithmetic", "wyd:0.25", "geometric", "harmonic", "logarithmic")
VIOLATOR = "counterexample-g"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25

#: Fresh interpreters timed for setup_s (after one untimed one that fills
#: the bytecode and file caches); the median is reported.
SETUP_REPEATS = 7

#: Share of --seconds for each phase of a traced run.
TRACE_SHARES = {"serial": 0.3, "pool": 0.3, "traced": 0.4}

#: The host's speed drifts: the same campaign's median time moves by about 10%
#: between runs a minute apart, and by more while the hypervisor steals CPU.
#: So every timed campaign, and every setup interpreter, is paired with a fixed
#: reference loop run just before it, and its time is reported scaled to a
#: reference speed: measured time x nominal loop time / the paired loop's time.
#: Wall times are paired with the loop run on as many threads as the campaign
#: pool has, so that the loop meets the same interpreter-lock handoffs; CPU
#: times (which exclude stolen time) with the loop's CPU time per thread.  The
#: nominal times are the loop's medians on the 2-core x86-64 VM the bounds were
#: set on (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread), so
#: scaled and raw times agree there; raw times are printed too.
REFERENCE_WALL_S = {1: 0.0033, 2: 0.0060}
REFERENCE_CPU_S = 0.0033

#: The reference loop's fixed matrix, and numpy's eigh taken before a traced
#: run patches it, so that the trace never sees the loop.
_REFERENCE_MATRIX = numpy.cov(numpy.random.default_rng(0).normal(size=(48, 96)))
_EIGH = numpy.linalg.eigh

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from meanineq.campaign import parse_campaign_config, run_campaign
from meanineq.cli import emit_report
emit_report(run_campaign(parse_campaign_config(sys.argv[2]), int(sys.argv[3])), "json")
"""


@dataclass(frozen=True)
class Workload:
    """One campaign shape, run as ``campaigns`` configs that differ only by seed.

    Spreading a run over several seeds averages out how much work the sampled
    instances happen to need; repeating each config and taking its median time
    averages out the machine.
    """

    mode: str
    functions: tuple[str, ...]
    trials: int  # per function, per campaign
    campaigns: int
    dims: tuple[int, int]
    atoms: tuple[int, int]
    workers: int

    def config_text(self, seed: int, trials: int | None = None) -> str:
        return (
            f"mode = {self.mode}\n"
            f"functions = {', '.join(self.functions)}\n"
            f"trials = {self.trials if trials is None else trials}\n"
            f"dims = {self.dims[0]}-{self.dims[1]}\n"
            f"atoms = {self.atoms[0]}-{self.atoms[1]}\n"
            f"seed = {seed}\n"
        )

    def seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.campaigns)]


WORKLOADS = {
    # Per-atom Python loops in verify and the positivity checks in functions;
    # counterexample-g violates, so the worst-case rebuild and serialization run.
    "num-mixed": Workload("num", CONCAVE + (VIOLATOR,), 100, 4, (2, 6), (1, 12), 1),
    # Tiny matrices: Python overhead in validation and the perspective kernel.
    "op-small": Workload("op", CONCAVE, 40, 8, (2, 6), (1, 12), 1),
    # Same path, but LAPACK eigensolves dominate.
    "op-large": Workload("op", CONCAVE, 12, 8, (48, 64), (1, 12), 1),
    # Per-atom sampling and re-validation; the only workload through the pool.
    "rm-atoms": Workload("rm", CONCAVE, 6, 48, (2, 6), (1, 12), 2),
}


class Ledger:
    """Campaigns attempted and failed (raised, or failed the output check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)


def _reference_work() -> None:
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(3):
        _EIGH(_REFERENCE_MATRIX)


def reference_loop(threads: int) -> tuple[float, float]:
    """Wall seconds of the reference work run on ``threads`` threads at once,
    and CPU seconds per thread."""
    others = [threading.Thread(target=_reference_work) for _ in range(threads - 1)]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for t in others:
        t.start()
    _reference_work()
    for t in others:
        t.join()
    return time.perf_counter() - wall0, (time.process_time() - cpu0) / threads


@dataclass(frozen=True)
class Timing:
    """Per-trial times of some passes: scaled to the reference speed, and raw."""

    wall_us: float
    cpu_us: float
    raw_wall_us: float
    raw_cpu_us: float
    passes: int


def cpu_seconds() -> float:
    """CPU time of this process (all threads) plus its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def load_package():
    if not (SRC / "meanineq" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'meanineq'} not found; run from a meanineq checkout")
    sys.path.insert(0, str(SRC))
    import meanineq.campaign
    import meanineq.cli
    import meanineq.errors
    import meanineq.functions
    import meanineq.verify

    return meanineq


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}
    for lib in sorted(p for p in libs if p.startswith("/")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "blas_thread_setting": " ".join(f"{v}=1" for v in BLAS_THREAD_VARS) + " before numpy import",
        "nproc": nproc,
        "pool_workers": workers,
        "threads_within_nproc": workers * (threads or 1) <= nproc,
        "loadavg_start": list(os.getloadavg()),
    }


def check_output(pkg, text: str, wl: Workload) -> str | None:
    """The campaign output check; returns a problem, or None when it passes."""
    try:
        doc = json.loads(text)
        expected = len(wl.functions) * wl.trials
        per = doc["per_function"]
        if doc["trials"] != expected or list(per) != list(wl.functions):
            return f"trials {doc['trials']} over {list(per)}, expected {expected} over {list(wl.functions)}"
        if sum(st["trials"] for st in per.values()) != expected:
            return "per-function trials do not add up to the total"
        tol = doc["tol"]
        for fid, st in per.items():
            if fid == VIOLATOR:
                if st["violations"] < 1:
                    return f"{fid} did not violate"
            elif st["violations"] != 0 or st["worst_gap"] < -tol:
                return f"concave {fid} violated: {st['violations']} violations, worst gap {st['worst_gap']!r}"
        case = doc.get("worst_case")
        if VIOLATOR not in wl.functions:
            return None if case is None else "worst_case present without violations"
        if case is None or case["function"] != VIOLATOR:
            return "worst_case missing or not from the violating function"
        space = pkg.verify.scalar_space(case["space"]["atoms"])
        gap = pkg.verify.verify_numeric(space, pkg.functions.get_function(VIOLATOR), tol).gap
        if gap != doc["worst_gap"]:
            return f"worst_case replays to gap {gap!r}, reported {doc['worst_gap']!r}"
    except (ValueError, KeyError, TypeError, pkg.errors.MeanIneqError) as exc:
        return f"malformed campaign output: {exc!r}"
    return None


class Runner:
    """Runs campaigns for one workload and keeps their times and outputs."""

    def __init__(self, pkg, wl: Workload, seed: int, ledger: Ledger) -> None:
        self.pkg, self.wl, self.ledger = pkg, wl, ledger
        self.configs = [pkg.campaign.parse_campaign_config(wl.config_text(s)) for s in wl.seeds(seed)]
        self.reference: list[str | None] = [None] * len(self.configs)
        self.last_bytes = 0

    def campaign(self, i: int, workers: int) -> tuple[float, float, float, float] | None:
        """The reference loop, then one campaign plus emit.

        Returns the campaign's wall and CPU seconds and the loop's, or None if
        the campaign failed.
        """
        self.ledger.attempted += 1
        pkg = self.pkg
        ref_wall, ref_cpu = reference_loop(workers)
        try:
            wall0, cpu0 = time.perf_counter(), cpu_seconds()
            text = pkg.cli.emit_report(pkg.campaign.run_campaign(self.configs[i], workers), "json")
            wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        except Exception:
            self.ledger.fail(f"campaign {i} (workers={workers}) raised:\n{traceback.format_exc()}")
            return None
        self.last_bytes = len(text.encode())
        if self.reference[i] is None:
            problem = check_output(pkg, text, self.wl)
            if problem is not None:
                self.ledger.fail(f"campaign {i}: {problem}")
                return None
            self.reference[i] = text
        elif text != self.reference[i]:
            self.ledger.fail(f"campaign {i} (workers={workers}): output differs from its first run")
            return None
        return wall, cpu, ref_wall, ref_cpu

    def passes(self, workers: int, seconds: float, after_each=None) -> Timing:
        """Whole passes over the configs until ``seconds`` have gone (at least one).

        Each time per trial is the sum over configs of the config's median time
        over its passes, divided by the trials.
        """
        samples: list[list[tuple]] = [[] for _ in self.configs]
        deadline = time.perf_counter() + seconds
        count = 0
        while count == 0 or time.perf_counter() < deadline:
            for i in range(len(self.configs)):
                timing = self.campaign(i, workers)
                if after_each is not None:
                    after_each()
                if timing is not None:
                    samples[i].append(timing)
            count += 1
        done = [s for s in samples if s]
        trials = len(done) * len(self.wl.functions) * self.wl.trials

        def per_trial_us(seconds_of) -> float:
            if not trials:
                return float("nan")
            return sum(statistics.median(seconds_of(*x) for x in s) for s in done) / trials * 1e6

        return Timing(
            wall_us=per_trial_us(lambda wall, cpu, ref_wall, ref_cpu: wall / ref_wall * REFERENCE_WALL_S[workers]),
            cpu_us=per_trial_us(lambda wall, cpu, ref_wall, ref_cpu: cpu / ref_cpu * REFERENCE_CPU_S),
            raw_wall_us=per_trial_us(lambda wall, cpu, ref_wall, ref_cpu: wall),
            raw_cpu_us=per_trial_us(lambda wall, cpu, ref_wall, ref_cpu: cpu),
            passes=count,
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.reference:
            h.update((text or "").encode())
        return h.hexdigest()


def setup_seconds(wl: Workload, seed: int, ledger: Ledger) -> tuple[float, float, float]:
    """CPU seconds (user + system) of a fresh interpreter running a one-trial
    campaign, median over the probes: scaled, raw; and the raw median wall time."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), wl.config_text(wl.seeds(seed)[0], trials=1), str(wl.workers)]
    scaled, raw, walls = [], [], []
    for rep in range(SETUP_REPEATS + 1):
        ledger.attempted += 1
        ref_cpu = statistics.median(reference_loop(1)[1] for _ in range(5))
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
        if proc.returncode != 0:
            ledger.fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        elif rep > 0:
            scaled.append(cpu / ref_cpu * REFERENCE_CPU_S)
            raw.append(cpu)
            walls.append(wall)
    if not raw:
        return float("nan"), float("nan"), float("nan")
    return statistics.median(scaled), statistics.median(raw), statistics.median(walls)


def end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float, ledger: Ledger) -> dict:
    setup, raw_setup, setup_wall = setup_seconds(wl, seed, ledger)
    runner.campaign(0, wl.workers)  # warm-up, untimed
    timing = runner.passes(wl.workers, seconds)
    print(f"timed: {timing.passes} passes x {len(runner.configs)} campaigns, workers={wl.workers}")
    print(f"raw: trial_us {timing.raw_wall_us:.6g}  cpu_trial_us {timing.raw_cpu_us:.6g}  setup_s {raw_setup:.6g} (wall {setup_wall:.6g})")
    if wl.workers != 1:
        for i in range(len(runner.configs)):  # outputs must not depend on the worker count
            runner.campaign(i, 1)
    return {
        "trial_us": (timing.wall_us, "us"),
        "cpu_trial_us": (timing.cpu_us, "us"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: Runner, wl: Workload, seconds: float) -> dict:
    import spans

    runner.campaign(0, wl.workers)  # warm-up, untimed
    serial = runner.passes(1, seconds * TRACE_SHARES["serial"])
    pool = runner.passes(2, seconds * TRACE_SHARES["pool"])
    tracer = spans.Tracer()
    emitted = []
    with spans.installed(tracer):
        traced = runner.passes(
            1, seconds * TRACE_SHARES["traced"], after_each=lambda: (tracer.drain(), emitted.append(runner.last_bytes))
        )
    trials = len(tracer.trial_ns)
    print(f"traced: {traced.passes} passes x {len(runner.configs)} campaigns, {trials} trials, {tracer.atoms / trials} atoms per trial")
    print(f"trial_us (scaled): workers=1 {serial.wall_us:.6g}  workers=2 {pool.wall_us:.6g}  traced {traced.wall_us:.6g}")
    metrics = tracer.layer_metrics(campaigns=len(emitted))
    metrics["cli.emit.bytes"] = (statistics.mean(emitted), "bytes")
    metrics["campaign.pool.speedup"] = (serial.wall_us / pool.wall_us, "x")
    metrics["trace.overhead_frac"] = (traced.wall_us / serial.wall_us - 1.0, "fraction")
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    pkg = load_package()
    wl = WORKLOADS[workload]
    ledger = Ledger()
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {trace}")
    print(f"config: {wl}")
    print(f"campaign seeds: {wl.seeds(seed)}")
    print("env: " + json.dumps(environment(wl.workers)))
    runner = Runner(pkg, wl, seed, ledger)
    if trace:
        metrics = per_layer(runner, wl, seconds)
    else:
        metrics = end_to_end(runner, wl, seed, seconds, ledger)
    correct = ledger.failed == 0 and None not in runner.reference
    print(f"loadavg_end: {list(os.getloadavg())}")
    print(f"output_sha256: {runner.digest()}")
    print(f"check: {'ok' if correct else 'FAILED'}  error_rate: {ledger.failed / ledger.attempted} ({ledger.failed} of {ledger.attempted} campaigns and setup probes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
    print("\nworkload   metric                                       value  unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:36s} {m['value']:14.6g}  {m['unit']}")
        print(f"{name:10s} {'error_rate':36s} {res['failed'] / res['attempted']:14.6g}  fraction  (check {'ok' if res['correct'] else 'FAILED'})")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

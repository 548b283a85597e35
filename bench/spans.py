"""Outside-in span tracing for the campaign benchmark.

A traced run replaces public functions of ``meanineq``, and numpy's
symmetric eigensolvers, by recording wrappers in every module that holds a
reference to them.  Python resolves module globals at call time, so calls
made inside the package go through the wrappers and the package itself is
not modified.  Spans ``(name, start, end, parent)`` stay in memory until
:meth:`Tracer.drain` folds them into per-name totals; a span's self time is
its duration minus the durations of its direct children.

The span stack is shared, so traced campaigns must run with ``workers=1``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

#: (span name, module, attribute) of every boundary the trace records.
TARGETS = (
    ("campaign.run_campaign", "meanineq.campaign", "run_campaign"),
    ("campaign.trial", "meanineq.campaign", "_run_trial"),
    ("campaign.worst_case", "meanineq.campaign", "_worst_case_payload"),
    ("cli.emit_report", "meanineq.cli", "emit_report"),
    ("sampling.split_rng", "meanineq.sampling", "split_rng"),
    ("campaign.sample_scalar_space", "meanineq.campaign", "sample_scalar_space"),
    ("campaign.sample_operator_triple", "meanineq.campaign", "sample_operator_triple"),
    ("campaign.sample_matrix_space", "meanineq.campaign", "sample_matrix_space"),
    ("sampling.sample_spd", "meanineq.sampling", "sample_spd"),
    ("sampling.sample_density", "meanineq.sampling", "sample_density"),
    ("linalg.sym_matrix", "meanineq.linalg", "sym_matrix"),
    ("sampling.check_density", "meanineq.sampling", "check_density"),
    ("verify.matrix_space", "meanineq.verify", "matrix_space"),
    ("verify.scalar_space", "meanineq.verify", "scalar_space"),
    ("linalg.min_eigenvalue", "meanineq.linalg", "min_eigenvalue"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("operator_means.operator_mean", "meanineq.operator_means", "operator_mean"),
    ("operator_means.operator_perspective", "meanineq.operator_means", "operator_perspective"),
    ("functions.mean_num", "meanineq.functions", "mean_num"),
    ("verify.verify_numeric", "meanineq.verify", "verify_numeric"),
    ("verify.verify_operator", "meanineq.verify", "verify_operator"),
    ("verify.verify_random_matrix", "meanineq.verify", "verify_random_matrix"),
)

NAMES = tuple(name for name, _, _ in TARGETS)
TRIAL = NAMES.index("campaign.trial")

#: Spans whose self time makes up each timed layer.
DRAW = (
    "campaign.sample_scalar_space",
    "campaign.sample_operator_triple",
    "campaign.sample_matrix_space",
    "sampling.sample_spd",
    "sampling.sample_density",
)
VALIDATE = (
    "linalg.sym_matrix",
    "sampling.check_density",
    "verify.matrix_space",
    "verify.scalar_space",
    "linalg.min_eigenvalue",
)
EIGEN = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
PERSPECTIVE = ("operator_means.operator_mean", "operator_means.operator_perspective")
VERIFY = ("verify.verify_numeric", "verify.verify_operator", "verify.verify_random_matrix")
CAMPAIGN = ("campaign.run_campaign", "campaign.trial")


class Tracer:
    """In-memory span recorder with per-name totals."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.calls = [0] * len(NAMES)
        self.incl_ns = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.trial_ns: list[int] = []
        self.atoms = 0

    def wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (idx, start, end, stack[-1] if stack else -1)
            if idx == TRIAL:
                self.atoms += result.atoms
            return result

        return traced

    def drain(self) -> None:
        """Fold the recorded spans into the totals and forget them."""
        if self._stack:
            raise RuntimeError("cannot drain spans while a traced call is open")
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (idx, start, end, _) in enumerate(self.spans):
            dur = end - start
            self.calls[idx] += 1
            self.incl_ns[idx] += dur
            self.self_ns[idx] += dur - child[i]
            if idx == TRIAL:
                self.trial_ns.append(dur)
        self.spans.clear()

    def _total(self, table, names) -> int:
        return sum(table[NAMES.index(n)] for n in names)

    def layer_metrics(self, campaigns: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures: per trial unless the unit says otherwise."""
        trials = len(self.trial_ns)

        def us(table, *names):
            return self._total(table, names) / trials / 1e3

        def calls(*names):
            return self._total(self.calls, names)

        def ms_per_campaign(name):
            return self._total(self.incl_ns, [name]) / campaigns / 1e6

        perspective_calls = calls("operator_means.operator_perspective")
        perspective_us = self._total(self.self_ns, PERSPECTIVE) / perspective_calls / 1e3 if perspective_calls else 0.0
        ordered = sorted(self.trial_ns)
        return {
            "sampling.split_rng.us": (us(self.incl_ns, "sampling.split_rng"), "us"),
            "sampling.draw.us": (us(self.self_ns, *DRAW), "us"),
            "sampling.sample_spd.calls": (calls("sampling.sample_spd") / trials, "count"),
            "validate.us": (us(self.self_ns, *VALIDATE), "us"),
            "linalg.sym_matrix.calls": (calls("linalg.sym_matrix") / trials, "count"),
            "sampling.check_density.calls": (calls("sampling.check_density") / trials, "count"),
            "linalg.eigensolves": (calls(*EIGEN) / trials, "count"),
            "linalg.eigh.calls_per_atom": (calls("numpy.linalg.eigh") / self.atoms, "count"),
            "linalg.eigvalsh.calls_per_atom": (calls("numpy.linalg.eigvalsh") / self.atoms, "count"),
            "linalg.eigen.us": (us(self.incl_ns, *EIGEN), "us"),
            "operator_means.perspective.us": (perspective_us, "us"),
            "operator_means.operator_mean.calls": (calls("operator_means.operator_mean") / trials, "count"),
            "functions.mean_num.calls": (calls("functions.mean_num") / trials, "count"),
            "functions.mean_num.us": (us(self.incl_ns, "functions.mean_num"), "us"),
            "verify.self.us": (us(self.self_ns, *VERIFY), "us"),
            "campaign.self.us": (us(self.self_ns, *CAMPAIGN), "us"),
            "campaign.worst_case.ms": (ms_per_campaign("campaign.worst_case"), "ms"),
            "cli.emit.ms": (ms_per_campaign("cli.emit_report"), "ms"),
            "trial.p50_us": (statistics.median(ordered) / 1e3, "us"),
            "trial.p99_us": (ordered[min(trials - 1, int(0.99 * trials))] / 1e3, "us"),
        }


@contextmanager
def installed(tracer: Tracer):
    """Route every target through ``tracer`` for the duration of the block."""
    modules = [
        m for name, m in list(sys.modules.items()) if name == "meanineq" or name.startswith("meanineq.")
    ]
    undo = []
    try:
        for idx, (_, home_name, attr) in enumerate(TARGETS):
            home = sys.modules[home_name]
            original = getattr(home, attr)
            wrapped = tracer.wrap(idx, original)
            for mod in modules if home_name.startswith("meanineq.") else [home]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for mod, key, value in reversed(undo):
            setattr(mod, key, value)

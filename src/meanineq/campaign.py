"""Seeded verification campaigns and random violation search.

A campaign draws instances (finite spaces, state/observable triples, or
random-matrix spaces), runs the matching verifier on each, and aggregates
counts and extremes.  Trial k of function j always draws the stream of
``split_rng(seed, j, k)``, so replays are bit-identical, and the worst case is
rebuilt from its (function, trial) coordinates rather than stored.  A campaign
does not build that generator per trial: it keeps one Philox generator and,
before each trial's draw, reseeds it with the trial's exact ``SeedSequence``
key, derived for up to KEY_CHUNK consecutive (function, trial) pairs at once
by ``sampling.philox_keys``.  Samples are valid by construction, so samplers
build trusted spaces directly.  Trials run in-process, in order: threads would
serialize on the interpreter lock.

Samplers build each space from the arrays they draw: ``p``, ``x`` and ``y``
vectors for scalar trials, and for matrix trials ``(k, n, n)`` stacks drawn in
one call, in per-atom (rho, X, Y) order, so the stream is the one of drawing
them matrix by matrix.

Trials are evaluated in blocks of consecutive trials of one function; a block
ends at the function's last trial or once its spaces hold BLOCK_ELEMENTS
values of x.  Sampling is unchanged (each trial still draws from its own
stream), but ``verify.block_sides`` evaluates the whole block at once: one
perspective kernel per matrix dimension in the block, or one scalar-mean call,
then the weighted sums of all its trials as padded arrays, one rhs call and
array-wide floor and finiteness checks.  Every trial's lhs and rhs have the
bits of verifying its space alone.  The aggregation keeps each trial's gap as
a float and its verdict from ``classify_gap``; no per-trial report is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .functions import RepresentingFunction, get_function
from .linalg import MAX_DIM
from .operator_means import MATRIX_TOL, OperatorMeanSpec
from .reports import VERDICT_VIOLATED, InequalityReport, classify_gap
from .sampling import philox_keys, reseed, sample_atom_stacks, split_rng
from .verify import (
    SCALAR_TOL,
    FiniteJointSpace,
    block_sides,
    construct_counterexample,
    space_to_jsonable,
    verify_numeric,
)

MODES = ("num", "op", "rm")

#: Scalar-instance sampler range: values are log-uniform on [1/16, 16].
VALUE_LOG2_RANGE = 4.0

#: A block of trials is evaluated once its spaces hold this many values of x
#: (one 64 x 64 matrix), which bounds the memory of its stacks.
BLOCK_ELEMENTS = 4096

#: Trial keys are derived this many (function, trial) pairs at a time, in
#: campaign order and across function boundaries: 64 KB of keys.
KEY_CHUNK = 4096

DEFAULT_DIMS = (2, 6)
DEFAULT_ATOMS = (1, 12)


@dataclass(frozen=True)
class CampaignConfig:
    mode: str
    functions: tuple[str, ...]
    trials: int
    dims: tuple[int, int] = DEFAULT_DIMS
    atoms: tuple[int, int] = DEFAULT_ATOMS
    tol: float | None = None
    seed: int = 0

    def resolved_tol(self) -> float:
        if self.tol is not None:
            return float(self.tol)
        return SCALAR_TOL if self.mode == "num" else MATRIX_TOL


@dataclass(frozen=True)
class FunctionStats:
    trials: int
    violations: int
    worst_gap: float | None
    max_abs_gap: float | None


@dataclass(frozen=True)
class CampaignSummary:
    mode: str
    functions: tuple[str, ...]
    trials: int
    violations: int
    worst_gap: float | None
    worst_case: dict | None
    per_function: dict[str, FunctionStats]
    tol: float
    seed: int
    dims: tuple[int, int]
    atoms: tuple[int, int]


def validate_config(config: CampaignConfig) -> None:
    """Reject a bad configuration before any trial runs."""
    if config.mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {config.mode!r}")
    if not config.functions:
        raise UsageError("campaign needs at least one function id")
    for i, fid in enumerate(config.functions):
        if fid in config.functions[:i]:
            raise UsageError(f"function id {fid!r} is listed more than once")
        f = get_function(fid)
        if config.mode in ("op", "rm"):
            OperatorMeanSpec(f)
    if config.trials < 0:
        raise UsageError(f"trials must be >= 0, got {config.trials!r}")
    if config.seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {config.seed!r}")
    lo, hi = config.dims
    if not (1 <= lo <= hi <= MAX_DIM):
        raise UsageError(f"dims range must satisfy 1 <= min <= max <= {MAX_DIM}, got {config.dims!r}")
    lo, hi = config.atoms
    if not (1 <= lo <= hi):
        raise UsageError(f"atoms range must satisfy 1 <= min <= max, got {config.atoms!r}")
    if config.tol is not None and not 0.0 < config.tol < float("inf"):
        raise UsageError(f"tol must be finite and positive, got {config.tol!r}")


def _parse_range(value: str, key: str) -> tuple[int, int]:
    parts = value.split("-")
    if len(parts) <= 2:
        try:
            return int(parts[0]), int(parts[-1])
        except ValueError:
            pass
    raise UsageError(f"config key {key!r} needs 'min-max' or a single integer, got {value!r}")


def parse_campaign_config(text: str) -> CampaignConfig:
    """Parse the flat key=value config format.

    Keys: mode (num|op|rm), functions (comma list of function ids), trials,
    dims (min-max), atoms (min-max), tol, seed.  Lines starting with ``#``
    are comments.
    """
    fields: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"config line {ln!r} is not 'key = value'")
        key, _, value = ln.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise UsageError(f"duplicate config key {key!r}")
        fields[key] = value
    known = {"mode", "functions", "trials", "dims", "atoms", "tol", "seed"}
    unknown = set(fields) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for required in ("mode", "functions", "trials"):
        if required not in fields:
            raise UsageError(f"config is missing required key {required!r}")
    try:
        trials = int(fields["trials"])
    except ValueError:
        raise UsageError(f"trials must be an integer, got {fields['trials']!r}") from None
    kwargs: dict = {
        "mode": fields["mode"],
        "functions": tuple(s.strip() for s in fields["functions"].split(",") if s.strip()),
        "trials": trials,
    }
    if "dims" in fields:
        kwargs["dims"] = _parse_range(fields["dims"], "dims")
    if "atoms" in fields:
        kwargs["atoms"] = _parse_range(fields["atoms"], "atoms")
    if "tol" in fields:
        try:
            kwargs["tol"] = float(fields["tol"])
        except ValueError:
            raise UsageError(f"tol must be a float, got {fields['tol']!r}") from None
    if "seed" in fields:
        try:
            kwargs["seed"] = int(fields["seed"])
        except ValueError:
            raise UsageError(f"seed must be an integer, got {fields['seed']!r}") from None
    config = CampaignConfig(**kwargs)
    validate_config(config)
    return config


def load_campaign_config(path) -> CampaignConfig:
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {p}: {exc}") from None
    return parse_campaign_config(text)


def _log_uniform_values(rng: np.random.Generator, count: int) -> np.ndarray:
    return 2.0 ** rng.uniform(-VALUE_LOG2_RANGE, VALUE_LOG2_RANGE, size=count)


def _dirichlet_probs(rng: np.random.Generator, count: int) -> np.ndarray:
    e = rng.exponential(1.0, size=count)
    return e / e.sum()


def sample_scalar_space(
    rng: np.random.Generator, atoms: tuple[int, int] = DEFAULT_ATOMS
) -> FiniteJointSpace:
    """Random scalar space: Dirichlet probabilities, log-uniform values."""
    k = int(rng.integers(atoms[0], atoms[1] + 1))
    p = _dirichlet_probs(rng, k)
    # One draw for x then y: the same doubles, in order, as two draws of k.
    values = _log_uniform_values(rng, 2 * k)
    return FiniteJointSpace(p, values[:k], values[k:])


def sample_operator_triple(
    rng: np.random.Generator, dims: tuple[int, int] = DEFAULT_DIMS
):
    """Random (rho, A, B) with a density state and SPD observables: one atom's draw."""
    n = int(rng.integers(dims[0], dims[1] + 1))
    rho, a, b = sample_atom_stacks(1, n, rng)
    return rho[0], a[0], b[0]


def sample_matrix_space(
    rng: np.random.Generator,
    dims: tuple[int, int] = DEFAULT_DIMS,
    atoms: tuple[int, int] = DEFAULT_ATOMS,
) -> FiniteJointSpace:
    """Random matrix-mode space with a density matrix on every atom, all atoms
    drawn in one call."""
    n = int(rng.integers(dims[0], dims[1] + 1))
    k = int(rng.integers(atoms[0], atoms[1] + 1))
    p = _dirichlet_probs(rng, k)
    rho, x, y = sample_atom_stacks(k, n, rng)
    return FiniteJointSpace(p, x, y, rho)


def _sample_space(
    config: CampaignConfig, fi: int, t: int, rng: np.random.Generator | None = None
) -> FiniteJointSpace:
    """The instance of trial t of function fi, as a trusted space (op: one atom),
    drawn from ``rng`` when the caller has keyed it for (fi, t) and otherwise
    from ``split_rng(seed, fi, t)``."""
    if rng is None:
        rng = split_rng(config.seed, fi, t)
    if config.mode == "num":
        return sample_scalar_space(rng, config.atoms)
    if config.mode == "op":
        rho, a, b = sample_operator_triple(rng, config.dims)
        return FiniteJointSpace(np.ones(1), a[None], b[None], rho[None])
    return sample_matrix_space(rng, config.dims, config.atoms)


def _run_trial(config: CampaignConfig, fi: int, t: int, rng: np.random.Generator, key) -> FiniteJointSpace:
    """Trial t of function fi's own work, run once per trial in campaign order:
    its draw from ``rng`` reseeded with the trial's key."""
    return _sample_space(config, fi, t, reseed(rng, key))


def _trial_keys(config: CampaignConfig):
    """The split_rng keys of every (function, trial) pair in campaign order,
    derived KEY_CHUNK pairs per ``philox_keys`` call."""
    total = len(config.functions) * config.trials
    for lo in range(0, total, KEY_CHUNK):
        pair = np.arange(lo, min(lo + KEY_CHUNK, total), dtype=np.uint64)
        yield from philox_keys(config.seed, pair // config.trials, pair % config.trials)


def _worst_case_payload(config: CampaignConfig, fid: str, fi: int, t: int) -> dict:
    space = _sample_space(config, fi, t)
    return {"function": fid, "trial": t, "space": space_to_jsonable(space)}


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignSummary:
    """Run every (function, trial) pair and aggregate.

    Each function's trials are sampled in order, each from the campaign's one
    Philox generator reseeded with the trial's key, and evaluated in blocks: a
    block ends at the function's last trial or once its spaces hold
    BLOCK_ELEMENTS values of x, and its gaps rhs - lhs come from one
    ``block_sides`` call, whose errors name the first failing trial.  Trials
    run in this process at any ``workers`` value; the parameter is kept for
    existing callers and does not change the summary.
    """
    validate_config(config)
    tol = config.resolved_tol()
    per_function: dict[str, FunctionStats] = {}
    violations = 0
    worst: tuple[float, int, int] | None = None
    rng = np.random.Generator(np.random.Philox(0))  # reseeded before every draw
    keys = _trial_keys(config)
    for fi, fid in enumerate(config.functions):
        f = get_function(fid)
        chunk: list[float] = []
        block: list[FiniteJointSpace] = []
        size = 0
        for t in range(config.trials):
            block.append(_run_trial(config, fi, t, rng, next(keys)))
            size += block[-1].x.size
            if size >= BLOCK_ELEMENTS or t == config.trials - 1:
                first = t + 1 - len(block)
                lhs, rhs = block_sides(f, block, lambda i: f"function {fid!r}, trial {first + i}")
                chunk += (rhs - lhs).tolist()
                block, size = [], 0
        fviol = sum(1 for g in chunk if classify_gap(g, tol) == VERDICT_VIOLATED)
        violations += fviol
        per_function[fid] = FunctionStats(
            trials=len(chunk),
            violations=fviol,
            worst_gap=min(chunk) if chunk else None,
            max_abs_gap=max(abs(g) for g in chunk) if chunk else None,
        )
        for t, g in enumerate(chunk):
            if worst is None or (g, fi, t) < worst:
                worst = (g, fi, t)

    worst_gap = worst[0] if worst is not None else None
    worst_case = None
    if violations > 0 and worst is not None:
        _, fi, t = worst
        worst_case = _worst_case_payload(config, config.functions[fi], fi, t)
    return CampaignSummary(
        mode=config.mode,
        functions=config.functions,
        trials=len(config.functions) * config.trials,
        violations=violations,
        worst_gap=worst_gap,
        worst_case=worst_case,
        per_function=per_function,
        tol=tol,
        seed=config.seed,
        dims=config.dims,
        atoms=config.atoms,
    )


def search_violation(
    f: RepresentingFunction,
    rng: np.random.Generator,
    budget: int,
    tol: float = SCALAR_TOL,
    seed: int | None = None,
) -> InequalityReport:
    """Random-restart search for the most negative two-point gap.

    Draws (x1, x2, p) with log-uniform values and uniform weight and keeps
    the report with the smallest gap.  Pure restart, no refinement: the
    objective is piecewise smooth with kinks exactly where violations live.
    """
    if budget < 1:
        raise UsageError(f"search budget must be >= 1, got {budget!r}")
    best: InequalityReport | None = None
    for _ in range(budget):
        x1 = float(_log_uniform_values(rng, 1)[0])
        x2 = float(_log_uniform_values(rng, 1)[0])
        p = float(rng.uniform())
        if x1 == x2 or not 0.0 < p < 1.0:
            continue
        space = construct_counterexample(f, x1, x2, p)
        report = verify_numeric(space, f, tol, seed=seed)
        if best is None or report.gap < best.gap:
            best = report
    if best is None:
        # Astronomically unlikely: every draw was degenerate.
        space = construct_counterexample(f, 1.0, 2.0, 0.5)
        best = verify_numeric(space, f, tol, seed=seed)
    return best

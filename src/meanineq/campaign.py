"""Seeded verification campaigns and random violation search.

A campaign draws instances (finite spaces, state/observable triples, or
random-matrix spaces), verifies each, and aggregates counts and extremes.
Its config file is ``key = value`` lines in the grammar every input file
shares (``errors.content_lines``); each key's value is read by its parser
in one table, and an error names the file and line it is found in.
Trial k of function j always draws the stream of ``split_rng(seed, j, k)``,
so replays are bit-identical, and the worst case is rebuilt from its
(function, trial) coordinates rather than stored.  A campaign does not build
that generator per trial: each of its ranges keeps one Philox generator and,
before each trial's draw, reseeds it with the trial's exact ``SeedSequence``
key, derived for up to KEY_CHUNK consecutive (function, trial) pairs at once
by ``sampling.philox_keys`` and handed over as int tuples.  Ranges run
in-process, each on a thread of its own.  A num campaign, or one of matrices
below THREAD_MIN_DIM, is one range: its trials are mostly Python, which
holds the interpreter lock.  Larger matrices spend most of a trial in
LAPACK, which releases it, so they get one range per core that BLAS leaves
free (``_range_count``).  A range's generator and reseed state are its own,
so ranges, and whole campaigns, may run in concurrent threads.

A trial only makes its generator calls, and keeps only its (dimension,
atom count) record (``_Trial``): its counts, its atoms' Dirichlet weights
(exponentials, not yet normalised; op draws none, its one atom weighs 1),
then its raw values, one call for all its atoms (uniforms for the log2
values of x and y, or the Gaussian factors of each atom's rho, X and Y).
The calls write with ``out=`` into its range's ``_Block``: two buffers that
live as long as the range, grow only for a trial that does not fit, and hold
the open block's draws end to end.  The counts are numpy's ``integers`` over
two ranges (``_count_ranges``); a freshly reseeded generator holds no spare
32-bit word, so ``sampling.fresh_counts`` reseeds it and computes both
counts from one raw word with numpy's own rule, in one path for every mode.
The public samplers take a caller's generator, which may hold a spare word, so
they draw the counts with ``integers``, as does the rebuild of a trial from
its ``split_rng`` generator, into a block of that one trial; the values are
drawn by one body, ``_draw``, either way.

A campaign walks its pairs KEY_CHUNK at a time, in campaign order, and each
range fills blocks from its piece of a window: a block ends at the piece's
last pair or once its draws hold BLOCK_ELEMENTS values of x, or
MATRIX_BLOCK_FACTOR times as many in matrix mode.  A window is one piece,
unless the campaign sorts (``_sorts``): it then reads the window's counts,
through the call each trial's draw makes again, sorts its pairs by
(dimension, pair) and cuts them into one piece per range of about equal sum
of k n^3 (``_pieces``).  So a block holds a run of dimensions, and each
LAPACK call stacks every trial of its dimension in the block (on op-large,
20.4 buckets of 2.94 trials per campaign against 47.6 of 1.26 in campaign
order).  A block's rows are its trials in campaign order: ``_build`` ranks
each draw by its pair.

A block does the arithmetic of its draws at once, reading them from its
buffers (``_build``): it normalises the weights of all its draws of one atom
count as one array and raises 2 to its uniforms, taken in one gather.  Its
matrix draws are grouped in buckets, one per dimension, and
``verify.block_sides`` evaluates the buckets one after another: ``_build``
builds a bucket's valid-by-construction spaces (one SPD construction for all
its factors, a view of the buffer when the bucket's draws lie end to end, as
in a sorted block, else one gather) only when it is asked for, the
kernel admits all its atoms with two stacked Cholesky factorizations, reads
the arithmetic and harmonic runs' traces out of closed forms and the other
runs' out of one eigensolve of their inner matrices, with only f on the
spectrum run per function, and the bucket's stacks are freed once its
values are in the block's padded layout.  So a matrix block holds its raw
draws and one bucket's stacks at a time.  All weighted sums are then taken
as padded arrays, with one rhs call per function.  Every trial's lhs and
rhs have the bits of building and verifying it alone.  A block folds its
gaps, one function run at a time, into its range's record of the function:
the violations ``classify_gap`` finds, the smallest gap with its pair and
the largest |gap|.  The campaign merges its ranges' records, so it keeps
nothing per trial.  A failed block is resolved at once: of its trials,
verified one by one in campaign order from their slices of the buffers, it
keeps the error of the first that fails alone, named by its (function,
trial), else its own error.  Once a window's ranges are joined, the first
such trial's error is raised, else that of the failed block that starts
first, and the frames of the walk are cleared, so that the error holds
nothing of it.  A search verifies its restarts in blocks of SEARCH_CHUNK in
the same way.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import MeanIneqError, UsageError, content_lines, located, place, read_input, require_integer
from .functions import RepresentingFunction, get_function
from .linalg import MAX_DIM
from .operator_means import OperatorMeanSpec
from .reports import VERDICT_VIOLATED, InequalityReport, classify_gap, require_tol
from .sampling import atom_stacks, fresh_counts, philox_keys, require_seed, split_rng
from .tolerances import MATRIX_TOL, SCALAR_TOL
from .verify import (
    FiniteJointSpace,
    block_sides,
    construct_counterexample,
    space_to_jsonable,
    two_point_gaps,
    verify_numeric,
)

MODES = ("num", "op", "rm")

#: Scalar-instance sampler range: values are log-uniform on [1/16, 16].
VALUE_LOG2_RANGE = 4.0

#: A block of trials is evaluated once its draws hold this many values of x
#: (one 64 x 64 matrix) in num mode, which bounds a num block's draws and its
#: padded layout.
BLOCK_ELEMENTS = 4096

#: Matrix blocks close at this many times BLOCK_ELEMENTS values of x.  A
#: matrix block holds its raw draws, three values per value of x, and the
#: stacks of one dimension bucket at a time; fewer, larger blocks pay the
#: fixed cost of a block less often.  On the op-large benchmark (n = 48-64,
#: 2-core VM, BLAS on one thread), 8 against 1 cut trial_us by about 10% for
#: 1.6 MB more peak RSS; 4 was as fast as 8, and 16 faster for 1.7 MB more
#: (BENCH_24.json).
MATRIX_BLOCK_FACTOR = 8

#: A search draws and verifies this many restarts at a time, which bounds its
#: memory: about 0.3 KB per restart.
SEARCH_CHUNK = 1024

#: Trial keys are derived this many (function, trial) pairs at a time, in
#: campaign order and across function boundaries: 64 KB of keys.
KEY_CHUNK = 4096

#: Matrix campaigns whose smallest dimension is at least this split their
#: pairs over threads (``_range_count``) and sort them by dimension
#: (``_sorts``).  Below it, too little of a trial's time is numpy work that
#: releases the interpreter lock.  Two ranges against
#: one, op campaigns at n x n on a 2-core VM with BLAS on one thread, median
#: wall ratio per pass of 10-16 interleaved rounds: 1.07-1.13x at n <= 20 in
#: every pass; 0.76-1.09x at n = 24 and 0.70-1.08x at 32, by pass; 0.66-0.69x
#: at 40 and 0.61-0.68x at 48 in every pass (BENCH_23.json, "crossover").
THREAD_MIN_DIM = 40

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


def validate_config(config: CampaignConfig) -> CampaignConfig:
    """Reject a bad configuration before any trial runs; return ``config``
    once checked, with its function ids as a tuple of ``get_function(fid).id``
    (two of one function are rejected), its counts as Python ints and its tol
    as a float: any sequence of ids but a bare string, and numpy scalars, are
    accepted, and a campaign reports what it ran."""
    if config.mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {config.mode!r}")
    if isinstance(config.functions, str):
        raise UsageError(f"functions must be a sequence of function ids, not the string {config.functions!r}")
    functions = tuple(config.functions or ())
    if not functions:
        raise UsageError("campaign needs at least one function id")
    functions = tuple(get_function(fid).id for fid in functions)
    for i, fid in enumerate(functions):
        if fid in functions[:i]:
            raise UsageError(f"function id {fid!r} is listed more than once")
        if config.mode in ("op", "rm"):
            OperatorMeanSpec(get_function(fid))
    trials = require_integer("trials", config.trials)
    if trials < 0:
        raise UsageError(f"trials must be >= 0, got {config.trials!r}")
    if len(functions) * trials >= 2**63:  # numpy counts the pairs as int64
        raise UsageError(f"functions x trials must be below 2**63, got {len(functions)} x {trials}")
    seed = require_seed(config.seed)
    dims, atoms = _check_ranges(config.dims, config.atoms)
    tol = None if config.tol is None else require_tol(config.tol)
    return replace(config, functions=functions, trials=trials, dims=dims, atoms=atoms, tol=tol, seed=seed)


def _bounds(name: str, pair) -> tuple[int, int]:
    """A (min, max) range of integers, else a UsageError that names ``name``."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be a (min, max) pair, got {pair!r}") from None
    return require_integer(name, lo), require_integer(name, hi)


def _check_ranges(dims: tuple[int, int], atoms: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The dims and atoms ranges as pairs of Python ints, once checked to be
    ranges that campaigns and the public samplers draw: each needs integers
    with 1 <= min <= max, dimensions at most MAX_DIM and atom counts below
    2**63."""
    n = _bounds("dims", dims)
    if not (1 <= n[0] <= n[1] <= MAX_DIM):
        raise UsageError(f"dims range must satisfy 1 <= min <= max <= {MAX_DIM}, got {dims!r}")
    k = _bounds("atoms", atoms)
    if not (1 <= k[0] <= k[1]):
        raise UsageError(f"atoms range must satisfy 1 <= min <= max, got {atoms!r}")
    if k[1] >= 2**63:  # numpy draws the atom count as an int64
        raise UsageError(f"atoms max must be below 2**63, got {k[1]}")
    return n, k


def _range(value: str) -> tuple[int, int]:
    lo, dash, hi = value.partition("-")
    return int(lo), int(hi if dash else lo)


#: The config keys, each with the parser of its value (raising ValueError)
#: and what that value must be.
_CONFIG_KEYS = {
    "mode": (str, "a mode"),
    "functions": (lambda v: tuple(s.strip() for s in v.split(",") if s.strip()), "function ids"),
    "trials": (int, "an integer"),
    "dims": (_range, "'min-max' or a single integer"),
    "atoms": (_range, "'min-max' or a single integer"),
    "tol": (float, "a number"),
    "seed": (int, "an integer"),
}


def parse_campaign_config(text: str, path=None) -> CampaignConfig:
    """Parse and validate the flat ``key = value`` config format, one key per
    content line (see :func:`errors.content_lines`).

    Keys: mode (num|op|rm), functions (comma list of function ids), trials,
    dims and atoms (each min-max or one integer), tol, seed; the first three
    are required.  Each value is read by its key's parser in _CONFIG_KEYS.
    Errors name the config file ``path``, when given, and the line.
    """
    fields: dict = {}
    for n, line in content_lines(text):
        with located(path and place("config", path, n)):
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise UsageError(f"expected 'key = value', got {line!r}")
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            if key in fields:
                raise UsageError(f"duplicate config key {key!r}")
            parse, what = _CONFIG_KEYS[key]
            try:
                fields[key] = parse(value)
            except ValueError:
                raise UsageError(f"config key {key!r} needs {what}, got {value!r}") from None
    with located(path and place("config", path)):
        for key in ("mode", "functions", "trials"):
            if key not in fields:
                raise UsageError(f"missing required config key {key!r}")
        return validate_config(CampaignConfig(**fields))


def load_campaign_config(path) -> CampaignConfig:
    return parse_campaign_config(read_input(path, "config"), path)


class _Trial(tuple):
    """All a trial's draw leaves outside its block's buffers: its dimension n
    and atom count k (num: n = 1; op: k = 1).  Built from its counts' tuple
    in C, where a NamedTuple would add a Python call per trial."""

    __slots__ = ()
    dims = property(itemgetter(0))
    atoms = property(itemgetter(1))


def _count_ranges(mode: str, dims: tuple[int, int], atoms: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The inclusive ranges of a draw's dimension n and atom count k, which
    the v1 stream draws first, as ``integers(lo, hi + 1)``: num draws no
    dimension and op no atom count, and numpy draws nothing for a range of
    one value, so every mode draws its counts from the same two ranges."""
    return (dims if mode != "num" else (1, 1)), (atoms if mode != "op" else (1, 1))


def _atom_values(mode: str, n):
    """The raw values of one atom of dimension n: its two uniforms, or the
    (3, n, n) factors of its rho, X and Y."""
    return 2 if mode == "num" else 3 * n * n


class _Block:
    """A range's open block: the draws of its trials, in draw order, each
    written after the last into two buffers that outlive the block.
    ``weights`` holds each trial's k exponentials (op: none are drawn, and
    the slots are never read) and ``raw`` its k atoms' raw values; ``nw``
    and ``nr`` count the values in use, and ``pairs`` and ``trials`` hold
    each trial's campaign pair and record.  The buffers start with room for
    ``values`` raw values, atoms of at least ``atom_values`` each, and grow
    only for a trial that does not fit.  ``counts`` is a campaign range's
    ``fresh_counts`` closure for ``rng``, and ``stats`` the range's record
    of each of its campaign's ``functions``, which its closed blocks fold
    their gaps into: [violations, (smallest gap, its pair), largest |gap|]."""

    def __init__(self, rng: np.random.Generator, values: int, atom_values: int, counts=None, functions: int = 0) -> None:
        self.rng, self.atom_values, self.counts = rng, atom_values, counts
        self.weights, self.raw = np.empty(values // atom_values), np.empty(values)
        self.stats = [[0, (math.inf, 0), 0.0] for _ in range(functions)]
        self.clear()

    def clear(self) -> None:
        self.nw = self.nr = 0
        self.pairs: list[int] = []
        self.trials: list[_Trial] = []

    def grow(self, values: int) -> None:
        """Room for ``values`` raw values at least, twice the room at least,
        with the draws in use kept."""
        values = max(values, 2 * self.raw.size)
        weights, raw = np.empty(values // self.atom_values), np.empty(values)
        weights[: self.nw] = self.weights[: self.nw]
        raw[: self.nr] = self.raw[: self.nr]
        self.weights, self.raw = weights, raw

    def records(self) -> np.ndarray:
        """The (n, k) of the block's trials as a (T, 2) array, in draw order."""
        return np.fromiter(chain.from_iterable(self.trials), np.int64, 2 * len(self.trials)).reshape(-1, 2)


def _draw(block: _Block, mode: str, n: int, k: int) -> None:
    """One trial's draw in the v1 stream once its counts n and k are drawn,
    written after ``block``'s last: k exponentials unless the mode is op (one
    atom), then 2k uniforms (x, then y) or the factors.  Only generator
    calls, with ``out=``: they fill a slice with the doubles they would return
    and leave the generator in the same state.  ``_build`` does the
    arithmetic for a whole block.  ``standard_exponential`` gives the doubles
    of ``exponential(1.0)``, which scales each by 1.0, and ``standard_normal``
    those of ``normal(0.0, 1.0)``, which adds 0.0 to each, so they differ at
    most in the sign of an exact zero."""
    w, r = block.nw, block.nr
    end = r + k * (2 if mode == "num" else 3 * n * n)  # _atom_values, inlined: once per trial
    if end > block.raw.size:
        block.grow(end)
    rng = block.rng
    if mode != "op":
        rng.standard_exponential(out=block.weights[w : w + k])
    (rng.random if mode == "num" else rng.standard_normal)(out=block.raw[r:end])
    block.nw, block.nr = w + k, end


def _log_uniform(u: np.ndarray) -> np.ndarray:
    """Values log-uniform on [1/16, 16] from uniforms u in [0, 1): the powers
    of ``uniform(-VALUE_LOG2_RANGE, VALUE_LOG2_RANGE)``, which numpy draws as
    low + (high - low) * u."""
    return 2.0 ** (-VALUE_LOG2_RANGE + 2 * VALUE_LOG2_RANGE * u)


def _probabilities(weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The Dirichlet probabilities of draws whose weights lie end to end, draw
    i's counts[i] of them after draw i - 1's: each draw's weights over their
    sum.  The draws of one atom count are normalised as one (m, k) array,
    whose row sums have the bits of each draw's own ``sum()``: numpy sums a
    row as it sums a vector (``np.add.reduceat`` would add in another order)."""
    starts = np.cumsum(counts) - counts
    p = np.empty_like(weights)
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        at = starts[counts == k][:, None] + np.arange(k)
        e = weights[at]
        p[at] = e / e.sum(axis=1)[:, None]
    return p


def _build(mode: str, weights: np.ndarray, raw: np.ndarray, drawn: np.ndarray, pairs) -> Iterator[tuple[np.ndarray, FiniteJointSpace]]:
    """Draws of one mode, end to end in ``weights`` and ``raw`` in the order
    of their (n, k) records ``drawn``, as the trusted (rows, space) buckets of
    ``verify.atom_values``, one per matrix dimension, with the bits of
    building each draw alone.  A draw's row is the rank of its campaign pair
    in ``pairs``, and the draws of one dimension must be in campaign order,
    as a block's are.  The weights are normalised at once
    (``_probabilities``), and the uniforms taken in one gather and raised at
    once.  The buckets are yielded one at a time, and each bucket's matrices
    are built at once from its factors, a view of ``raw`` when they lie end
    to end, else one gather, only when it is asked for, so that a block holds
    its raw draws and the stacks of one bucket, not of all."""
    dims, counts = drawn.T
    rows = np.empty(len(drawn), dtype=np.intp)
    rows[np.argsort(pairs)] = np.arange(len(drawn))
    if mode == "num":
        # Atom j of a draw whose first atom is the block's atom a has its
        # uniforms at 2a + j (x) and 2a + k + j (y).
        first = np.repeat(np.cumsum(counts) - counts, counts)
        at = np.arange(first.size) + first
        u = raw[np.stack((at, at + np.repeat(counts, counts)))]
        yield rows, FiniteJointSpace(_probabilities(weights, counts), *_log_uniform(u))
        return
    p = _probabilities(weights, counts) if mode == "rm" else np.ones(len(drawn))  # op: one atom, weight 1
    atom_dims = np.repeat(dims, counts)
    values = _atom_values(mode, atom_dims)
    starts = np.cumsum(values) - values
    for n in np.flatnonzero(np.bincount(dims)).tolist():
        at = atom_dims == n
        first, size = starts[at], _atom_values(mode, n)
        if first[-1] - first[0] == (first.size - 1) * size:
            g = raw[first[0] : first[-1] + size]
        else:
            g = raw[first[:, None] + np.arange(size)]
        rho, x, y = atom_stacks(g.reshape(-1, 3, n, n))
        yield rows[dims == n], FiniteJointSpace(p[at], x, y, rho)
        del g, rho, x, y  # before the next bucket's stacks are built


def _sampled(rng: np.random.Generator, mode: str, dims: tuple[int, int], atoms: tuple[int, int]) -> FiniteJointSpace:
    """A public sampler's space, drawn from a caller's generator into a block
    of its one trial.  That generator may hold a spare 32-bit word, which
    ``integers`` uses and ``sampling.fresh_counts`` would not, so the counts
    come from ``integers``; the draw and the generator's end state are those
    of the v1 stream.  Bad ranges are rejected before anything is drawn."""
    dims, atoms = _check_ranges(dims, atoms)
    n, k = (int(rng.integers(lo, hi + 1)) for lo, hi in _count_ranges(mode, dims, atoms))
    values = _atom_values(mode, n)
    block = _Block(rng, k * values, values)
    _draw(block, mode, n, k)
    return next(_build(mode, block.weights, block.raw, np.array([[n, k]]), [0]))[1]


def sample_scalar_space(
    rng: np.random.Generator, atoms: tuple[int, int] = DEFAULT_ATOMS
) -> FiniteJointSpace:
    """Random scalar space: Dirichlet probabilities, log-uniform values."""
    return _sampled(rng, "num", DEFAULT_DIMS, atoms)


def sample_operator_triple(
    rng: np.random.Generator, dims: tuple[int, int] = DEFAULT_DIMS
):
    """Random (rho, A, B) with a density state and SPD observables: one atom's draw."""
    s = _sampled(rng, "op", dims, DEFAULT_ATOMS)
    return s.rho[0], s.x[0], s.y[0]


def sample_matrix_space(
    rng: np.random.Generator,
    dims: tuple[int, int] = DEFAULT_DIMS,
    atoms: tuple[int, int] = DEFAULT_ATOMS,
) -> FiniteJointSpace:
    """Random matrix-mode space with a density matrix on every atom, all atoms
    drawn in one call."""
    return _sampled(rng, "rm", dims, atoms)


def _sample_space(config: CampaignConfig, fi: int, t: int) -> FiniteJointSpace:
    """Trial t of function fi as a trusted space (op: one atom), built as the
    one-draw block of its ``split_rng(seed, fi, t)`` draw."""
    return _sampled(split_rng(config.seed, fi, t), config.mode, config.dims, config.atoms)


def _run_trial(config: CampaignConfig, fi: int, t: int, key: tuple[int, int], block: _Block) -> _Trial:
    """Trial t of function fi's own work, run once per trial, in its range's
    order and maybe on another range's thread at once: its counts, which the
    range's ``sampling.fresh_counts`` reads after reseeding its generator
    with the trial's ``key``, and its draw, written into the range's open
    ``block``.  Returns the trial's record, which the walk keeps."""
    n, k = trial = _Trial(block.counts(key))
    _draw(block, config.mode, n, k)
    return trial


def _trial_keys(config: CampaignConfig, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The split_rng keys of the (function, trial) pairs lo, ..., hi - 1 in
    campaign order, as the int tuples a ``sampling.fresh_counts`` closure
    takes, derived by one ``philox_keys`` call."""
    pair = np.arange(lo, hi, dtype=np.uint64)
    return map(tuple, philox_keys(config.seed, pair // config.trials, pair % config.trials).tolist())


def _block_gaps(config: CampaignConfig, fs: list, pairs: np.ndarray, block: _Block) -> np.ndarray:
    """The gaps rhs - lhs of the trials of ``block``, whose campaign pairs are
    ``pairs`` in campaign order, an array in campaign order, evaluated at
    once, each function's pairs one ``verify.atom_values`` run.  A failing
    block raises an error that does not say which trial failed
    (``_first_failure`` finds it)."""
    trials = config.trials
    fis = np.arange(pairs[0] // trials, pairs[-1] // trials + 1)
    ends = np.searchsorted(pairs, (fis + 1) * trials).tolist()
    runs = [(fs[fi], end - start) for fi, start, end in zip(fis.tolist(), [0, *ends], ends)]
    drawn, drawn_pairs = block.records(), np.array(block.pairs)
    counts = drawn[np.argsort(drawn_pairs), 1]
    buckets = _build(config.mode, block.weights[: block.nw], block.raw[: block.nr], drawn, drawn_pairs)
    lhs, rhs = block_sides(runs, counts, buckets)
    return rhs - lhs


def _first_failure(config: CampaignConfig, fs: list, pairs: np.ndarray, block: _Block, error: MeanIneqError):
    """A failed block's ((rank, pair), error): of its trials ``pairs``, in
    campaign order, each verified alone from its slices of the block's
    buffers, the first to fail alone, rank 0 and named, else its first pair
    and own ``error``, rank 1."""
    drawn = block.records()
    dims, counts = drawn.T
    weight_ends = np.cumsum(counts).tolist()
    raw_ends = np.cumsum(counts * _atom_values(config.mode, dims)).tolist()
    for pair, i in zip(pairs.tolist(), np.argsort(block.pairs).tolist()):
        fi, t = divmod(pair, config.trials)
        n, k = block.trials[i]
        weights = block.weights[weight_ends[i] - k : weight_ends[i]]
        raw = block.raw[raw_ends[i] - k * _atom_values(config.mode, n) : raw_ends[i]]
        try:
            with located(f"function {config.functions[fi]!r}, trial {t}"):
                block_sides([(fs[fi], 1)], [k], _build(config.mode, weights, raw, drawn[i : i + 1], [pair]))
        except MeanIneqError as alone:
            return (0, pair), alone
    return (1, pairs[0]), error


def _worst_case_payload(config: CampaignConfig, fid: str, fi: int, t: int) -> dict:
    space = _sample_space(config, fi, t)
    return {"function": fid, "trial": t, "space": space_to_jsonable(space)}


def _block_limit(config: CampaignConfig) -> int:
    """The raw values at which a block closes: BLOCK_ELEMENTS values of x, or
    MATRIX_BLOCK_FACTOR times as many in matrix mode, x being one of a draw's
    two raw value sets in num mode and one of three (rho, X, Y) otherwise."""
    return BLOCK_ELEMENTS * (2 if config.mode == "num" else 3 * MATRIX_BLOCK_FACTOR)


def _range_block(config: CampaignConfig) -> _Block:
    """A range's block: its own Philox generator, reseeded before every draw,
    with its ``fresh_counts`` closure, a record of each function, and buffers
    with room for a block of ``_block_limit`` raw values and a last trial."""
    rng = np.random.Generator(np.random.Philox(0))
    counts = fresh_counts(rng, _count_ranges(config.mode, config.dims, config.atoms))
    return _Block(rng, 2 * _block_limit(config), _atom_values(config.mode, config.dims[0]), counts, len(config.functions))


def _run_blocks(config: CampaignConfig, fs: list, tol: float, pairs, keys, block: _Block) -> list:
    """Draw the trials of ``pairs``, campaign pair indices, in the order given
    from their ``keys`` into the range's ``block``, and evaluate them in
    blocks that close at ``_block_limit`` raw values or at the last pair.  A
    block's gaps are folded, one function run at a time, into the range's
    ``block.stats``: its violations (``classify_gap``), its smallest gap
    with the first pair that has it, and its largest |gap|.  Returns the
    failed blocks, each resolved at once by ``_first_failure``."""
    trials, limit, last = config.trials, _block_limit(config), pairs[-1]
    failed = []
    for pair, key in zip(pairs, keys):
        fi, t = divmod(pair, trials)
        block.pairs.append(pair)
        block.trials.append(_run_trial(config, fi, t, key, block))
        if block.nr < limit and pair != last:
            continue
        at, error = np.sort(block.pairs), None
        try:
            values = _block_gaps(config, fs, at, block)
        except MeanIneqError as exc:
            error = exc
        else:
            violated = classify_gap(values, tol) == VERDICT_VIOLATED
            fis = at // trials
            starts = np.flatnonzero(np.diff(fis, prepend=-1))  # of each function's run
            counts, highs = np.add.reduceat(violated, starts), np.maximum.reduceat(abs(values), starts)
            ends = [*starts[1:].tolist(), len(at)]
            for fi, a, b, count, high in zip(fis[starts].tolist(), starts.tolist(), ends, counts.tolist(), highs.tolist()):
                stats, i = block.stats[fi], a + int(values[a:b].argmin())
                stats[0] += count
                stats[1] = min(stats[1], (float(values[i]), int(at[i])))
                stats[2] = max(stats[2], high)
        if error is not None:  # resolved outside the handler, so no error chains to it
            failed.append(_first_failure(config, fs, at, block, error))
        block.clear()
    return failed


def _range_count(config: CampaignConfig) -> int:
    """The number of ranges a campaign runs at once, one per thread, each on
    its own piece of every window (``_pieces``): one in num mode or below
    THREAD_MIN_DIM, else the usable cores over the BLAS threads the
    environment sets (none set: BLAS takes every core, so one range), and
    never more than the campaign's pairs."""
    if config.mode == "num" or config.dims[0] < THREAD_MIN_DIM:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    setting = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    blas = int(setting) if setting.strip().isdigit() else 0
    if blas < 1:
        return 1
    return max(1, min(cores // blas, len(config.functions) * config.trials))


def _sorts(config: CampaignConfig, ranges: int) -> bool:
    """Whether a campaign sorts its windows' pairs by dimension: when it runs
    more than one range, or when its matrices are at least THREAD_MIN_DIM,
    where a trial is mostly LAPACK and stacking a dimension's trials in one
    call saves more than reading each pair's counts twice costs."""
    return ranges > 1 or (config.mode != "num" and config.dims[0] >= THREAD_MIN_DIM)


def _pieces(config: CampaignConfig, lo: int, hi: int, counts, ranges: int) -> list[tuple[list[int], list]]:
    """The window of pairs lo, ..., hi - 1, sorted by (dimension, pair) and
    cut into ``ranges`` contiguous pieces of about equal sum of k n^3, each
    as its (pairs, keys) lists: a pair goes to the piece its work's midpoint
    falls in.  The counts (n, k) are read through ``counts``, the range 0
    closure each trial's draw calls again."""
    keys = list(_trial_keys(config, lo, hi))
    n, k = np.array([counts(key) for key in keys], dtype=float).T
    order = np.argsort(n, kind="stable")
    work = (k * n**3)[order]
    done = np.cumsum(work)
    cuts = np.searchsorted(done - work / 2, done[-1] * np.arange(ranges + 1) / ranges).tolist()
    return [((lo + order[a:b]).tolist(), [keys[i] for i in order[a:b]]) for a, b in zip(cuts, cuts[1:])]


def _run_range(results: list, i: int, *args) -> None:
    """``_run_blocks(*args)``'s failed blocks as ``results[i]``, or what it
    raised, ranked before any failed block; a module function, not a
    closure, so that its frame, once cleared, holds nothing of the walk."""
    try:
        results[i] = _run_blocks(*args)
    except BaseException as exc:  # raised by the calling thread, in _walk
        results[i] = [((-1, i), exc)]


def _walk(config: CampaignConfig, fs: list, tol: float) -> list:
    """Every range's ``stats`` once the campaign's pairs have run, KEY_CHUNK
    at a time in campaign order: a window is one piece, or, when the campaign
    sorts (``_sorts``), one piece per range (``_pieces``).  Each non-empty
    piece runs on a range's block (``_range_block``), the first on the
    calling thread and each other on a thread of its own.  Once all are
    joined, a range's own error is raised, else the window's first failing
    trial in campaign order (see the module notes)."""
    ranges = _range_count(config)
    blocks = [_range_block(config) for _ in range(ranges)]
    sorts, total = _sorts(config, ranges), len(fs) * config.trials
    for lo in range(0, total, KEY_CHUNK):
        hi = min(lo + KEY_CHUNK, total)
        pieces = (
            _pieces(config, lo, hi, blocks[0].counts, ranges)
            if sorts
            else [(range(lo, hi), _trial_keys(config, lo, hi))]
        )
        results: list = [[] for _ in pieces]  # each piece's ((rank, pair), error) entries
        args = [(results, i, config, fs, tol, *piece, block) for i, (piece, block) in enumerate(zip(pieces, blocks)) if piece[0]]
        threads = [threading.Thread(target=_run_range, args=a, name=f"meanineq-range-{a[1]}") for a in args[1:]]
        for thread in threads:
            thread.start()
        _run_range(*args[0])
        for thread in threads:
            thread.join()
        # A range's own error first, then a trial that fails alone, then a block's error.
        failed = min((found for result in results for found in result), key=itemgetter(0), default=None)
        if failed:
            raise failed[1]
    return [block.stats for block in blocks]


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignSummary:
    """Run every (function, trial) pair and aggregate.

    ``_walk`` runs the pairs in ranges that each keep a record per function,
    merged here: the counts add up, the largest |gap| is the largest of all,
    and the smallest gap is the least of the ranges' (gap, pair), so a tie
    goes to the first trial in campaign order whatever the split.  An error
    names the first failing trial in campaign order, and nothing the walk
    held outlives it.  ``workers`` is kept for existing callers and is not
    read.
    """
    config = validate_config(config)
    tol, trials = config.resolved_tol(), config.trials
    fs = [get_function(fid) for fid in config.functions]
    try:
        records = _walk(config, fs, tol)
    except BaseException as exc:  # the frames it passed, and their callers, hold the walk's windows and ranges
        here = sys._getframe()
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            while frame is not None and frame is not here:
                frame.clear()
                frame = frame.f_back
        raise

    per_function, worst = {}, (math.inf, 0)
    for fid, stats in zip(config.functions, zip(*records)):  # each range's record of the function
        violations, lows, highs = zip(*stats)
        worst = min(worst, *lows)
        per_function[fid] = FunctionStats(trials, sum(violations), *((min(lows)[0], max(highs)) if trials else (None, None)))
    violations = sum(stats.violations for stats in per_function.values())
    worst_case = None
    if violations > 0:
        fi, t = divmod(worst[1], trials)
        worst_case = _worst_case_payload(config, config.functions[fi], fi, t)
    return CampaignSummary(
        mode=config.mode,
        functions=config.functions,
        trials=len(fs) * trials,
        violations=violations,
        worst_gap=worst[0] if trials else None,
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

    Draws the restarts' (x1, x2, p), log-uniform values and a uniform weight,
    SEARCH_CHUNK restarts at a time (the same doubles as one draw of them
    all), verifies each chunk's two-point spaces (Y constant 1) as one block
    (``verify.two_point_gaps``), and keeps a running first smallest gap among
    the restarts with x1 != x2 and 0 < p < 1.  That restart is rebuilt as
    :func:`construct_counterexample`'s space and labelled with ``seed``, a
    non-negative integer or None, checked before any restart is drawn.  Pure
    restart, no refinement: the objective is piecewise smooth with kinks
    exactly where violations live.
    """
    seed = None if seed is None else require_seed(seed)
    budget = require_integer("search budget", budget)
    if budget < 1:
        raise UsageError(f"search budget must be >= 1, got {budget!r}")
    require_tol(tol)  # before any restart is drawn
    best = (math.inf, 1.0, 2.0, 0.5)  # (1, 2, 0.5) when every restart is degenerate, astronomically unlikely
    for lo in range(0, budget, SEARCH_CHUNK):
        # The bits of uniform(-4, 4), uniform(-4, 4), uniform() per restart.
        u = rng.random((min(SEARCH_CHUNK, budget - lo), 3))
        x, p = _log_uniform(u[:, :2]), u[:, 2]
        valid = (x[:, 0] != x[:, 1]) & (0.0 < p) & (p < 1.0)
        gaps = np.where(valid, two_point_gaps(f, x[:, 0], x[:, 1], p), math.inf)
        i = int(gaps.argmin())
        if gaps[i] < best[0]:  # strict: the first smallest gap in restart order
            best = (float(gaps[i]), *x[i].tolist(), float(p[i]))
    _, x1, x2, p1 = best
    return replace(verify_numeric(construct_counterexample(x1, x2, p1), f, tol), seed=seed)

"""Seeded sampling of SPD matrices and density matrices.

Reproducibility contract: every sampler takes an explicit generator and no
global state is touched.  :func:`split_rng` defines the stream: path (j, k)
of a campaign seed is counter-based Philox keyed by
``SeedSequence(entropy=seed, spawn_key=(j, k))``, so a campaign can hand trial
k of function j its own generator and produce bit-identical results at any
block size.  The seed and every path entry must be non-negative integers
(``errors.require_integer``), so no other value replays a stream it does not
name.  Campaigns get the same generators more cheaply: :func:`philox_keys`
derives the keys of many paths at once: it takes the seed's pool from
numpy's ``SeedSequence`` and mixes the spawn keys in with its arithmetic on
arrays, and :func:`fresh_counts` resets one Philox generator to the fresh
state of a key before each trial.

A fresh generator also draws bounded integers more cheaply.  numpy's
``integers(lo, hi + 1)`` takes a span s = hi - lo + 1 below 2**32 from 32-bit
words by Lemire's rule, and a fresh Philox has no spare 32-bit word, so its
first two counts come from the low, then the high half of its first 64-bit
raw word unless one is rejected: the per-campaign :func:`fresh_counts`
computes them from one ``random_raw()`` word, bit for bit, in one path for
every mode: numpy draws nothing for a range of one value, so the second
count takes the low half when the first range has one value.  A caller's
generator may hold a spare word (``integers`` keeps the high half it did not
use), so this holds only for a fresh one; and it leaves no spare word behind,
so only 64-bit draws (uniforms, normals, exponentials) may follow.
This module is the only one that reads raw words or sets a generator's state.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UsageError, require_integer
from .linalg import MAX_DIM, eigenvalues, sym_matrix
from .tolerances import DENSITY_PSD_TOL, DENSITY_TRACE_TOL

#: Diagonal shift of SPD sampling: every sample's min eigenvalue is at least this.
DEFAULT_FLOOR = 1e-3

# numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, hashed with the multiplier streams A (while mixing
# entropy in) and B (while generating state).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_DST = np.arange(_POOL)[:, None]


def require_seed(seed) -> int:
    """A caller's seed as an int: a non-negative integer, else a UsageError."""
    value = require_integer("seed", seed)
    if value < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def split_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for (seed, path); streams are independent
    per path.  The seed and the path entries must be non-negative integers:
    every seeded entry point derives its generators here."""
    entropy = require_seed(seed)
    spawn_key = tuple(require_integer("path entry", p) for p in path)
    if any(p < 0 for p in spawn_key):
        raise UsageError(f"path entries must be non-negative, got {path!r}")
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return h


def _hashmix(v, h, h_next):
    """SeedSequence's hashmix of word v, where h is the hash constant before
    the call and h_next after it, on uint64 arrays holding 32-bit words: a
    product of two words fits in 64 bits."""
    v = ((v ^ h) * h_next) & _MASK32
    return v ^ (v >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


_GEN_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL), dtype=np.uint64)[:, None]


def philox_keys(seed: int, fi, t) -> np.ndarray:
    """The (N, 2) uint64 Philox keys of ``split_rng(seed, fi[i], t[i])``:
    ``SeedSequence(entropy=seed, spawn_key=(fi[i], t[i])).generate_state(2,
    np.uint64)`` for every pair, bit for bit.

    Trusted: seed is a non-negative int and fi, t are equal-length arrays of
    non-negative integers below 2**64.  The pool of the seed's words is
    numpy's own, ``SeedSequence(seed).pool``: without a spawn key numpy
    hashes a missing pool word as 0, as the padding a spawn key brings does.
    Each spawn-key word (one per 32 bits of fi and of t, at least one each)
    is then mixed into the N pools as uint64 arrays holding 32-bit words, one
    row per pool word.
    """
    # The seed's w words took one hash constant per pool word, 12 while mixing
    # the pool, then one per pool word for each of its words beyond the
    # fourth: 4 * max(w, 4) in all.  At most four spawn-key words follow.
    w = max(-(-seed.bit_length() // 32), 1)
    k = _POOL * max(w, _POOL)
    h = np.array(_hash_consts(_INIT_A, _MULT_A, k + _POOL * _POOL), dtype=np.uint64)
    mixer = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    # Every further word is mixed into each pool word in turn, taking the
    # next hash constants; k is the index of the next one, per pair once a
    # pair's word count differs from another's.
    for v in (np.asarray(fi, dtype=np.uint64), np.asarray(t, dtype=np.uint64)):
        mixer = _mix(mixer, _hashmix(v & _MASK32, h[k + _DST], h[k + _DST + 1]))
        k = k + _POOL
        high = v >> 32
        if high.any():
            live = high != 0
            mixed = _mix(mixer, _hashmix(high, h[k + _DST], h[k + _DST + 1]))
            mixer = np.where(live, mixed, mixer)
            k = k + _POOL * live
    state = _hashmix(mixer, _GEN_CONSTS[:-1], _GEN_CONSTS[1:])
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _fresh_state(key: tuple[int, int] = (0, 0)) -> dict:
    """The state of a fresh Philox keyed by ``key``: zero counter, empty
    buffer, no spare 32-bit word, all Python ints, which numpy reads faster
    than arrays."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _bounded(ranges) -> list[tuple[int, int, int]] | None:
    """Each inclusive (lo, hi) range as the (lo, span, threshold) of numpy's
    Lemire rule, which rejects a 32-bit word u while (u * span) mod 2**32 <
    (2**32 - span) mod span; None when a span is 2**32 or more, which numpy
    draws otherwise."""
    spans = [(lo, hi - lo + 1) for lo, hi in ranges]
    if any(span > _MASK32 for _, span in spans):
        return None
    return [(lo, span, (_MASK32 + 1 - span) % span) for lo, span in spans]


def fresh_counts(rng: np.random.Generator, ranges):
    """A campaign's trial counts: a function of a key that reseeds ``rng``
    with it and returns ``int(rng.integers(lo, hi + 1))`` for each of the two
    inclusive (lo, hi) ``ranges`` in turn, as a tuple.  Built once per
    campaign: it owns its reseed state and its ranges' Lemire constants, and
    computes both counts from the fresh generator's first raw word (see the
    module notes) in one path: the first count from the low half, the second
    from the high half when the first range draws, else from the low half;
    a range of one value gives lo at threshold 0, as numpy's rule does.
    When a half is rejected (a chance below span / 2**32 per count), a span
    is 2**32 or more, or neither range draws, it calls ``integers`` on the
    reseeded generator."""
    state = _fresh_state()
    inner, bit_generator = state["state"], rng.bit_generator

    def general(key: tuple[int, int]) -> tuple[int, ...]:
        inner["key"] = key
        bit_generator.state = state
        return tuple(int(rng.integers(lo, hi + 1)) for lo, hi in ranges)

    bounded = _bounded(ranges)
    if bounded is None or bounded[0][1] == bounded[1][1] == 1:
        return general
    (lo_a, span_a, thr_a), (lo_b, span_b, thr_b) = bounded
    random_raw, shift = bit_generator.random_raw, 32 if span_a > 1 else 0

    def counts(key: tuple[int, int]) -> tuple[int, int]:
        inner["key"] = key
        bit_generator.state = state
        word = random_raw()
        a = (word & _MASK32) * span_a
        b = (word >> shift & _MASK32) * span_b
        if a & _MASK32 < thr_a or b & _MASK32 < thr_b:
            return general(key)
        return lo_a + (a >> 32), lo_b + (b >> 32)

    return counts


def spd_stack(g: np.ndarray) -> np.ndarray:
    """The SPD samplers' construction: G G^T + DEFAULT_FLOOR*I, min eigenvalue
    >= DEFAULT_FLOOR, for every factor of a (..., n, n) stack, each with the
    bits it gets alone.  numpy's G G^T is exactly symmetric (entries (i, j)
    and (j, i) come from the same products), so it needs no symmetrizing;
    ``test_spd_stack_is_exactly_symmetric`` pins that.  The floor is added
    to the diagonal in place, through einsum's writeable view of it: the
    diagonal gets the bits of adding DEFAULT_FLOOR * I, and the other
    entries skip its + 0.0."""
    s = g @ g.swapaxes(-1, -2)
    np.einsum("...ii->...i", s)[...] += DEFAULT_FLOOR
    return s


def _unit_trace(s: np.ndarray) -> np.ndarray:
    """Normalize an SPD matrix, or each of a (..., n, n) stack, to a density matrix."""
    return s / np.trace(s, axis1=-2, axis2=-1)[..., None, None]


def sample_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample one SPD matrix G G^T + DEFAULT_FLOOR*I, G with iid N(0, 1)
    entries: :func:`spd_stack` of one ``standard_normal`` draw.  ``n`` must
    be an integer in [1, MAX_DIM]."""
    n = require_integer("dimension", n)
    if n < 1 or n > MAX_DIM:
        raise UsageError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    return spd_stack(rng.standard_normal((n, n)))


def sample_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a random density matrix: a normalized SPD sample, valid by construction."""
    return _unit_trace(sample_spd(n, rng))


def atom_stacks(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, X, Y) stacks of shape (k, n, n), densities and SPD observables,
    built from k atoms' (k, 3, n, n) factors.  A ``standard_normal`` draw of
    that shape goes atom by atom, rho then X then Y, so it is bit for bit
    ``sample_density, sample_spd, sample_spd`` called per atom."""
    s = spd_stack(g)
    return _unit_trace(s[:, 0]), s[:, 1], s[:, 2]


def check_density(rho) -> np.ndarray:
    """Validate a density matrix: symmetric, PSD and of unit trace up to
    DENSITY_PSD_TOL and DENSITY_TRACE_TOL."""
    s = sym_matrix(rho)
    tr = float(np.trace(s))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise DomainError(f"density matrix trace {tr!r} differs from 1 beyond tolerance")
    low = float(eigenvalues(s)[0])
    if low < -DENSITY_PSD_TOL:
        raise DomainError(
            f"density matrix has eigenvalue {low!r} below the PSD tolerance"
        )
    return s

"""Seeded sampling of SPD matrices and density matrices.

Reproducibility contract: every sampler takes an explicit generator and no
global state is touched.  :func:`split_rng` derives independent streams from
a campaign seed and an integer path (counter-based Philox keyed through
``SeedSequence`` spawn keys), so a campaign can hand trial k its own
generator and produce bit-identical results at any parallelism degree.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UsageError
from .linalg import MAX_DIM, sym_matrix, symmetrize

#: Default Gaussian factor scale and diagonal shift for SPD sampling.
DEFAULT_SPREAD = 1.0
DEFAULT_FLOOR = 1e-3

#: Density-matrix admission tolerances.
DENSITY_TRACE_TOL = 1e-12
DENSITY_PSD_TOL = 1e-12


def split_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for (seed, path); streams are independent per path."""
    if int(seed) < 0:  # every seeded entry point derives its generators here
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def sample_spd_stack(
    shape: tuple[int, ...],
    n: int,
    rng: np.random.Generator,
    spread: float = DEFAULT_SPREAD,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """Sample a ``shape + (n, n)`` stack of G G^T + floor*I with iid
    N(0, spread^2) entries in each G.

    Every matrix is symmetric positive definite with min eigenvalue >= floor
    by construction.  The Gaussian factors come from one draw in C order, so
    a stack is bit for bit the matrices drawn one by one in that order.
    ``spread`` = 0 yields the deterministic floor*I (the generator is still
    consumed, keeping streams aligned).
    """
    if n < 1 or n > MAX_DIM:
        raise UsageError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    if spread < 0.0:
        raise UsageError(f"spread must be non-negative, got {spread!r}")
    if floor <= 0.0:
        raise UsageError(f"floor must be positive, got {floor!r}")
    g = rng.normal(0.0, 1.0, size=(*shape, n, n)) * spread
    s = g @ g.swapaxes(-1, -2) + floor * np.eye(n)
    if not np.isfinite(s).all():
        raise DomainError("matrix entries must all be finite")
    return symmetrize(s)


def _unit_trace(s: np.ndarray) -> np.ndarray:
    """Normalize an SPD matrix, or each of a (..., n, n) stack, to a density matrix."""
    return s / np.trace(s, axis1=-2, axis2=-1)[..., None, None]


def sample_spd(
    n: int,
    rng: np.random.Generator,
    spread: float = DEFAULT_SPREAD,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """Sample one SPD matrix: the one-matrix case of :func:`sample_spd_stack`."""
    return sample_spd_stack((), n, rng, spread, floor)


def sample_density(
    n: int,
    rng: np.random.Generator,
    spread: float = DEFAULT_SPREAD,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """Sample a random density matrix: a normalized SPD sample, valid by construction."""
    return _unit_trace(sample_spd_stack((), n, rng, spread, floor))


def sample_atom_stacks(
    k: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, X, Y) stacks of shape (k, n, n): densities and SPD observables for
    k atoms from one draw.

    Stream contract: atom by atom, rho then X then Y, so the draw is bit for
    bit ``sample_density, sample_spd, sample_spd`` called per atom.
    """
    s = sample_spd_stack((k, 3), n, rng)
    return _unit_trace(s[:, 0]), s[:, 1], s[:, 2]


def check_density(rho) -> np.ndarray:
    """Validate a density matrix: symmetric, PSD up to 1e-12, unit trace."""
    s = sym_matrix(rho)
    tr = float(np.trace(s))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise DomainError(f"density matrix trace {tr!r} differs from 1 beyond tolerance")
    low = float(np.linalg.eigvalsh(s)[0])
    if low < -DENSITY_PSD_TOL:
        raise DomainError(
            f"density matrix has eigenvalue {low!r} below the PSD tolerance"
        )
    return s

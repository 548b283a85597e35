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
from .linalg import MAX_DIM, sym_matrix

#: Default Gaussian factor scale and diagonal shift for SPD sampling.
DEFAULT_SPREAD = 1.0
DEFAULT_FLOOR = 1e-3

#: Density-matrix admission tolerances.
DENSITY_TRACE_TOL = 1e-12
DENSITY_PSD_TOL = 1e-12


def split_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for (seed, path); streams are independent per path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def sample_spd(
    n: int,
    rng: np.random.Generator,
    spread: float = DEFAULT_SPREAD,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """Sample G G^T + floor*I with iid N(0, spread^2) entries in G.

    The result is symmetric positive definite with min eigenvalue >= floor
    by construction.  ``spread`` = 0 yields the deterministic floor*I (the
    generator is still consumed, keeping streams aligned).
    """
    if n < 1 or n > MAX_DIM:
        raise UsageError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    if spread < 0.0:
        raise UsageError(f"spread must be non-negative, got {spread!r}")
    if floor <= 0.0:
        raise UsageError(f"floor must be positive, got {floor!r}")
    g = rng.normal(0.0, 1.0, size=(n, n)) * spread
    return sym_matrix(g @ g.T + floor * np.eye(n))


def sample_density(
    n: int,
    rng: np.random.Generator,
    spread: float = DEFAULT_SPREAD,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """Sample a random density matrix: a normalized SPD sample, valid by construction."""
    rho = sample_spd(n, rng, spread=spread, floor=floor)
    return rho / np.trace(rho)


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

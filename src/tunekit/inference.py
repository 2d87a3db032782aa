"""Hyperparameter inference for the GP surrogate.

``slice_sample_thetas`` draws an ensemble of hyperparameter settings from
the posterior over the log parameterisation using univariate slice
sampling along random directions; predictions then average over the
ensemble.  A chain starts from the default hyperparameters or from a
given log vector, so a caller can continue an earlier chain on new data
with a short chain instead of starting over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .surrogate import CholeskyFailure, GpHyperParams, lml_function

__all__ = [
    "StartPointError",
    "StepOutFailure",
    "McmcConfig",
    "slice_sample",
    "slice_sample_thetas",
    "log_prior",
]

_SLICE_WIDTH = 1.0
_MAX_STEP_OUT = 1000
_MAX_SHRINK = 200

# Lognormal prior scales over the hyperparameters (on the log axis):
# lengthscales and amplitude get a standard normal, the warp shapes a
# tighter normal so the identity warp is preferred a priori, and the
# noise variance is log-uniform over its box.
_PRIOR_SD_SCALE = 1.0
_PRIOR_SD_WARP = 0.75


class StartPointError(ValueError):
    """The chain's starting point has no finite posterior density."""


class StepOutFailure(RuntimeError):
    """Slice step-out failed to bracket the level set within the expansion cap."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain schedule for slice sampling the hyperparameter posterior."""

    chain_length: int = 300
    burn_in: int = 250
    thinning: int = 5

    def validate(self) -> "McmcConfig":
        if self.chain_length < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("chain_length, burn_in >= 0 and thinning must be positive")
        if self.burn_in >= self.chain_length:
            raise ValueError("burn_in must be smaller than chain_length")
        return self

    @property
    def effective_samples(self) -> int:
        return len(range(self.burn_in, self.chain_length, self.thinning))


def slice_sample(log_density, x0: np.ndarray, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw a Markov chain targeting ``exp(log_density)``.

    Each step picks a uniformly random direction, brackets the slice by
    stepping out in unit intervals, then shrinks uniformly until a
    point inside the slice is found.  The density may return ``-inf``
    outside its support; the support must be connected along any line for
    the stepping-out procedure to be valid.

    Parameters
    ----------
    log_density : callable
        Maps a point of shape ``(k,)`` to a float (or ``-inf``).
    x0 : numpy.ndarray
        Starting point with finite log density.
    count : int
        Number of steps; one point is recorded per step.
    rng : numpy.random.Generator
        Source of randomness; fixing it fixes the chain.

    Returns
    -------
    numpy.ndarray
        Chain of shape ``(count, k)``; ``x0`` itself is not included.

    Raises
    ------
    StartPointError
        If ``x0`` has non-finite log density.
    StepOutFailure
        If a slice cannot be bracketed within 1000 expansions.
    """
    x = np.asarray(x0, dtype=float).copy()
    k = x.shape[0]
    logp = float(log_density(x))
    if not math.isfinite(logp):
        raise StartPointError(
            "slice sampling requires a starting point with finite density")
    out = np.empty((count, k))
    for step in range(count):
        direction = rng.standard_normal(k)
        direction /= np.linalg.norm(direction)
        level = logp + math.log(rng.uniform())
        # Bracket the slice along x + t * direction.
        u = rng.uniform()
        t_lo = -_SLICE_WIDTH * u
        t_hi = _SLICE_WIDTH * (1.0 - u)
        expansions = 0
        while log_density(x + t_lo * direction) > level:
            t_lo -= _SLICE_WIDTH
            expansions += 1
            if expansions > _MAX_STEP_OUT:
                raise StepOutFailure("exceeded step-out expansion limit")
        while log_density(x + t_hi * direction) > level:
            t_hi += _SLICE_WIDTH
            expansions += 1
            if expansions > _MAX_STEP_OUT:
                raise StepOutFailure("exceeded step-out expansion limit")
        for _ in range(_MAX_SHRINK):
            t = rng.uniform(t_lo, t_hi)
            candidate = x + t * direction
            logp_candidate = float(log_density(candidate))
            if logp_candidate > level:
                x = candidate
                logp = logp_candidate
                break
            if t < 0.0:
                t_lo = t
            else:
                t_hi = t
        else:
            raise RuntimeError("slice shrinkage failed to find an interior point")
        out[step] = x
    return out


@lru_cache(maxsize=32)
def _prior_terms(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-box bounds and the prior's per-coordinate precisions."""
    lo, hi = GpHyperParams.log_bounds(width)
    precision = np.concatenate([
        np.full(width + 1, 1.0 / _PRIOR_SD_SCALE ** 2),
        [0.0],
        np.full(2 * width, 1.0 / _PRIOR_SD_WARP ** 2),
    ])
    return lo, hi, precision


def log_prior(log_theta: np.ndarray, width: int) -> float:
    """Log prior density over the log-parameterised hyperparameters.

    Zero-mean normals on log lengthscales, log amplitude, and log warp
    shapes; flat on log noise variance.  Outside the hyperparameter box
    the density is ``-inf``.
    """
    lo, hi, precision = _prior_terms(width)
    if not ((log_theta >= lo) & (log_theta <= hi)).all():
        return -math.inf
    return float(-0.5 * (log_theta * log_theta) @ precision)


def _posterior_log_density(design: np.ndarray, y: np.ndarray, width: int):
    lml = lml_function(design, y)

    def target(log_theta: np.ndarray) -> float:
        prior = log_prior(log_theta, width)
        if prior == -math.inf:
            return -math.inf
        try:
            return lml(log_theta) + prior
        except CholeskyFailure:
            return -math.inf
    return target


def slice_sample_thetas(design: np.ndarray, y: np.ndarray, config: McmcConfig,
                        seed: int | np.random.SeedSequence, *,
                        sample_warp: bool = True,
                        start: np.ndarray | None = None) -> list[GpHyperParams]:
    """Posterior ensemble of hyperparameters via slice sampling.

    Runs one chain of ``config.chain_length`` steps from ``start`` (a log
    vector, as ``GpHyperParams.to_log_vector`` returns) or, without one,
    from the default hyperparameters; discards ``config.burn_in`` and
    keeps every ``config.thinning``-th remaining state.  With
    ``sample_warp=False`` the warp coordinates stay pinned at the identity
    and only lengthscales, amplitude, and noise are sampled.

    Returns a list of ``config.effective_samples`` settings, all inside
    the hyperparameter box.  Deterministic for a fixed seed and start.

    Raises
    ------
    StartPointError
        If ``start`` has non-finite posterior density on this data.
    """
    config.validate()
    design = np.atleast_2d(np.asarray(design, dtype=float))
    width = design.shape[1]
    rng = np.random.default_rng(seed)
    target = _posterior_log_density(design, y, width)
    x0 = GpHyperParams.default(width).to_log_vector()
    free = np.arange(x0.shape[0] if sample_warp else width + 2)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != x0.shape:
            raise ValueError(f"start must have shape {x0.shape}, got {start.shape}")
        x0[free] = start[free]

    if sample_warp:
        chain = slice_sample(target, x0, config.chain_length, rng)
    else:
        def embedded(u: np.ndarray) -> float:
            full = x0.copy()
            full[free] = u
            return target(full)

        sub_chain = slice_sample(embedded, x0[free], config.chain_length, rng)
        chain = np.tile(x0, (config.chain_length, 1))
        chain[:, free] = sub_chain

    kept = chain[config.burn_in::config.thinning]
    return [GpHyperParams.from_log_vector(row, width) for row in kept]

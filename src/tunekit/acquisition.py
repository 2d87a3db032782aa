"""Expected improvement acquisition and the proposal search.

Acquisition values are averaged over an ensemble of GP posteriors (one
per hyperparameter sample).  Proposal search scores a Sobol' anchor set,
refines the best anchors by coordinate-wise golden-section search, snaps
the refined points onto representable configurations, and drops anything
that collides with a pending or already-evaluated design point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .sobol import MAX_DIMENSION, sobol_points
from .space import Configuration, SearchSpace, decode, encode, sample_random
# predict_batch is not called here; the name stays importable from this
# module because bench/spans.py wraps it at this lookup site.
from .surrogate import (GpPosterior, PosteriorStack, predict_batch,  # noqa: F401
                        predict_stack, stack_posteriors)

__all__ = [
    "AcquisitionContext",
    "expected_improvement",
    "acquisition_value",
    "acquisition_values",
    "propose",
]

_SIGMA_FLOOR = 1e-12
_DUPLICATE_TOL = 1e-6
_TOP_ANCHORS = 5
_REFINE_SWEEPS = 3
_GOLDEN_TOL = 1e-4
_RANDOM_FALLBACK_TRIES = 16
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def expected_improvement(mean, variance, incumbent):
    """Closed-form expected improvement for minimisation.

    Accepts scalars or same-shape arrays.  Where the predictive standard
    deviation is below 1e-12 the degenerate value
    ``max(0, incumbent - mean)`` is used.  Always non-negative.
    """
    mean_arr = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(variance, dtype=float), 0.0))
    diff = incumbent - mean_arr
    gamma = diff / np.maximum(sigma, _SIGMA_FLOOR)
    smooth = sigma * (gamma * _norm_cdf(gamma) + _norm_pdf(gamma))
    out = np.where(sigma > _SIGMA_FLOOR, smooth, np.maximum(diff, 0.0))
    out = np.maximum(out, 0.0)
    return float(out) if np.ndim(mean) == 0 and np.ndim(out) == 0 else out


@dataclass(frozen=True)
class AcquisitionContext:
    """Everything the proposal search needs about the current model state.

    ``posteriors`` is the fitted ensemble (equal weights), ``incumbent``
    the best observed raw value in minimisation form, ``pending`` the
    encoded points currently being evaluated, and ``space`` the search
    space for snapping and fallback sampling.  The ensemble is stacked
    once here (members must share the number of observations), so every
    acquisition call scores all members in one pass.
    """

    posteriors: tuple[GpPosterior, ...]
    incumbent: float
    pending: tuple[tuple[float, ...], ...]
    space: SearchSpace
    _pending_array: np.ndarray = field(init=False, repr=False, compare=False)
    _stack: PosteriorStack | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = self.space.encoded_width
        arr = (np.array(self.pending, dtype=float).reshape(-1, width)
               if self.pending else np.zeros((0, width)))
        object.__setattr__(self, "_pending_array", arr)
        stack = stack_posteriors(self.posteriors) if self.posteriors else None
        object.__setattr__(self, "_stack", stack)

    @property
    def pending_array(self) -> np.ndarray:
        return self._pending_array


def acquisition_values(x: np.ndarray, ctx: AcquisitionContext) -> np.ndarray:
    """Ensemble-averaged expected improvement at a stack of encoded points."""
    if ctx._stack is None:
        raise ValueError("acquisition requires at least one fitted posterior")
    mean, var = predict_stack(ctx._stack, x)
    return expected_improvement(mean, var, ctx.incumbent).mean(axis=0)


def acquisition_value(x: np.ndarray, ctx: AcquisitionContext) -> float:
    """Ensemble-averaged expected improvement at one encoded point."""
    return float(acquisition_values(np.atleast_2d(x), ctx)[0])


def _refine(starts: np.ndarray, values: np.ndarray,
            ctx: AcquisitionContext) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise golden-section ascent from several anchors at once.

    Each start is refined independently (a coordinate move is accepted
    only if it improves that start's value), but the probes of all starts
    are evaluated in shared batches.  Returns refined points and values;
    per start the value never drops below its anchor value.
    """
    x = starts.copy()
    fx = values.astype(float).copy()
    k, dim = x.shape

    def eval_coord(j: int, t: np.ndarray) -> np.ndarray:
        probes = x.copy()
        probes[:, j] = t
        return acquisition_values(probes, ctx)

    for _ in range(_REFINE_SWEEPS):
        for j in range(dim):
            a = np.zeros(k)
            b = np.ones(k)
            c = b - _INV_PHI * (b - a)
            d = a + _INV_PHI * (b - a)
            fc = eval_coord(j, c)
            fd = eval_coord(j, d)
            best_t = np.where(fc >= fd, c, d)
            best_f = np.maximum(fc, fd)
            while np.max(b - a) > _GOLDEN_TOL:
                keep_low = fc >= fd
                next_a = np.where(keep_low, a, c)
                next_b = np.where(keep_low, d, b)
                # One interior point carries over per start; the other is
                # a fresh probe, batched across starts.
                next_c = np.where(keep_low,
                                  next_b - _INV_PHI * (next_b - next_a), d)
                next_d = np.where(keep_low, c,
                                  next_a + _INV_PHI * (next_b - next_a))
                t_eval = np.where(keep_low, next_c, next_d)
                f_eval = eval_coord(j, t_eval)
                next_fc = np.where(keep_low, f_eval, fd)
                next_fd = np.where(keep_low, fc, f_eval)
                a, b, c, d = next_a, next_b, next_c, next_d
                fc, fd = next_fc, next_fd
                improved = f_eval > best_f
                best_t = np.where(improved, t_eval, best_t)
                best_f = np.where(improved, f_eval, best_f)
            accept = best_f > fx
            x[accept, j] = best_t[accept]
            fx = np.where(accept, best_f, fx)
    return x, fx


def _min_distance(x: np.ndarray, existing: np.ndarray) -> float:
    if existing.shape[0] == 0:
        return math.inf
    return float(np.min(np.linalg.norm(existing - x[np.newaxis, :], axis=1)))


def _known_points(ctx: AcquisitionContext) -> np.ndarray:
    return np.vstack([ctx.posteriors[0].design, ctx.pending_array])


def propose(ctx: AcquisitionContext, seed: int | np.random.SeedSequence) -> Configuration:
    """Pick the next configuration to evaluate.

    Scores a Sobol' anchor set of ``min(2048, 512 * w)`` points, refines
    the five best anchors coordinate-wise, snaps each refined point onto
    a representable configuration, and returns the surviving candidate
    with the highest acquisition value.  Candidates within Euclidean
    distance 1e-6 of a pending or evaluated design point are discarded;
    if nothing survives, the best non-colliding anchor is used, and as a
    last resort a random non-colliding sample.  Deterministic for a
    fixed context and seed.
    """
    if not ctx.posteriors:
        raise ValueError("propose requires at least one fitted posterior")
    width = ctx.space.encoded_width
    n_anchor = min(2048, 512 * width)
    if width <= MAX_DIMENSION:
        anchors = sobol_points(width, n_anchor, skip=1)
    else:
        anchors = np.random.default_rng(seed).random((n_anchor, width))
    values = acquisition_values(anchors, ctx)
    known = _known_points(ctx)

    order = np.argsort(values)[::-1]
    top = order[:_TOP_ANCHORS]
    refined, _ = _refine(anchors[top], values[top], ctx)
    survivors: list[tuple[float, np.ndarray]] = []
    for row in refined:
        snapped = encode(decode(row, ctx.space), ctx.space)
        if _min_distance(snapped, known) < _DUPLICATE_TOL:
            continue
        survivors.append((acquisition_value(snapped, ctx), snapped))

    if survivors:
        _, best = max(survivors, key=lambda item: item[0])
        return decode(best, ctx.space)

    for idx in order:
        snapped = encode(decode(anchors[idx], ctx.space), ctx.space)
        if _min_distance(snapped, known) >= _DUPLICATE_TOL:
            return decode(snapped, ctx.space)

    rng_seeds = np.random.SeedSequence(seed).spawn(_RANDOM_FALLBACK_TRIES)
    config = None
    for sub in rng_seeds:
        config = sample_random(ctx.space, sub, 1)[0]
        if _min_distance(encode(config, ctx.space), known) >= _DUPLICATE_TOL:
            return config
    return config

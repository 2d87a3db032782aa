"""Expected improvement acquisition and the proposal search.

Acquisition values are averaged over an ensemble of GP posteriors (one
per hyperparameter sample).  Proposal search scores a Sobol' anchor set
(generated once per encoded width and reused), refines the best anchors
by a batched compass search, snaps the refined points onto representable
configurations, and drops anything that collides with a pending or
already-evaluated design point.  The compass search scores the probes of
all its starts in one acquisition call per round, and the survivors are
scored in one more.  Pending points steer only that check, not the model.
If every refined point collides, the best free anchor is proposed, and if
every anchor collides too, the first refined point, a duplicate.

The normal CDF takes ``erf`` from ``scipy.special``, imported inside
``_norm_cdf``: SciPy loads at the first proposal that scores a point,
not at ``import tunekit``.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .sobol import MAX_DIMENSION, sobol_points
from .space import Configuration, SearchSpace, decode, encode
# predict_batch is not called here; the name stays importable from this
# module because bench/spans.py wraps it at this lookup site.
from .surrogate import GpPosterior, predict_batch, predict_stack  # noqa: F401

logger = logging.getLogger(__name__)

__all__ = [
    "AcquisitionContext",
    "expected_improvement",
    "acquisition_values",
    "propose",
]

_SIGMA_FLOOR = 1e-12
_DUPLICATE_TOL = 1e-6
_TOP_ANCHORS = 5
_COMPASS_STEP = 0.125
_COMPASS_MIN_STEP = 1e-4


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # loaded at the first model proposal

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


@dataclass(frozen=True, eq=False)
class AcquisitionContext:
    """Everything the proposal search needs about the current model state.

    ``posterior`` is the fitted ensemble, as ``fit_posterior`` returns it
    (members weigh equally, and every acquisition call scores them all in
    one pass), ``incumbent`` the best observed raw value in minimisation
    form, ``pending`` the ``(m, w)`` array of encoded points currently
    being evaluated (``m`` may be 0), which ``propose`` only reads, and
    ``space`` the search space for snapping.
    """

    posterior: GpPosterior
    incumbent: float
    pending: np.ndarray
    space: SearchSpace


def acquisition_values(x: np.ndarray, ctx: AcquisitionContext) -> np.ndarray:
    """Ensemble-averaged expected improvement at a stack of encoded points."""
    mean, var = predict_stack(ctx.posterior, x)
    return expected_improvement(mean, var, ctx.incumbent).mean(axis=0)


def _refine(starts: np.ndarray, values: np.ndarray,
            ctx: AcquisitionContext) -> tuple[np.ndarray, np.ndarray]:
    """Batched compass search from several anchors at once.

    Each round probes ``x +- r * e_j`` for every coordinate of every live
    start, clipped to the unit cube, and scores all probes in one
    acquisition call.  A start moves to its best probe when that beats
    its current value and otherwise halves its own step ``r`` (initially
    0.125); it stops once ``r`` is at most 1e-4.  Deterministic.  Returns
    refined points and values; per start the value never drops below its
    anchor value.
    """
    x = starts.astype(float)
    fx = values.astype(float)
    k, dim = x.shape
    steps = np.vstack([np.eye(dim), -np.eye(dim)])
    r = np.full(k, _COMPASS_STEP)
    live = np.arange(k)
    while live.size:
        probes = np.clip(x[live, np.newaxis, :]
                         + r[live, np.newaxis, np.newaxis] * steps, 0.0, 1.0)
        scores = acquisition_values(probes.reshape(-1, dim), ctx)
        scores = scores.reshape(live.size, 2 * dim)
        best = np.argmax(scores, axis=1)
        best_f = scores[np.arange(live.size), best]
        moves = best_f > fx[live]
        moved = live[moves]
        x[moved] = probes[moves, best[moves]]
        fx[moved] = best_f[moves]
        r[live[~moves]] *= 0.5
        live = live[r[live] > _COMPASS_MIN_STEP]
    return x, fx


@functools.cache
def _sobol_anchors(width: int, count: int) -> np.ndarray:
    """The Sobol' anchor set for an encoded width, shared and read-only."""
    anchors = sobol_points(width, count, skip=1)
    anchors.flags.writeable = False
    return anchors


def _min_distance(x: np.ndarray, existing: np.ndarray) -> float:
    if existing.shape[0] == 0:
        return math.inf
    return float(np.min(np.linalg.norm(existing - x[np.newaxis, :], axis=1)))


def propose(ctx: AcquisitionContext, seed: int | np.random.SeedSequence) -> Configuration:
    """Pick the next configuration to evaluate.

    Scores a Sobol' anchor set of ``min(2048, 512 * w)`` points (computed
    once per width), refines the five best anchors by a batched compass
    search, snaps each refined point onto a representable configuration,
    scores the survivors in one batch, and returns the one with the
    highest acquisition value (the first, on a tie).  Candidates within
    Euclidean distance 1e-6 of a pending or evaluated design point are
    discarded; if nothing survives, the best snapped anchor that does not
    collide is used.  When every anchor collides as well, the first
    refined candidate (the snap of the best anchor's refinement) is
    returned, a duplicate of a pending or evaluated point.  Either
    fallback logs a warning.  ``seed`` draws the anchors only for widths
    beyond the Sobol' tables.  Deterministic for a fixed context and seed.
    """
    width = ctx.space.encoded_width
    n_anchor = min(2048, 512 * width)
    if width <= MAX_DIMENSION:
        anchors = _sobol_anchors(width, n_anchor)
    else:
        anchors = np.random.default_rng(seed).random((n_anchor, width))
    values = acquisition_values(anchors, ctx)
    known = np.vstack([ctx.posterior.design, ctx.pending])

    order = np.argsort(values)[::-1]
    top = order[:_TOP_ANCHORS]
    refined, _ = _refine(anchors[top], values[top], ctx)
    candidates = [encode(decode(row, ctx.space), ctx.space) for row in refined]
    survivors = [row for row in candidates
                 if _min_distance(row, known) >= _DUPLICATE_TOL]
    if survivors:
        scores = acquisition_values(np.array(survivors), ctx)
        return decode(survivors[int(np.argmax(scores))], ctx.space)

    for idx in order:
        snapped = encode(decode(anchors[idx], ctx.space), ctx.space)
        if _min_distance(snapped, known) >= _DUPLICATE_TOL:
            logger.warning("every refined candidate collides with a pending "
                           "or evaluated point; proposing the best free anchor")
            return decode(snapped, ctx.space)

    logger.warning("every anchor collides with a pending or evaluated "
                   "point; proposing a duplicate")
    return decode(candidates[0], ctx.space)

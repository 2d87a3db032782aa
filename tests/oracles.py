"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way: explicit loops,
explicit matrix inverses, explicit determinants.  Nothing imports from
the library's numerical internals, only the plain-data containers.
"""
from __future__ import annotations

import math

import numpy as np

from tunekit.stopping import MetricCurve, StopDecision
from tunekit.surrogate import GpHyperParams


def oracle_warp(u: float, a: float, b: float) -> float:
    return 1.0 - (1.0 - u**a) ** b


def oracle_kernel(x: np.ndarray, x2: np.ndarray, theta: GpHyperParams) -> np.ndarray:
    """Matern-5/2 ARD kernel with per-coordinate warping, via loops."""
    x = np.atleast_2d(x)
    x2 = np.atleast_2d(x2)
    out = np.empty((x.shape[0], x2.shape[0]))
    for i in range(x.shape[0]):
        for j in range(x2.shape[0]):
            r2 = 0.0
            for k in range(x.shape[1]):
                wu = oracle_warp(min(max(x[i, k], 0.0), 1.0),
                                 theta.warp_a[k], theta.warp_b[k])
                wv = oracle_warp(min(max(x2[j, k], 0.0), 1.0),
                                 theta.warp_a[k], theta.warp_b[k])
                r2 += ((wu - wv) / theta.lengthscales[k]) ** 2
            r = math.sqrt(r2)
            out[i, j] = theta.amplitude * (
                1.0 + math.sqrt(5.0) * r + 5.0 * r2 / 3.0
            ) * math.exp(-math.sqrt(5.0) * r)
    return out


def _normalize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    y = np.asarray(y, dtype=float)
    mean = float(np.mean(y))
    scale = float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    return (y - mean) / scale, mean, scale


def oracle_predict(design: np.ndarray, y: np.ndarray, theta: GpHyperParams,
                   x: np.ndarray) -> tuple[float, float]:
    """Posterior mean/variance through an explicit matrix inverse."""
    design = np.atleast_2d(design)
    z, mean, scale = _normalize(y)
    gram = oracle_kernel(design, design, theta)
    gram += theta.noise_var * np.eye(design.shape[0])
    inv = np.linalg.inv(gram)
    cross = oracle_kernel(np.atleast_2d(x), design, theta)[0]
    mu = float(cross @ inv @ z)
    var = float(theta.amplitude - cross @ inv @ cross)
    return mean + scale * mu, max(var, 0.0) * scale**2


def oracle_lml(design: np.ndarray, y: np.ndarray, theta: GpHyperParams) -> float:
    """Log marginal likelihood via explicit inverse and slogdet."""
    design = np.atleast_2d(design)
    z, _, _ = _normalize(y)
    n = design.shape[0]
    gram = oracle_kernel(design, design, theta)
    gram += theta.noise_var * np.eye(n)
    sign, logdet = np.linalg.slogdet(gram)
    assert sign > 0
    return float(
        -0.5 * z @ np.linalg.inv(gram) @ z
        - 0.5 * logdet
        - 0.5 * n * math.log(2.0 * math.pi)
    )


def oracle_expected_improvement(mean: float, variance: float, incumbent: float,
                                draws: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo EI estimate and its standard error."""
    samples = rng.normal(mean, math.sqrt(max(variance, 0.0)), size=draws)
    improvement = np.maximum(incumbent - samples, 0.0)
    return float(np.mean(improvement)), float(np.std(improvement) / math.sqrt(draws))


def random_theta(rng: np.random.Generator, width: int) -> GpHyperParams:
    """A random in-bounds hyperparameter draw for oracle comparisons."""
    return GpHyperParams(
        lengthscales=np.exp(rng.uniform(-1.5, 1.5, size=width)),
        amplitude=float(np.exp(rng.uniform(-1.0, 1.0))),
        noise_var=float(np.exp(rng.uniform(math.log(1e-6), 0.0))),
        warp_a=np.exp(rng.uniform(-0.8, 0.8, size=width)),
        warp_b=np.exp(rng.uniform(-0.8, 0.8, size=width)),
    )


def oracle_value_at_or_before(curve: MetricCurve, iteration: int) -> float | None:
    """Latest value at or before ``iteration``, by a scan from the start."""
    latest = None
    for r, v in curve.points:
        if r > iteration:
            break
        latest = v
    return latest


def oracle_median_rule(running: MetricCurve, completed: list[MetricCurve],
                       r: int, goal: str = "minimize",
                       quorum: int = 4) -> StopDecision:
    """The median rule recomputed from every completed curve on each call."""
    running_value = None
    for it, v in running.points:
        if it == r:
            running_value = v
    if running_value is None:
        raise ValueError(f"no running value at iteration {r}")
    durations = [c.points[-1][0] for c in completed if c.points]
    threshold = math.inf
    if len(durations) >= quorum:
        threshold = max(1, math.floor(0.25 * float(np.median(durations))))
    if r < threshold:
        return StopDecision("continue", "below_activation")
    contributions = [
        v for c in completed
        if (v := oracle_value_at_or_before(c, r)) is not None and not math.isnan(v)
    ]
    if len(contributions) < quorum:
        return StopDecision("continue", "no_quorum")
    median = float(np.median(contributions))
    worse = running_value > median if goal == "minimize" else running_value < median
    if worse:
        return StopDecision("stop", "worse_than_median")
    return StopDecision("continue", "not_worse")

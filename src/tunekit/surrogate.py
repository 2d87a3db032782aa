"""Gaussian-process surrogate over the encoded unit cube.

The model is a zero-mean GP (after target normalisation) with a Matern-5/2
kernel, per-coordinate lengthscales, and a Kumaraswamy CDF warp applied to
every input coordinate before distances are taken.  Observations carry
homoscedastic Gaussian noise.  Fitting is a Cholesky factorisation of the
noisy kernel matrix with escalating jitter; prediction gives the posterior
over the latent function value, i.e. the observation noise is not added
back into predictive variances.

Each GP step has one implementation, which jobs and the public functions
share: ``_scaled`` (warp), ``_factor`` (noise, then Cholesky with
jitter), ``_lml`` (behind both ``lml_function`` and
``log_marginal_likelihood``) and ``predict_stack`` (behind
``predict_batch`` and ``predict``).  ``fit_posterior`` fits a whole
hyperparameter ensemble in one call and returns ``GpPosterior``, the one
fitted-posterior type, with the member axis leading.

The Cholesky factorisation and the triangular solves call LAPACK's
``potrf``, ``potrs`` and ``trtrs`` directly, as ``_potrf``, ``_potrs``
and ``_trtrs``.  Each name is resolved through ``scipy.linalg`` on its
first call and then rebound to the routine itself, so importing this
module does not load SciPy and later calls pay no lookup.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CholeskyFailure",
    "GpHyperParams",
    "GpPosterior",
    "LENGTHSCALE_BOUNDS",
    "AMPLITUDE_BOUNDS",
    "NOISE_BOUNDS",
    "WARP_BOUNDS",
    "kumaraswamy_warp",
    "kernel_matrix",
    "fit_posterior",
    "predict",
    "predict_batch",
    "predict_stack",
    "log_marginal_likelihood",
    "lml_function",
]

_SQRT5 = math.sqrt(5.0)
_LOG_2PI = math.log(2.0 * math.pi)

LENGTHSCALE_BOUNDS = (1e-4, 1e4)
AMPLITUDE_BOUNDS = (1e-4, 1e4)
NOISE_BOUNDS = (1e-8, 1.0)
WARP_BOUNDS = (0.1, 10.0)

_JITTER_RETRIES = 5
_STD_FLOOR = 1e-12
_STACK_BLOCK_ELEMENTS = 1 << 16


def _lapack_on_first_call(name: str):
    """Stand-in for ``_<name>`` that rebinds it to the routine, then calls it."""
    def first_call(*args, **kwargs):
        from scipy.linalg import get_lapack_funcs

        routine, = get_lapack_funcs((name,), (np.empty(0),))
        globals()[f"_{name}"] = routine
        return routine(*args, **kwargs)

    return first_call


# Double-precision LAPACK routines, called directly: the scipy.linalg
# wrappers cost more than the factorisation itself at these sizes.
_potrf, _potrs, _trtrs = map(_lapack_on_first_call, ("potrf", "potrs", "trtrs"))


class CholeskyFailure(RuntimeError):
    """Kernel matrix stayed non-positive-definite after all jitter retries."""


@dataclass(frozen=True, eq=False)
class GpHyperParams:
    """Kernel and noise hyperparameters for an input width ``w``.

    Attributes
    ----------
    lengthscales : numpy.ndarray
        Per-coordinate lengthscales, shape ``(w,)``.
    amplitude : float
        Kernel variance at zero distance.
    noise_var : float
        Homoscedastic observation-noise variance.
    warp_a, warp_b : numpy.ndarray
        Per-coordinate Kumaraswamy shape parameters, shape ``(w,)``.
    """

    lengthscales: np.ndarray
    amplitude: float
    noise_var: float
    warp_a: np.ndarray
    warp_b: np.ndarray

    @property
    def width(self) -> int:
        return self.lengthscales.shape[0]

    @classmethod
    def default(cls, width: int) -> "GpHyperParams":
        """Neutral starting point: moderate lengthscales, identity warp."""
        return cls(
            lengthscales=np.full(width, 0.5),
            amplitude=1.0,
            noise_var=1e-3,
            warp_a=np.ones(width),
            warp_b=np.ones(width),
        )

    # The log-vector layout [lengthscales, amplitude, noise_var, warp_a, warp_b]
    # is the parameterisation slice sampling moves in.

    def to_log_vector(self) -> np.ndarray:
        return np.log(np.concatenate([
            self.lengthscales,
            [self.amplitude, self.noise_var],
            self.warp_a,
            self.warp_b,
        ]))

    @classmethod
    def from_log_vector(cls, vec: np.ndarray, width: int) -> "GpHyperParams":
        lengthscales, amplitude, noise_var, warp_a, warp_b = _unpack(vec, width)
        return cls(lengthscales=lengthscales, amplitude=float(amplitude),
                   noise_var=float(noise_var), warp_a=warp_a, warp_b=warp_b)

    @staticmethod
    def log_bounds(width: int) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise (lower, upper) for the log-vector box."""
        lo = np.concatenate([
            np.full(width, LENGTHSCALE_BOUNDS[0]),
            [AMPLITUDE_BOUNDS[0], NOISE_BOUNDS[0]],
            np.full(2 * width, WARP_BOUNDS[0]),
        ])
        hi = np.concatenate([
            np.full(width, LENGTHSCALE_BOUNDS[1]),
            [AMPLITUDE_BOUNDS[1], NOISE_BOUNDS[1]],
            np.full(2 * width, WARP_BOUNDS[1]),
        ])
        return np.log(lo), np.log(hi)


@dataclass(frozen=True, eq=False)
class GpPosterior:
    """Fitted posterior of ``S`` ensemble members, the member axis leading.

    Holds what ``predict_stack`` reads, so one vectorised pass serves all
    members; ``fit_posterior`` builds it, one member per hyperparameter
    sample that factorises.  Shapes: ``design``, the encoded design rows
    the members share, is ``(n, w)``; ``warp_a``, ``warp_b`` and
    ``lengthscales`` are ``(S, 1, w)``; ``amplitude``, ``target_mean``
    and ``target_scale`` are ``(S, 1)``; ``scaled_design``, the warped,
    lengthscale-scaled design, is ``(S, n, w)``, ``alpha`` ``(S, n, 1)``,
    and ``chol_inv``, the inverse of each member's lower Cholesky factor,
    ``(S, n, n)``.
    """

    design: np.ndarray
    warp_a: np.ndarray
    warp_b: np.ndarray
    lengthscales: np.ndarray
    amplitude: np.ndarray
    target_mean: np.ndarray
    target_scale: np.ndarray
    scaled_design: np.ndarray
    alpha: np.ndarray
    chol_inv: np.ndarray


def _unpack(log_theta, width: int):
    """Log vector -> (lengthscales, amplitude, noise_var, warp_a, warp_b)."""
    x = np.exp(log_theta)
    if x.shape != (3 * width + 2,):
        raise ValueError(
            f"expected a log vector of length {3 * width + 2}, got {x.shape}")
    return (x[:width], x[width], x[width + 1], x[width + 2:2 * width + 2],
            x[2 * width + 2:])


def _clip(x) -> np.ndarray:
    """Encoded points as a 2-D array in the cube (the clip absorbs rounding)."""
    return np.clip(np.atleast_2d(np.asarray(x, dtype=float)), 0.0, 1.0)


def _scaled(clipped: np.ndarray, warp_a, warp_b, lengthscales) -> np.ndarray:
    """Warped inputs over the lengthscales; one call can serve an ensemble."""
    return (1.0 - (1.0 - clipped ** warp_a) ** warp_b) / lengthscales


def kumaraswamy_warp(u, a, b):
    """Kumaraswamy CDF ``1 - (1 - u^a)^b``, elementwise.

    ``u`` may be a scalar or array with values in ``[0, 1]``; values up to
    1e-12 outside are clamped, anything further out raises ``ValueError``.
    ``a`` and ``b`` broadcast against ``u``.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("warp input must lie in [0, 1] (up to 1e-12 slack)")
    out = _scaled(np.clip(arr, 0.0, 1.0), a, b, 1.0)
    return float(out) if np.ndim(u) == 0 and np.ndim(out) == 0 else out


def _sq_dists(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``(..., m, w)`` and ``(..., n, w)``.

    Leading axes broadcast; the result has shape ``(..., m, n)``.  Summed
    coordinate by coordinate, so no ``(..., m, n, w)`` temporary is made.
    """
    d2 = wa[..., :, np.newaxis, 0] - wb[..., np.newaxis, :, 0]
    d2 *= d2
    for j in range(1, wa.shape[-1]):
        diff = wa[..., :, np.newaxis, j] - wb[..., np.newaxis, :, j]
        diff *= diff
        d2 += diff
    return d2


def _matern_from_scaled(wa: np.ndarray, wb: np.ndarray, amplitude) -> np.ndarray:
    """Kernel from pre-warped, lengthscale-scaled coordinates.

    Leading axes of ``wa``, ``wb`` and ``amplitude`` broadcast, so one call
    serves a whole ensemble.
    """
    d2 = _sq_dists(wa, wb)
    # amplitude * (1 + sqrt(5) r + 5/3 r^2) * exp(-sqrt(5) r), in place
    t = np.sqrt(d2)
    t *= _SQRT5
    k = t + 1.0
    d2 *= 5.0 / 3.0
    k += d2
    k *= amplitude
    np.negative(t, out=t)
    k *= np.exp(t, out=t)
    return k


def kernel_matrix(x: np.ndarray, x2: np.ndarray, theta: GpHyperParams) -> np.ndarray:
    """Matern-5/2 cross-covariance between two stacks of encoded points."""
    params = theta.warp_a, theta.warp_b, theta.lengthscales
    return _matern_from_scaled(_scaled(_clip(x), *params),
                               _scaled(_clip(x2), *params), theta.amplitude)


def _normalize_targets(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Standardised targets ``z`` and the ``(mean, scale)`` that made them."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return y.copy(), 0.0, 1.0
    mean = float(y.mean())
    std = float(y.std())
    scale = std if std >= _STD_FLOOR else 1.0
    return (y - mean) / scale, mean, scale


def _factor(k: np.ndarray, amplitude: float, noise_var: float) -> np.ndarray:
    """Lower Cholesky factor of kernel matrix ``k`` plus observation noise.

    Adds ``noise_var`` to the diagonal of ``k`` in place, then retries a
    failed factorisation with jitter growing from ``1e-10 * amplitude``
    tenfold per retry.
    """
    n = k.shape[0]
    k.flat[::n + 1] += noise_var
    chol, info = _potrf(k, lower=1)
    if info == 0:
        return chol
    jitter = 1e-10 * amplitude
    eye = np.eye(n)
    for _ in range(_JITTER_RETRIES):
        chol, info = _potrf(k + jitter * eye, lower=1)
        if info == 0:
            return chol
        jitter *= 10.0
    raise CholeskyFailure(
        f"kernel matrix of size {n} is not positive definite "
        f"even with jitter up to {jitter / 10.0:g}"
    )


def _lml(clipped: np.ndarray, z: np.ndarray, lengthscales, amplitude,
         noise_var, warp_a, warp_b) -> float:
    """Log marginal likelihood of normalised targets ``z`` at clipped inputs."""
    n = z.shape[0]
    if n == 0:
        return 0.0
    scaled = _scaled(clipped, warp_a, warp_b, lengthscales)
    chol = _factor(_matern_from_scaled(scaled, scaled, amplitude), amplitude,
                   noise_var)
    v, _ = _trtrs(chol, z, lower=1)
    return float(-0.5 * (v @ v) - np.log(chol.diagonal()).sum()
                 - 0.5 * n * _LOG_2PI)


def _checked_data(design, y, width: int):
    """Design as an ``(n, width)`` float array and ``_normalize_targets(y)``."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    if design.size == 0:
        design = design.reshape(0, width)
    y = np.asarray(y, dtype=float)
    if design.shape[0] != y.shape[0]:
        raise ValueError("design and targets disagree on the number of rows")
    if design.shape[1] != width:
        raise ValueError("design width does not match the hyperparameters")
    return design, _normalize_targets(y)


def fit_posterior(design: np.ndarray, y: np.ndarray,
                  thetas: Sequence[GpHyperParams]) -> GpPosterior:
    """Factorise the model under every hyperparameter sample at once.

    All members are warped and their kernel matrices built in one
    vectorised pass; each is then factorised on its own.  A sample whose
    kernel matrix cannot be factorised is dropped, the others keep their
    order, so the result has ``S <= len(thetas)`` members.  A sample whose
    factor has a non-finite diagonal, as a NaN kernel matrix gives, is
    dropped the same way.

    Parameters
    ----------
    design : numpy.ndarray
        Encoded inputs, shape ``(n, w)``.  ``n = 0`` is allowed and yields
        the prior.
    y : numpy.ndarray
        Raw observed values, shape ``(n,)``.
    thetas : sequence of GpHyperParams
        The samples, all of width ``w``.

    Raises
    ------
    ValueError
        If ``thetas`` is empty or the data and widths disagree.
    CholeskyFailure
        If no sample's noisy kernel matrix has a finite factorisation
        after jitter retries.
    """
    thetas = tuple(thetas)
    if not thetas:
        raise ValueError("fit_posterior needs at least one hyperparameter sample")
    design, (z, mean, scale) = _checked_data(design, y, thetas[0].width)
    n = design.shape[0]
    warp_a, warp_b, lengthscales = (
        np.stack([getattr(theta, name) for theta in thetas])[:, np.newaxis]
        for name in ("warp_a", "warp_b", "lengthscales"))
    amplitude = np.array([[theta.amplitude] for theta in thetas])
    scaled = _scaled(np.clip(design, 0.0, 1.0), warp_a, warp_b, lengthscales)
    kernels = _matern_from_scaled(scaled, scaled, amplitude[:, :, np.newaxis])
    alpha = np.zeros((len(thetas), n, 1))
    chol_inv = np.zeros((len(thetas), n, n))
    eye = np.eye(n)
    kept = []
    for s, theta in enumerate(thetas):
        try:
            chol = _factor(kernels[s], theta.amplitude, theta.noise_var)
        except CholeskyFailure:
            continue
        if not np.isfinite(chol.diagonal()).all():
            continue  # LAPACK can report success on a NaN matrix
        kept.append(s)
        if n:  # the LAPACK solvers reject an empty system
            alpha[s, :, 0] = _potrs(chol, z, lower=1)[0]
            chol_inv[s] = _trtrs(chol, eye, lower=1)[0]
    if not kept:
        raise CholeskyFailure("no hyperparameter sample could be factorised")
    return GpPosterior(
        design=design, warp_a=warp_a[kept], warp_b=warp_b[kept],
        lengthscales=lengthscales[kept], amplitude=amplitude[kept],
        target_mean=np.full((len(kept), 1), mean),
        target_scale=np.full((len(kept), 1), scale),
        scaled_design=scaled[kept], alpha=alpha[kept], chol_inv=chol_inv[kept])


def predict_batch(post: GpPosterior, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the latent function at a stack of points.

    ``post`` is a one-member posterior, as ``fit_posterior`` returns for
    one sample; this is ``predict_stack``'s row for that member.  Returns
    raw-scale means and variances (the normalisation is undone).
    Variances exclude the observation noise and are clamped at zero.
    """
    mean, var = predict_stack(post, x)
    return mean[0], var[0]


def predict(post: GpPosterior, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and variance at a single encoded point."""
    mean, var = predict_batch(post, np.atleast_2d(x))
    return float(mean[0]), float(var[0])


def predict_stack(stack: GpPosterior,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of every member at a stack of points.

    Returns two ``(S, m)`` arrays for ``m`` points; row ``s`` equals
    ``predict_batch`` of a one-sample fit of member ``s``'s
    hyperparameters, up to rounding.  Points go through
    in blocks so the ``(S, block, n)`` temporaries stay near
    ``_STACK_BLOCK_ELEMENTS`` entries.
    """
    x = _clip(x)
    members, n = stack.alpha.shape[:2]
    block = max(1, _STACK_BLOCK_ELEMENTS // (members * max(n, 1)))
    if x.shape[0] > block:
        parts = [predict_stack(stack, x[i:i + block])
                 for i in range(0, x.shape[0], block)]
        return (np.concatenate([mean for mean, _ in parts], axis=1),
                np.concatenate([var for _, var in parts], axis=1))
    wx = _scaled(x, stack.warp_a, stack.warp_b, stack.lengthscales)
    k_star = _matern_from_scaled(wx, stack.scaled_design,
                                 stack.amplitude[:, :, np.newaxis])
    mean_z = (k_star @ stack.alpha)[:, :, 0]
    v = k_star @ stack.chol_inv.transpose(0, 2, 1)
    var_z = stack.amplitude - np.einsum("smn,smn->sm", v, v)
    np.maximum(var_z, 0.0, out=var_z)
    scale = stack.target_scale
    return stack.target_mean + scale * mean_z, (scale ** 2) * var_z


def lml_function(design: np.ndarray, y: np.ndarray):
    """Fast evaluator of the log marginal likelihood over hyperparameters.

    Precomputes the target normalisation once, which matters when the
    same data is scored under thousands of hyperparameter settings during
    slice sampling.  The returned callable takes a log vector (the layout
    of ``GpHyperParams.to_log_vector``); for every ``theta`` its value at
    ``theta.to_log_vector()`` equals
    ``log_marginal_likelihood(design, y, theta)``.  It raises
    ``CholeskyFailure`` where that function does.
    """
    clipped = _clip(design)
    z = _normalize_targets(y)[0]
    width = clipped.shape[1]

    def lml(log_theta: np.ndarray) -> float:
        return _lml(clipped, z, *_unpack(log_theta, width))

    return lml


def log_marginal_likelihood(design: np.ndarray, y: np.ndarray,
                            theta: GpHyperParams) -> float:
    """Log marginal likelihood of the normalised targets under ``theta``."""
    design, (z, _, _) = _checked_data(design, y, theta.width)
    return _lml(np.clip(design, 0.0, 1.0), z, theta.lengthscales,
                theta.amplitude, theta.noise_var, theta.warp_a, theta.warp_b)

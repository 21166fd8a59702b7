"""L1-regularized EM for the univariate-response model with diagonal
gating covariances.

The fit runs the EM loop and multi-start driver of :mod:`mogge.em` with
its own M-step and the penalized objective.  The M-step keeps the
closed-form mixing-weight update and replaces the mean/coefficient
updates with soft-threshold updates of the penalized Q-functions: one
closed-form soft-threshold per gating mean, cyclic coordinate ascent for
the expert coefficients.  The coordinate ascent works on the weighted
Gram matrix of the predictors, formed once per call, so a coordinate
update costs O(p) whatever n is; it stops when a full sweep moves no
fitted value by ``ca_tol`` expert standard deviations or more.
Thresholds use the lagged variances (previous EM iteration), and the
expert intercept stays lagged inside the coordinate loop; both are
refreshed once per EM iteration afterwards.  Coefficients zeroed by
soft-thresholding are stored as exact ``0.0`` so that downstream
degrees-of-freedom and zero-recovery computations can test equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import FitOptions, FitResult, _component_masses, _multistart
from .model import (
    VARIANCE_FLOOR,
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
    Responsibilities,
    UnsupportedConfigError,
    _penalize,
    _Stack,
)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and coordinate-ascent stopping rule.

    ``lam`` scales the L1 penalty on expert coefficient vectors, ``gamma``
    the one on gating mean vectors.  The expert coordinate ascent stops
    after ``ca_max_iter`` sweeps, or after the first sweep in which every
    change of fitted values ``sqrt(G_jj / n_k) * |delta beta_kj| / sigma_k``
    (weighted RMS, in expert standard deviations) is below ``ca_tol``; this
    means the same at any n and any scale of X and y.
    """

    lam: float
    gamma: float
    ca_max_iter: int = 100
    ca_tol: float = 1e-7

    def __post_init__(self):
        if self.lam < 0.0 or self.gamma < 0.0:
            raise ValueError("penalty weights must be nonnegative")
        if self.ca_max_iter < 1:
            raise ValueError("ca_max_iter must be at least 1")
        if not self.ca_tol > 0.0:
            raise ValueError("ca_tol must be positive")


def soft_threshold(u, eta):
    """Soft-thresholding ``sign(u) * max(|u| - eta, 0)``.

    Scalar in, float out; array in, array out.  ``eta`` may be a scalar
    or an array broadcasting against ``u``.  Zeroed values compare equal
    to ``0.0`` (negative zero is normalized away).
    """
    if isinstance(u, float) and not isinstance(eta, np.ndarray):
        # plain float arithmetic: the coordinate-ascent loop calls this
        # once per coordinate per sweep
        u, eta = float(u), float(eta)
        if eta < 0.0:
            raise ValueError("threshold must be nonnegative")
        return ((u > 0.0) - (u < 0.0)) * max(abs(u) - eta, 0.0) + 0.0
    negative = (eta < 0.0).any() if isinstance(eta, np.ndarray) else eta < 0.0
    if negative:
        raise ValueError("threshold must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.sign(u) * np.maximum(np.abs(u) - eta, 0.0) + 0.0
    if out.ndim == 0:
        return float(out)
    return out


def _gating_means(X: np.ndarray, T: np.ndarray, nk: np.ndarray, R_prev: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Stacked soft-threshold gating means (K, p), lagged variances ``R_prev``."""
    XtT = (X.T @ np.swapaxes(T, -1, -2)[..., None])[..., 0]
    return soft_threshold(XtT, gamma * R_prev) / nk[..., None]


def _gating_variances(X: np.ndarray, T: np.ndarray, nk: np.ndarray,
                      mu: np.ndarray) -> np.ndarray:
    """Stacked weighted per-coordinate variances (K, p) around ``mu``, floored."""
    sq = X - mu[..., None, :]
    sq *= sq
    Tt = np.swapaxes(T, -1, -2)[..., None, :]  # (K, 1, n)
    return np.maximum((Tt @ sq)[..., 0, :] / nk[..., None], VARIANCE_FLOOR)


def _expert_coeffs(X: np.ndarray, y: np.ndarray, w: np.ndarray, nk: float,
                   b0: float, sigma2: float, beta: np.ndarray, lam: float,
                   ca_max_iter: int, ca_tol: float) -> np.ndarray:
    """Coordinate ascent for one expert from ``beta`` with the lagged
    intercept ``b0`` and variance ``sigma2``; ``nk = sum(w)``."""
    WX = X * w[:, None]
    G = WX.T @ X
    rows = list(G)
    c = (WX.T @ (y - b0)).tolist()
    eta = lam * sigma2
    # change in fitted values, in units of sigma, per unit change of beta_j
    scale = np.sqrt(G.diagonal() / (nk * sigma2)).tolist()
    g = G.diagonal().tolist()
    beta = beta.copy()
    b = beta.tolist()  # float copy of beta for the scalar reads
    for _ in range(ca_max_iter):
        change = 0.0
        for j in range(X.shape[1]):
            old = b[j]
            if g[j] <= 0.0:
                new = 0.0
            else:
                new = soft_threshold(c[j] - rows[j] @ beta + g[j] * old, eta) / g[j]
            beta[j] = b[j] = new
            d = scale[j] * abs(new - old)
            if d > change:
                change = d
        if change < ca_tol:
            break
    return beta


def _intercept_variance(X: np.ndarray, y: np.ndarray, w: np.ndarray, nk: float,
                        beta: np.ndarray) -> tuple[float, float]:
    """Weighted intercept and floored variance of one expert given ``beta``."""
    resid = y - X @ beta
    b0 = float(w @ resid) / nk
    return b0, max(float(w @ (resid - b0) ** 2) / nk, VARIANCE_FLOOR)


def ca_update_gating_means(data: DataSet, tau: Responsibilities,
                           gating_prev: tuple[GatingComponent, ...],
                           gamma: float) -> list[np.ndarray]:
    """Closed-form update of all gating mean vectors.

    Each coordinate is ``S(X_j' tau_k; gamma * nu2_kj) / sum(tau_k)`` with
    the lagged variances ``nu2_kj``.  With diagonal covariances the
    coordinates of the penalized Q-function are decoupled, so this is its
    exact maximizer: one soft-threshold per component, no iteration.
    """
    if gating_prev[0].R.ndim != 1:
        raise UnsupportedConfigError("gating means update requires diagonal covariances")
    R_prev = np.stack([g.R for g in gating_prev])
    return list(_gating_means(data.X, tau.tau, _component_masses(tau.tau, data.n),
                              R_prev, gamma))


def update_gating_variances(data: DataSet, tau: Responsibilities,
                            mu_new: list[np.ndarray]) -> list[np.ndarray]:
    """Weighted per-coordinate variances around the new means, floored."""
    nk = _component_masses(tau.tau, data.n)
    return list(_gating_variances(data.X, tau.tau, nk, np.stack(mu_new)))


def ca_update_expert_coeffs(data: DataSet, tau_k: np.ndarray,
                            expert_prev: ExpertComponent, lam: float,
                            ca_max_iter: int = PenaltyConfig.ca_max_iter,
                            ca_tol: float = PenaltyConfig.ca_tol) -> np.ndarray:
    """Coordinate-ascent solve of one expert's weighted lasso problem.

    Cycles ``beta_kj <- S(c_j - G_j' beta + G_jj beta_kj; lam * sigma2) / G_jj``
    with the weighted Gram matrix ``G = X' W X`` and ``c = X' W (y - b0)``,
    both formed once per call (the covariance updates of Friedman, Hastie
    and Tibshirani, 2010), so a coordinate update costs O(p), not O(n).
    The intercept ``b0`` and variance ``sigma2`` stay lagged throughout;
    coordinates with ``G_jj == 0`` are forced to 0.  Sweeps stop by the
    n-free rule of :class:`PenaltyConfig` (``n_k = sum(tau_k)``).
    """
    if data.d != 1 or expert_prev.d != 1:
        raise UnsupportedConfigError("expert coefficient update requires d = 1")
    w = np.asarray(tau_k, dtype=float)
    nk = _component_masses(w[:, None], data.n)[0]
    return _expert_coeffs(data.X, data.y1, w, nk, expert_prev.intercept[0],
                          expert_prev.variance, expert_prev.beta, lam,
                          ca_max_iter, ca_tol)


def update_expert_intercept_variance(data: DataSet, tau_k: np.ndarray,
                                     beta_new: np.ndarray) -> tuple[float, float]:
    """Standard weighted intercept and (floored) variance updates given the
    freshly updated coefficient vector."""
    if data.d != 1:
        raise UnsupportedConfigError("intercept/variance update requires d = 1")
    w = np.asarray(tau_k, dtype=float)
    nk = _component_masses(w[:, None], data.n)[0]
    return _intercept_variance(data.X, data.y1, w, nk, beta_new)


def _lasso_m_step(data: DataSet, T: np.ndarray, nk: np.ndarray, s: _Stack,
                  penalty: PenaltyConfig) -> _Stack:
    """Closed-form mixing weights, soft-threshold gating means, floored
    gating variances, then per expert of the (S, K) stack the
    coordinate-ascent coefficients and the intercept and variance."""
    X, y = data.X, data.y1
    mu = _gating_means(X, T, nk, s.R, penalty.gamma)
    b0, sigma2, beta = np.empty_like(s.a), np.empty_like(s.Sigma), np.empty_like(s.B)
    for i, k in np.ndindex(nk.shape):
        w = T[i, :, k]
        beta[i, k, :, 0] = _expert_coeffs(
            X, y, w, nk[i, k], s.a[i, k, 0], s.Sigma[i, k, 0, 0], s.B[i, k, :, 0],
            penalty.lam, penalty.ca_max_iter, penalty.ca_tol)
        b0[i, k], sigma2[i, k] = _intercept_variance(X, y, w, nk[i, k], beta[i, k, :, 0])
    return _Stack(nk / nk.sum(axis=-1, keepdims=True), mu, _gating_variances(X, T, nk, mu),
                  b0, beta, sigma2)


def fit_em_lasso(data: DataSet, K: int, penalty: PenaltyConfig,
                 opts: FitOptions | None = None,
                 warm_start: MoggeParams | None = None) -> FitResult:
    """Fit the penalized model by EM with coordinate-ascent M-steps.

    Multi-start like :func:`mogge.em.fit_em` (identically seeded starts,
    diagonal gating layout), unless ``warm_start`` parameters are given, in
    which case a single run starts from them.  The objective and the trace
    are the penalized joint log-likelihood.
    """
    if data.d != 1:
        raise UnsupportedConfigError("penalized fitting requires d = 1")
    if warm_start is not None:
        if not warm_start.has_diagonal_gating:
            raise UnsupportedConfigError(
                "warm start must use diagonal gating covariances"
            )
        if warm_start.K != K or warm_start.p != data.p or warm_start.d != 1:
            raise ValueError("warm start dimensions do not match the request")
    return _multistart(
        data, K, opts or FitOptions(),
        lambda data, T, nk, s: _lasso_m_step(data, T, nk, s, penalty),
        lambda loglik, s: _penalize(loglik, s, penalty.lam, penalty.gamma),
        diagonal_gating=True, warm_start=warm_start,
    )

"""L1-regularized EM for the univariate-response model with diagonal
gating covariances.

The fit runs the EM loop and multi-start driver of :mod:`mogge.em` with
its own M-step and the penalized objective.  The M-step keeps the
closed-form mixing-weight update and replaces the mean/coefficient
updates with soft-threshold updates of the penalized Q-functions: one
closed-form soft-threshold per gating mean, cyclic coordinate ascent for
the expert coefficients.  Thresholds use the lagged variances
(previous EM iteration), and the expert intercept stays lagged inside
the coordinate loop; both are refreshed once per EM iteration
afterwards.  Coefficients zeroed by soft-thresholding are stored as
exact ``0.0`` so that downstream degrees-of-freedom and zero-recovery
computations can test equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import FitOptions, FitResult, _check_component_masses, _multistart
from .model import (
    VARIANCE_FLOOR,
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
    Responsibilities,
    UnsupportedConfigError,
    _penalize,
)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and coordinate-ascent stopping rule.

    ``lam`` scales the L1 penalty on expert coefficient vectors, ``gamma``
    the one on gating mean vectors.
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
    # a scalar threshold skips the array reduction: the coordinate-ascent
    # loop calls this once per coordinate
    negative = (eta < 0.0).any() if isinstance(eta, np.ndarray) else eta < 0.0
    if negative:
        raise ValueError("threshold must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.sign(u) * np.maximum(np.abs(u) - eta, 0.0) + 0.0
    if out.ndim == 0:
        return float(out)
    return out


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
    T = tau.tau
    nk = T.sum(axis=0)
    _check_component_masses(nk, data.n)
    return [
        soft_threshold(data.X.T @ T[:, k], gamma * g.R) / nk[k]
        for k, g in enumerate(gating_prev)
    ]


def update_gating_variances(data: DataSet, tau: Responsibilities,
                            mu_new: list[np.ndarray]) -> list[np.ndarray]:
    """Weighted per-coordinate variances around the new means, floored."""
    T = tau.tau
    nk = T.sum(axis=0)
    _check_component_masses(nk, data.n)
    out = []
    for k in range(tau.K):
        diff = data.X - mu_new[k]
        nu2 = T[:, k] @ (diff * diff) / nk[k]
        out.append(np.maximum(nu2, VARIANCE_FLOOR))
    return out


def ca_update_expert_coeffs(data: DataSet, tau_k: np.ndarray,
                            expert_prev: ExpertComponent, lam: float,
                            ca_max_iter: int = PenaltyConfig.ca_max_iter,
                            ca_tol: float = PenaltyConfig.ca_tol,
                            component: int = 1) -> np.ndarray:
    """Coordinate-ascent solve of one expert's weighted lasso problem.

    Cycles ``beta_kj <- S(X_j' W r_kj; lam * sigma2) / (X_j' W X_j)`` with
    the partial residual ``r_kj`` excluding coordinate j; the intercept and
    variance stay at their lagged values throughout the loop.  Coordinates
    whose weighted column norm vanishes are forced to 0.
    """
    if data.d != 1 or expert_prev.d != 1:
        raise UnsupportedConfigError("expert coefficient update requires d = 1")
    _check_component_masses([float(np.sum(tau_k))], data.n, first=component)
    w = np.asarray(tau_k, dtype=float)
    y = data.y1
    X = data.X
    b0 = float(expert_prev.intercept[0])
    sigma2 = expert_prev.variance
    eta = lam * sigma2
    beta = expert_prev.beta.copy()
    wXsq = w @ (X * X)

    def q_value(r):
        return -0.5 * float(w @ (r * r)) / sigma2 - lam * float(np.sum(np.abs(beta)))

    r = y - b0 - X @ beta
    q_prev = q_value(r)
    for _ in range(ca_max_iter):
        r = y - b0 - X @ beta
        for j in range(data.p):
            if wXsq[j] <= 0.0:
                # weighted column is identically zero, so is the numerator
                r += beta[j] * X[:, j]
                beta[j] = 0.0
                continue
            num = X[:, j] @ (w * r) + beta[j] * wXsq[j]
            new_bj = soft_threshold(num, eta) / wXsq[j]
            r += (beta[j] - new_bj) * X[:, j]
            beta[j] = new_bj
        q_new = q_value(r)
        if abs(q_new - q_prev) < ca_tol:
            break
        q_prev = q_new
    return beta


def update_expert_intercept_variance(data: DataSet, tau_k: np.ndarray,
                                     beta_new: np.ndarray,
                                     component: int = 1) -> tuple[float, float]:
    """Standard weighted intercept and (floored) variance updates given the
    freshly updated coefficient vector."""
    if data.d != 1:
        raise UnsupportedConfigError("intercept/variance update requires d = 1")
    w = np.asarray(tau_k, dtype=float)
    s = float(np.sum(w))
    _check_component_masses([s], data.n, first=component)
    resid = data.y1 - data.X @ beta_new
    b0 = float(w @ resid) / s
    sigma2 = float(w @ (resid - b0) ** 2) / s
    return b0, max(sigma2, VARIANCE_FLOOR)


def _lasso_m_step(data: DataSet, tau: Responsibilities, params: MoggeParams,
                  penalty: PenaltyConfig) -> MoggeParams:
    """Closed-form mixing weights, soft-threshold gating means, floored
    gating variances, then per expert the coordinate-ascent coefficients
    and the intercept and variance that go with them."""
    T = tau.tau
    nk = T.sum(axis=0)
    alphas = nk / nk.sum()
    mus = ca_update_gating_means(data, tau, params.gating, penalty.gamma)
    nus = update_gating_variances(data, tau, mus)
    gating = tuple(
        GatingComponent(alpha=float(alphas[k]), mu=mus[k], R=nus[k])
        for k in range(params.K)
    )
    experts = []
    for k in range(params.K):
        beta = ca_update_expert_coeffs(
            data, T[:, k], params.experts[k], penalty.lam,
            ca_max_iter=penalty.ca_max_iter, ca_tol=penalty.ca_tol,
            component=k + 1,
        )
        b0, s2 = update_expert_intercept_variance(
            data, T[:, k], beta, component=k + 1
        )
        experts.append(
            ExpertComponent(intercept=[b0], coeffs=beta[:, None], cov=[[s2]])
        )
    return MoggeParams(gating=gating, experts=tuple(experts))


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
        lambda data, tau, params: _lasso_m_step(data, tau, params, penalty),
        lambda loglik, params: _penalize(loglik, params, penalty.lam, penalty.gamma),
        diagonal_gating=True, warm_start=warm_start,
    )

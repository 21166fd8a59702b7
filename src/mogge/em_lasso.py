"""L1-regularized EM for the univariate-response model with diagonal
gating covariances.

The fit runs the EM loop and multi-start driver of :mod:`mogge.em` with
its own M-step and the penalized objective.  The M-step keeps the
closed-form mixing-weight update and replaces the mean/coefficient
updates with maximizers of the penalized Q-functions: one closed-form
soft-threshold per gating mean, and for the expert coefficients a
weighted lasso solved on the weighted Gram matrix of the predictors,
formed once per call for all experts of all starts.  Each expert first
takes the exact minimizer on the support and signs of its incoming
coefficients, one batched linear solve for all experts, kept when the
KKT conditions certify it (Osborne, Presnell and Turlach, 2000).  Only
the experts it does not certify run cyclic coordinate ascent from their
incoming coefficients, at O(p) per coordinate update whatever n is; it
stops when a full sweep moves no fitted value by ``ca_tol`` expert
standard deviations or more.  Thresholds use the lagged variances
(previous EM iteration), and the expert intercept stays lagged inside
the coefficient update; both are refreshed once per EM iteration
afterwards.  Zero coefficients are stored as exact ``0.0`` so that
downstream degrees-of-freedom and zero-recovery computations can test
equality.
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
    _Sample,
    _Stack,
)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and coordinate-ascent stopping rule.

    ``lam`` scales the L1 penalty on expert coefficient vectors, ``gamma``
    the one on gating mean vectors.  ``ca_max_iter`` and ``ca_tol`` govern
    the coordinate-ascent fallback of the expert update only; an expert
    whose exact step on its incoming support is certified runs no sweep.
    The coordinate ascent stops after ``ca_max_iter`` sweeps, or after the
    first sweep in which every change of fitted values
    ``sqrt(G_jj / n_k) * |delta beta_kj| / sigma_k`` (weighted RMS, in
    expert standard deviations) is below ``ca_tol``; this means the same at
    any n and any scale of X and y.
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
    """Stacked soft-threshold gating means (K, p) from the (K, n)
    responsibilities ``T``, lagged variances ``R_prev``."""
    return soft_threshold(T @ X, gamma * R_prev) / nk[..., None]


def _gating_variances(XT: np.ndarray, T: np.ndarray, nk: np.ndarray,
                      mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stacked weighted per-coordinate variances (K, p) of the columns of
    ``XT`` (p, n) around ``mu``, floored; the (K, p, n) squared deviations
    are written into ``out`` when given."""
    sq = np.subtract(XT, mu[..., None], out=out)
    sq *= sq
    return np.maximum((sq @ T[..., None])[..., 0] / nk[..., None], VARIANCE_FLOOR)


def _certified_step(G: np.ndarray, c: np.ndarray, eta: np.ndarray,
                    beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per expert, the lasso minimizer on the support and signs of ``beta``
    (K, p), and (K,) whether the KKT conditions certify it.

    Solves ``G_AA x_A = c_A - eta s_A`` with ``x = 0`` off the support A,
    all experts in one solve (rows and columns off A replaced by the
    identity).  Certified: the signs of ``x`` are ``s`` and
    ``|c_j - G_j x| <= eta`` off A, exactly, and ``x`` is finite.  An
    expert whose active block is exactly singular is not certified."""
    s = np.sign(beta)
    active = s != 0.0
    M = np.where(active[..., :, None] & active[..., None, :], G, np.eye(G.shape[-1]))
    rhs = np.where(active, c - eta[..., None] * s, 0.0)[..., None]
    try:
        x = np.linalg.solve(M, rhs)[..., 0]
    except np.linalg.LinAlgError:  # one expert at a time; a singular one stays NaN
        x = np.full_like(c, np.nan)
        for i in np.ndindex(c.shape[:-1]):
            try:
                x[i] = np.linalg.solve(M[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
    x = np.where(active, x, 0.0)  # +0.0 off A, whatever the solver's rounding
    with np.errstate(over="ignore", invalid="ignore"):
        grad = c - (G @ x[..., None])[..., 0]
        kkt = (np.sign(x) == s) & (active | (np.abs(grad) <= eta[..., None]))
    return x, kkt.all(axis=-1) & np.isfinite(x).all(axis=-1)


def _coordinate_ascent(G: np.ndarray, c: np.ndarray, nk: float, sigma2: float,
                       eta: float, beta: np.ndarray, ca_max_iter: int,
                       ca_tol: float) -> np.ndarray:
    """Cyclic coordinate ascent for one expert from ``beta`` on its Gram
    matrix ``G`` (p, p) and ``c`` (p,), threshold ``eta``."""
    rows = list(G)
    c = c.tolist()
    eta = float(eta)
    # change in fitted values, in units of sigma, per unit change of beta_j
    scale = np.sqrt(G.diagonal() / (nk * sigma2)).tolist()
    g = G.diagonal().tolist()
    beta = beta.copy()
    b = beta.tolist()  # float copy of beta for the scalar reads
    for _ in range(ca_max_iter):
        change = 0.0
        for j in range(len(b)):
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


def _expert_coeffs(sample: _Sample, T: np.ndarray, nk: np.ndarray,
                   b0: np.ndarray, sigma2: np.ndarray, beta: np.ndarray, lam: float,
                   ca_max_iter: int, ca_tol: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Lasso coefficients (K, p) of the experts weighted by ``T`` (K, n) with
    masses ``nk``, from ``beta`` (K, p) with the lagged intercepts ``b0`` and
    variances ``sigma2`` (K,): the certified step, and coordinate ascent from
    ``beta`` for the experts it does not certify.  The (K, p, n) factor
    ``X' W`` is written into ``out`` when given."""
    X, XT, YT = sample
    G = np.multiply(XT, T[..., None, :], out=out) @ X  # X' W X, (K, p, p)
    c = (T * (YT[0] - b0[..., None])) @ X  # X' W (y - b0)
    eta = lam * sigma2
    coeffs, certified = _certified_step(G, c, eta, beta)
    for i in map(tuple, np.argwhere(~certified)):
        coeffs[i] = _coordinate_ascent(G[i], c[i], nk[i], sigma2[i], eta[i], beta[i],
                                       ca_max_iter, ca_tol)
    return coeffs


def _intercepts_variances(sample: _Sample, T: np.ndarray, nk: np.ndarray,
                          beta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weighted intercepts (K,) and floored variances (K,) of the experts
    weighted by ``T`` (K, n), given their coefficients ``beta`` (K, p)."""
    W = T[..., None, :]  # (K, 1, n)
    resid = sample.YT[0] - beta @ sample.XT  # (K, n)
    b0 = (W @ resid[..., None])[..., 0, 0] / nk
    resid -= b0[..., None]
    resid *= resid
    return b0, np.maximum((W @ resid[..., None])[..., 0, 0] / nk, VARIANCE_FLOOR)


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
    T = np.ascontiguousarray(tau.tau.T)
    return list(_gating_means(data.X, T, _component_masses(T), R_prev, gamma))


def update_gating_variances(data: DataSet, tau: Responsibilities,
                            mu_new: list[np.ndarray]) -> list[np.ndarray]:
    """Weighted per-coordinate variances around the new means, floored."""
    T = np.ascontiguousarray(tau.tau.T)
    XT = np.ascontiguousarray(data.X.T)
    return list(_gating_variances(XT, T, _component_masses(T), np.stack(mu_new)))


def ca_update_expert_coeffs(data: DataSet, tau_k: np.ndarray,
                            expert_prev: ExpertComponent, lam: float,
                            ca_max_iter: int = PenaltyConfig.ca_max_iter,
                            ca_tol: float = PenaltyConfig.ca_tol) -> np.ndarray:
    """Solve one expert's weighted lasso problem.

    Minimizes ``0.5 * sum_i w_i (y_i - b0 - x_i' beta)^2 + lam * sigma2 * |beta|_1``
    with the lagged intercept ``b0`` and variance ``sigma2``, through the
    weighted Gram matrix ``G = X' W X`` and ``c = X' W (y - b0)``, formed
    once per call (the covariance updates of Friedman, Hastie and
    Tibshirani, 2010).  First the exact minimizer on the support and signs
    of the incoming coefficients: ``G_AA beta_A = c_A - lam sigma2 s_A``,
    zero off A, returned as is when the KKT conditions certify it (signs
    kept, ``|c_j - G_j' beta| <= lam sigma2`` off A), with no sweep.
    Otherwise cyclic coordinate ascent from the incoming coefficients,
    ``beta_kj <- S(c_j - G_j' beta + G_jj beta_kj; lam * sigma2) / G_jj``, at
    O(p) per coordinate update; coordinates with ``G_jj == 0`` are forced to
    0, and sweeps stop by the n-free rule of :class:`PenaltyConfig`
    (``n_k = sum(tau_k)``).
    """
    if data.d != 1 or expert_prev.d != 1:
        raise UnsupportedConfigError("expert coefficient update requires d = 1")
    T = np.ascontiguousarray(tau_k, dtype=float)[None]
    return _expert_coeffs(_Sample.of(data), T, _component_masses(T),
                          expert_prev.intercept, expert_prev.cov[0], expert_prev.beta[None],
                          lam, ca_max_iter, ca_tol)[0]


def update_expert_intercept_variance(data: DataSet, tau_k: np.ndarray,
                                     beta_new: np.ndarray) -> tuple[float, float]:
    """Standard weighted intercept and (floored) variance updates given the
    freshly updated coefficient vector."""
    if data.d != 1:
        raise UnsupportedConfigError("intercept/variance update requires d = 1")
    T = np.ascontiguousarray(tau_k, dtype=float)[None]
    b0, sigma2 = _intercepts_variances(_Sample.of(data), T, _component_masses(T),
                                       np.asarray(beta_new, dtype=float)[None])
    return float(b0[0]), float(sigma2[0])


def _lasso_m_step(sample: _Sample, T: np.ndarray, nk: np.ndarray, s: _Stack,
                  penalty: PenaltyConfig, out: np.ndarray | None = None) -> _Stack:
    """Closed-form mixing weights, soft-threshold gating means, floored
    gating variances, then for all experts of the (S, K) stack at once the
    lasso coefficients (certified step, coordinate ascent where it fails)
    and the intercepts and variances.  The (K, p, n) temporaries of the
    coefficients and of the variances are written into ``out``, one after
    the other, when given."""
    mu = _gating_means(sample.X, T, nk, s.R, penalty.gamma)
    beta = _expert_coeffs(sample, T, nk, s.a[..., 0], s.Sigma[..., 0, 0], s.B[..., 0],
                          penalty.lam, penalty.ca_max_iter, penalty.ca_tol, out)
    b0, sigma2 = _intercepts_variances(sample, T, nk, beta)
    return _Stack(nk / nk.sum(axis=-1, keepdims=True), mu,
                  _gating_variances(sample.XT, T, nk, mu, out),
                  b0[..., None], beta[..., None], sigma2[..., None, None])


def fit_em_lasso(data: DataSet, K: int, penalty: PenaltyConfig,
                 opts: FitOptions | None = None,
                 warm_start: MoggeParams | None = None) -> FitResult:
    """Fit the penalized model by EM with soft-threshold and lasso M-steps.

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
        lambda sample, T, nk, s, work: _lasso_m_step(sample, T, nk, s, penalty, work[0]),
        lambda loglik, s: _penalize(loglik, s, penalty.lam, penalty.gamma),
        diagonal_gating=True, warm_start=warm_start,
    )

"""L1-regularized EM for the univariate-response model with diagonal
gating covariances.

The fit runs the EM loop and multi-start driver of :mod:`mogge.em` with its
own M-step, kernels only, and the penalized objective.  The M-step keeps the
closed-form mixing-weight update and replaces the mean/coefficient updates
with maximizers of the penalized Q-functions: one soft-threshold per gating
mean, by the unchecked kernel of :func:`soft_threshold`, and for the expert
coefficients the exact minimizer of a weighted lasso, solved on the weighted
Gram matrix of the predictors, formed once per call for all experts of all starts.
The lasso is solved by the active-set method of Osborne, Presnell and
Turlach (2000), warm-started from the incoming coefficients as in the
feature-sign search of Lee, Battle, Raina and Ng (2007).  Round one is
the minimizer on the support and signs of the incoming coefficients,
one batched linear solve for all experts, kept when the KKT conditions
certify it; only the experts it does not certify go on, one at a time,
dropping a coordinate at the first sign change on the way to each
round's solution and adding the one that most violates the KKT
conditions off the support, until they certify (or until the one just
added comes back 0 or of the other sign, which only rounding does); one
that does not within ``64 p`` rounds fails its start.  Each diagonal
entry ``G_jj`` of the Gram matrix carries the ridge ``p * eps * G_jj``,
below the rounding of a well-conditioned solve at any scale of each
column, so that every active block is positive definite.  Thresholds use
the lagged variances (previous EM iteration), and the expert intercept
stays lagged inside the coefficient update; both are refreshed once per
EM iteration afterwards.  Zero coefficients are stored as exact ``0.0``
so that downstream degrees-of-freedom and zero-recovery computations can
test equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import FitOptions, FitResult, _component_masses, _multistart, _seeded
from .model import (
    VARIANCE_FLOOR,
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
    Responsibilities,
    UnsupportedConfigError,
    _check_penalty,
    _identity,
    _into,
    _penalize,
    _Sample,
    _Stack,
)


# Rounds of the active-set solve of one expert lasso, per coordinate.  In
# exact arithmetic the rounds end after finitely many; hitting this bound
# means rounding made them cycle, and fails the start.
_ROUNDS_PER_COORDINATE = 64


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights: ``lam`` scales the L1 penalty on expert coefficient
    vectors, ``gamma`` the one on gating mean vectors."""

    lam: float
    gamma: float

    def __post_init__(self):
        _check_penalty("penalty weights", self.lam, self.gamma)


def soft_threshold(u, eta):
    """Soft-thresholding ``sign(u) * max(|u| - eta, 0)``.

    Scalar in, float out; array in, array out.  ``eta``, finite and
    nonnegative, is a scalar or an array broadcasting against ``u``.
    Zeroed values compare equal to ``0.0`` (no negative zero).  Only this
    function checks ``eta``: the fits call the kernel :func:`_soft_threshold`.
    """
    _check_penalty("threshold", eta)
    out = _soft_threshold(np.asarray(u, dtype=float), eta)
    return float(out) if out.ndim == 0 else out


def _soft_threshold(u: np.ndarray, eta) -> np.ndarray:
    """:func:`soft_threshold` of the array ``u``, ``eta`` unchecked."""
    return np.sign(u) * np.maximum(np.abs(u) - eta, 0.0) + 0.0


def _gating_means(X: np.ndarray, T: np.ndarray, nk: np.ndarray, R_prev: np.ndarray,
                  gamma: float) -> np.ndarray:
    """Stacked soft-threshold gating means (K, p) from the (K, n)
    responsibilities ``T``, lagged variances ``R_prev``."""
    return _soft_threshold(T @ X, gamma * R_prev) / nk[..., None]


def _gating_variances(XT: np.ndarray, T: np.ndarray, nk: np.ndarray,
                      mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stacked weighted per-coordinate variances (K, p) of the columns of
    ``XT`` (p, n) around ``mu``, floored; the (K, p, n) squared deviations
    are written into ``out`` when given."""
    sq = _into(np.subtract, XT, mu[..., None], out)
    sq *= sq
    return np.maximum((sq @ T[..., None])[..., 0] / nk[..., None], VARIANCE_FLOOR)


def _certified_step(G: np.ndarray, c: np.ndarray, eta: np.ndarray,
                    beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per expert, the lasso minimizer on the support and signs of ``beta``
    (K, p), and (K,) whether the KKT conditions certify it.

    Solves ``G_AA x_A = c_A - eta s_A`` with ``x = 0`` off the support A,
    all experts in one solve (rows and columns off A replaced by the
    identity).  Certified: the signs of ``x`` are ``s`` and
    ``|c_j - G_j x| <= eta`` off A, exactly, and ``x`` is finite."""
    s = np.sign(beta)
    active = s != 0.0
    M = np.where(active[..., :, None] & active[..., None, :], G, _identity(G.shape[-1]))
    x = np.linalg.solve(M, (c - eta[..., None] * s)[..., None])[..., 0]
    x = np.where(active, x, 0.0)  # +0.0 off A, where the identity's rows gave c
    with np.errstate(over="ignore", invalid="ignore"):
        grad = c - (G @ x[..., None])[..., 0]
        kkt = (np.sign(x) == s) & np.isfinite(x) & (
            active | (np.abs(grad) <= eta[..., None]))
    return x, kkt.all(axis=-1)


def _active_set(G: np.ndarray, c: np.ndarray, eta: float, beta: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """The lasso minimizer of one expert with Gram matrix ``G`` (p, p),
    positive definite, and ``c`` (p,), threshold ``eta``: the rounds of
    Osborne, Presnell and Turlach (2000) from the incoming coefficients
    ``beta`` and ``x``, the solution on their support and signs.

    A round that changes a sign moves from ``beta`` toward ``x`` up to the
    first zero crossing, where the objective still equals the smooth one
    of the signs and so has decreased, and drops the coordinates there.
    A round with consistent signs moves to ``x`` and adds the coordinate
    off the support that most violates ``|c_j - G_j x| <= eta``, with the
    sign of its violation; it stops when none does, which certifies ``x``
    as :func:`_certified_step` does.  In exact arithmetic the coordinate
    just added comes back with that sign; when rounding gives it 0 or the
    other sign, its violation was rounding, and the solution before it is
    returned: certified but for that one violation.  At ``eta == 0`` the
    signs do not enter the problem, so they follow each solution and only
    exact zeros count as sign changes.  When ``x`` is not finite (the
    incoming support overflows) the rounds start from 0 instead.  Raises
    ``FloatingPointError`` for a non-finite solution after that, or after
    ``_ROUNDS_PER_COORDINATE * p`` rounds."""
    s = np.sign(beta)
    active = s != 0.0
    if not np.isfinite(x).all():
        beta, s, x = np.zeros_like(c), np.zeros_like(c), np.zeros_like(c)
        active[:] = False
    added = None  # the coordinate the last round added
    for _ in range(_ROUNDS_PER_COORDINATE * len(c)):
        if not np.isfinite(x).all():
            raise FloatingPointError("the expert lasso solution is not finite")
        if eta == 0.0:
            s = np.where(x != 0.0, np.sign(x), s)
        flip = (np.sign(x) != s).nonzero()[0]  # x and s are 0 off the support
        if added is not None and added in flip:
            return beta  # the solution before it
        added = None
        if flip.size:
            # in [0, 1]: x_j is 0 or of the other sign, and beta_j of sign s_j
            b = beta[flip]
            t = b / (b - x[flip])
            k = t.argmin()
            beta = beta + t[k] * (x - beta)
            drop = active & (np.sign(beta) != s)  # rounding past the crossing too
            drop[flip[k]] = True
            beta[drop] = s[drop] = 0.0
            active &= ~drop
        else:
            grad = c - G @ x
            violation = np.abs(grad) - eta
            violation[active] = 0.0
            j = violation.argmax()  # a NaN first: it fails the next round
            if violation[j] <= 0.0:
                return x
            beta, added = x, j
            active[j], s[j] = True, np.sign(grad[j])
        A = active.nonzero()[0]
        x = np.zeros_like(c)
        x[A] = np.linalg.solve(G.take(A, 0).take(A, 1), c[A] - eta * s[A])
    raise FloatingPointError(
        f"the expert lasso active set did not settle in {_ROUNDS_PER_COORDINATE * len(c)} "
        "rounds")


def _expert_coeffs(sample: _Sample, T: np.ndarray, b0: np.ndarray, sigma2: np.ndarray,
                   beta: np.ndarray, lam: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Lasso coefficients (K, p) of the experts weighted by ``T`` (K, n),
    from ``beta`` (K, p) with the lagged intercepts ``b0`` and variances
    ``sigma2`` (K,): the certified step, and the active-set rounds from
    ``beta`` for the experts it does not certify.  Each ``G_jj`` gets the
    ridge ``p * eps * G_jj``, or 1 where it is 0: column j of G is 0 there,
    and coordinate j of the minimizer 0 whatever the ridge.  The (K, p, n)
    factor ``X' W`` is written into ``out`` when given."""
    X, XT, YT = sample
    p = X.shape[1]
    G = _into(np.multiply, XT, T[..., None, :], out) @ X  # X' W X, (K, p, p)
    diagonal = G.reshape(-1, p * p)[:, ::p + 1]  # a view into G, one row per expert
    diagonal += np.where(diagonal > 0.0, diagonal * (p * 2.0 ** -52), 1.0)  # 2 ** -52: eps
    c = (T * (YT[0] - b0[..., None])) @ X  # X' W (y - b0)
    eta = lam * sigma2
    coeffs, certified = _certified_step(G, c, eta, beta)
    if not certified.all():
        for i in zip(*(~certified).nonzero()):
            coeffs[i] = _active_set(G[i], c[i], eta[i], beta[i], coeffs[i])
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
    _check_penalty("penalty weights", gamma)
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
                            ca_max_iter: int = 100) -> np.ndarray:
    """Solve one expert's weighted lasso problem exactly.

    Minimizes ``0.5 * sum_i w_i (y_i - b0 - x_i' beta)^2 + lam * sigma2 * |beta|_1``
    with the lagged intercept ``b0`` and variance ``sigma2``, through the
    weighted Gram matrix ``G = X' W X`` and ``c = X' W (y - b0)``, formed
    once per call (the covariance updates of Friedman, Hastie and
    Tibshirani, 2010), with the ridge ``p * eps * G_jj`` on each diagonal
    entry of G.  First the exact minimizer on the support and signs of
    the incoming coefficients, ``G_AA beta_A = c_A - lam sigma2 s_A`` and
    zero off A, returned as is when the KKT conditions certify it (signs
    kept, ``|c_j - G_j' beta| <= lam sigma2`` off A).  Otherwise the
    active-set rounds of Osborne, Presnell and Turlach (2000) from the
    incoming coefficients, until the same conditions certify the result
    (or the last violation is rounding, see :func:`_active_set`).  Raises
    ``FloatingPointError`` when a solve is not finite or the rounds do not
    settle.  ``ca_max_iter`` has no effect: it bounded the sweeps of the
    coordinate ascent this solve replaced, and stays because the trace
    instrumentation in ``bench/spans.py`` reads its default.
    """
    _check_penalty("penalty weights", lam)
    if data.d != 1 or expert_prev.d != 1:
        raise UnsupportedConfigError("expert coefficient update requires d = 1")
    T = np.ascontiguousarray(tau_k, dtype=float)[None]
    _component_masses(T)  # raises for a negligible column
    return _expert_coeffs(_Sample.of(data), T, expert_prev.intercept, expert_prev.cov[0],
                          expert_prev.beta[None], lam)[0]


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
    lasso coefficients (certified step, active-set rounds where it fails)
    and the intercepts and variances.  The (K, p, n) temporaries of the
    coefficients and of the variances are written into ``out``, one after
    the other, when given: ``out`` ends holding the squared deviations of
    X from the new gating means, the E-step's first pass at the result."""
    mu = _gating_means(sample.X, T, nk, s.R, penalty.gamma)
    beta = _expert_coeffs(sample, T, s.a[..., 0], s.Sigma[..., 0, 0], s.B[..., 0],
                          penalty.lam, out)
    b0, sigma2 = _intercepts_variances(sample, T, nk, beta)
    return _Stack(nk / nk.sum(axis=-1, keepdims=True), mu,
                  _gating_variances(sample.XT, T, nk, mu, out),
                  b0[..., None], beta[..., None], sigma2[..., None, None])


def _fit_lasso(sample: _Sample, K: int, penalty: PenaltyConfig, opts: FitOptions,
               starts: list, **accept) -> tuple:
    """:func:`~mogge.em._multistart` of ``starts`` with the lasso M-step and objective."""
    return _multistart(
        sample, K, opts,
        lambda sample, T, nk, s, work: _lasso_m_step(sample, T, nk, s, penalty, work[0]),
        lambda loglik, s: _penalize(loglik, s, penalty.lam, penalty.gamma),
        starts, **accept,
    )


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
            raise UnsupportedConfigError("warm start must use diagonal gating covariances")
        if warm_start.K != K or warm_start.p != data.p or warm_start.d != 1:
            raise ValueError("warm start dimensions do not match the request")
    opts = opts or FitOptions()
    starts = _seeded(data, K, opts, True) if warm_start is None else [_Stack.of(warm_start)]
    return _fit_lasso(_Sample.of(data), K, penalty, opts, starts)[1]

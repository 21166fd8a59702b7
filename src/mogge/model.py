"""Core model layer: parameter containers and exact evaluation of the
Gaussian-gated mixture-of-experts densities, responsibilities and
(penalized) log-likelihood objectives.

All density arithmetic is done in the log domain with max-subtraction /
log-sum-exp, so that high-dimensional Gaussian factors never underflow.
Every function here is a pure function of its inputs and safe to call
concurrently on shared read-only data.

Component layout conventions:

- gating covariances are either a full ``(p, p)`` SPD matrix or a length-p
  vector of per-coordinate variances (diagonal layout); the penalized
  fitting path requires the diagonal layout,
- expert parameters are stored in multivariate form (``intercept`` of
  length d, ``coeffs`` of shape ``(p, d)``, ``cov`` of shape ``(d, d)``)
  even when d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

# Variances and covariance eigenvalues below this floor are rejected at
# validation time; fitting code floors its updates at exactly this value.
VARIANCE_FLOOR = 1e-10

LOG_2PI = float(np.log(2.0 * np.pi))


class NotPositiveDefiniteError(ValueError):
    """A covariance matrix is not symmetric positive definite."""


class UnsupportedConfigError(ValueError):
    """The requested configuration is outside what this code path supports."""


class DegenerateComponentError(RuntimeError):
    """A mixture component has collapsed (vanishing total responsibility)."""

    def __init__(self, component: int, message: str):
        super().__init__(message)
        self.component = component


class FitFailedError(RuntimeError):
    """Every fitting attempt failed; carries one diagnosis per start."""

    def __init__(self, message: str, diagnoses: list[str]):
        super().__init__(message)
        self.diagnoses = list(diagnoses)


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DataSet:
    """Observed sample of n predictor/response pairs.

    ``X`` has shape ``(n, p)`` and ``Y`` shape ``(n, d)``; a 1-d response
    vector is accepted and stored as a single column.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.ndim != 2:
            raise ValueError(f"Y must be a vector or 2-d matrix, got shape {Y.shape}")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise ValueError("n, p and d must all be at least 1")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("data contains NaN or Inf entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.Y.shape[1]

    @property
    def y1(self) -> np.ndarray:
        """The response as a flat vector; only valid when d = 1."""
        if self.d != 1:
            raise UnsupportedConfigError("y1 requires a univariate response (d = 1)")
        return self.Y[:, 0]


def _validate_spd(cov: np.ndarray, what: str) -> None:
    """Positive-definiteness test by Cholesky factorization."""
    if not np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12):
        raise NotPositiveDefiniteError(f"{what} is not symmetric")
    if np.any(np.diag(cov) < VARIANCE_FLOOR):
        raise NotPositiveDefiniteError(
            f"{what} has a diagonal entry below the variance floor {VARIANCE_FLOOR:g}"
        )
    try:
        cholesky(cov, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc


@dataclass(frozen=True)
class GatingComponent:
    """One gating component: mixing weight ``alpha``, predictor mean ``mu``
    and predictor covariance ``R``.

    ``R`` may be a full ``(p, p)`` SPD matrix or a length-p vector of
    per-coordinate variances (diagonal layout, required by the penalized
    fitting path).
    """

    alpha: float
    mu: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        mu = _as_float_array(self.mu, "mu", 1)
        R = np.asarray(self.R, dtype=float)
        if R.ndim == 1:
            if R.shape[0] != mu.shape[0]:
                raise ValueError("diagonal R must have the same length as mu")
            if not np.all(np.isfinite(R)):
                raise ValueError("R contains non-finite entries")
            if np.any(R < VARIANCE_FLOOR):
                raise NotPositiveDefiniteError(
                    f"gating variance below the floor {VARIANCE_FLOOR:g}"
                )
        elif R.ndim == 2:
            if R.shape != (mu.shape[0], mu.shape[0]):
                raise ValueError(f"full R must be {mu.shape[0]}x{mu.shape[0]}")
            if not np.all(np.isfinite(R)):
                raise ValueError("R contains non-finite entries")
            _validate_spd(R, "gating covariance")
        else:
            raise ValueError("R must be a vector (diagonal) or a square matrix")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "R", R)

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.R.ndim == 1


@dataclass(frozen=True)
class ExpertComponent:
    """One Gaussian regression expert: ``intercept`` (length d), ``coeffs``
    of shape ``(p, d)`` and response covariance ``cov`` of shape ``(d, d)``.

    Scalar / 1-d inputs are accepted for the univariate case and stored in
    the multivariate layout.
    """

    intercept: np.ndarray
    coeffs: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        intercept = np.atleast_1d(np.asarray(self.intercept, dtype=float))
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if intercept.ndim != 1:
            raise ValueError("intercept must be a vector")
        d = intercept.shape[0]
        if coeffs.ndim != 2 or coeffs.shape[1] != d:
            raise ValueError(f"coeffs must have shape (p, {d}), got {coeffs.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        for arr, name in ((intercept, "intercept"), (coeffs, "coeffs"), (cov, "cov")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        _validate_spd(cov, "expert covariance")
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "cov", cov)

    @property
    def p(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d(self) -> int:
        return self.intercept.shape[0]

    @property
    def beta(self) -> np.ndarray:
        """Coefficient vector for the univariate case."""
        if self.d != 1:
            raise UnsupportedConfigError("beta requires d = 1")
        return self.coeffs[:, 0]

    @property
    def variance(self) -> float:
        """Response variance for the univariate case."""
        if self.d != 1:
            raise UnsupportedConfigError("variance requires d = 1")
        return float(self.cov[0, 0])


@dataclass(frozen=True)
class MoggeParams:
    """Full parameter set: K gating components and K experts."""

    gating: tuple[GatingComponent, ...]
    experts: tuple[ExpertComponent, ...]

    def __post_init__(self):
        gating = tuple(self.gating)
        experts = tuple(self.experts)
        if len(gating) < 1 or len(gating) != len(experts):
            raise ValueError("need K >= 1 gating components and as many experts")
        K = len(gating)
        p = gating[0].p
        d = experts[0].d
        diag = gating[0].is_diagonal
        for k, (g, e) in enumerate(zip(gating, experts)):
            if g.p != p or e.p != p or e.d != d:
                raise ValueError(f"component {k + 1} has inconsistent dimensions")
            if g.is_diagonal != diag:
                raise ValueError("gating covariances must all share one layout")
            if K > 1 and not (0.0 < g.alpha < 1.0):
                raise ValueError(f"alpha of component {k + 1} must lie in (0, 1)")
        total = sum(g.alpha for g in gating)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixing weights must sum to 1, got {total!r}")
        object.__setattr__(self, "gating", gating)
        object.__setattr__(self, "experts", experts)

    @property
    def K(self) -> int:
        return len(self.gating)

    @property
    def p(self) -> int:
        return self.gating[0].p

    @property
    def d(self) -> int:
        return self.experts[0].d

    @property
    def has_diagonal_gating(self) -> bool:
        return self.gating[0].is_diagonal

    @property
    def alphas(self) -> np.ndarray:
        return np.array([g.alpha for g in self.gating])

    def permuted(self, order) -> "MoggeParams":
        """Relabeled copy: new component k is old component ``order[k]`` (0-based)."""
        order = list(order)
        if sorted(order) != list(range(self.K)):
            raise ValueError(f"order must be a permutation of 0..{self.K - 1}")
        return MoggeParams(
            gating=tuple(self.gating[i] for i in order),
            experts=tuple(self.experts[i] for i in order),
        )


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component-membership probabilities, one row per observation."""

    tau: np.ndarray

    def __post_init__(self):
        tau = _as_float_array(self.tau, "tau", 2)
        if np.any(tau < 0.0) or np.any(tau > 1.0):
            raise ValueError("responsibilities must lie in [0, 1]")
        rowsum = tau.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > 1e-10):
            raise ValueError("responsibility rows must sum to 1")
        object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def K(self) -> int:
        return self.tau.shape[1]


# ---------------------------------------------------------------------------
# Log-density evaluation
# ---------------------------------------------------------------------------

def _log_gauss_rows(V: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                    what: str = "covariance") -> np.ndarray:
    """Row-wise Gaussian log-density.

    ``V`` is ``(n, m)``; ``mean`` is ``(m,)`` or ``(n, m)``; ``cov`` is a
    full ``(m, m)`` matrix or a length-m vector of variances.
    """
    diff = V - mean
    m = V.shape[1]
    if cov.ndim == 1:
        if np.any(cov < VARIANCE_FLOOR):
            raise NotPositiveDefiniteError(
                f"{what} has a variance below the floor {VARIANCE_FLOOR:g}"
            )
        quad = np.sum(diff * diff / cov, axis=1)
        logdet = float(np.sum(np.log(cov)))
    else:
        try:
            L = cholesky(cov, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc
        Z = solve_triangular(L, diff.T, lower=True)
        quad = np.sum(Z * Z, axis=0)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * (m * LOG_2PI + logdet + quad)


def gaussian_logpdf(v, mean, cov) -> float:
    """Log-density of a Gaussian vector.

    Parameters
    ----------
    v, mean : array_like, shape (m,)
        Evaluation point and mean.
    cov : array_like
        Full ``(m, m)`` SPD covariance matrix, or a length-m vector of
        variances for a diagonal covariance.

    Returns
    -------
    float
        ``log phi_m(v; mean, cov)``, computed in the log domain.
    """
    v = _as_float_array(np.atleast_1d(v), "v", 1)
    mean = _as_float_array(np.atleast_1d(mean), "mean", 1)
    if v.shape != mean.shape:
        raise ValueError(f"v has shape {v.shape} but mean has shape {mean.shape}")
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov[None]
    if cov.ndim == 1 and cov.shape[0] != v.shape[0]:
        raise ValueError("diagonal cov must have the same length as v")
    if cov.ndim == 2 and cov.shape != (v.shape[0], v.shape[0]):
        raise ValueError("cov must be square with the dimension of v")
    return float(_log_gauss_rows(v[None, :], mean, cov)[0])


def _expert_means(X: np.ndarray, expert: ExpertComponent) -> np.ndarray:
    """Per-observation expert mean ``a_k + B_k^T x_i`` as an (n, d) matrix."""
    return expert.intercept + X @ expert.coeffs


def _log_gate_matrix(X: np.ndarray, params: MoggeParams) -> np.ndarray:
    """Unnormalized gating log-weights ``log alpha_k + log phi_p(x; mu_k, R_k)``."""
    n = X.shape[0]
    out = np.empty((n, params.K))
    for k, g in enumerate(params.gating):
        out[:, k] = np.log(g.alpha) + _log_gauss_rows(
            X, g.mu, g.R, what=f"gating component {k + 1} covariance"
        )
    return out


def _log_joint_matrix(data: DataSet, params: MoggeParams) -> np.ndarray:
    """Per-observation, per-component joint log-terms
    ``log alpha_k + log phi_p(x_i) + log phi_d(y_i | x_i)``."""
    if params.p != data.p or params.d != data.d:
        raise ValueError(
            f"parameter dimensions (p={params.p}, d={params.d}) do not match "
            f"data (p={data.p}, d={data.d})"
        )
    out = _log_gate_matrix(data.X, params)
    for k, e in enumerate(params.experts):
        out[:, k] += _log_gauss_rows(
            data.Y, _expert_means(data.X, e), e.cov,
            what=f"expert component {k + 1} covariance",
        )
    return out


def gating_probs(x, params: MoggeParams) -> np.ndarray:
    """Gating probabilities ``g_k(x)`` for a single predictor vector.

    Normalizes ``alpha_k phi_p(x; mu_k, R_k)`` over components in the log
    domain, so the output always sums to 1 even when every raw density
    underflows.
    """
    x = _as_float_array(np.atleast_1d(x), "x", 1)
    if x.shape[0] != params.p:
        raise ValueError(f"x has length {x.shape[0]} but the model has p={params.p}")
    lg = _log_gate_matrix(x[None, :], params)[0]
    lg -= logsumexp(lg)
    return np.exp(lg)


def conditional_density(y, x, params: MoggeParams) -> float:
    """Log conditional density ``log f(y | x)`` of the mixture."""
    x = _as_float_array(np.atleast_1d(x), "x", 1)
    y = _as_float_array(np.atleast_1d(y), "y", 1)
    if x.shape[0] != params.p:
        raise ValueError(f"x has length {x.shape[0]} but the model has p={params.p}")
    if y.shape[0] != params.d:
        raise ValueError(f"y has length {y.shape[0]} but the model has d={params.d}")
    lg = _log_gate_matrix(x[None, :], params)[0]
    lg -= logsumexp(lg)
    le = np.empty(params.K)
    X1 = x[None, :]
    for k, e in enumerate(params.experts):
        le[k] = _log_gauss_rows(
            y[None, :], _expert_means(X1, e), e.cov,
            what=f"expert component {k + 1} covariance",
        )[0]
    return float(logsumexp(lg + le))


def _e_step(data: DataSet, params: MoggeParams) -> tuple[float, Responsibilities]:
    """Joint log-likelihood and posterior responsibilities from one
    evaluation of the log-joint matrix: the row log-sum-exps are summed
    for the former and subtracted from the rows for the latter."""
    M = _log_joint_matrix(data, params)
    lse = logsumexp(M, axis=1)
    M -= lse[:, None]
    return float(np.sum(lse)), Responsibilities(tau=np.exp(M))


def joint_loglik(data: DataSet, params: MoggeParams) -> float:
    """Joint log-likelihood of the sample: one log-sum-exp per observation."""
    return _e_step(data, params)[0]


def penalized_loglik(data: DataSet, params: MoggeParams,
                     lam: float, gamma: float) -> float:
    """L1-penalized joint log-likelihood: ``joint_loglik`` minus
    ``lam * sum_k |beta_k|_1 + gamma * sum_k |mu_k|_1``.

    Intercepts, variances and mixing weights are not penalized.  Requires
    a univariate response and diagonal gating covariances.
    """
    if lam < 0.0 or gamma < 0.0:
        raise ValueError("penalty weights must be nonnegative")
    if params.d != 1 or data.d != 1:
        raise UnsupportedConfigError("penalized objective requires d = 1")
    if not params.has_diagonal_gating:
        raise UnsupportedConfigError(
            "penalized objective requires diagonal gating covariances"
        )
    return _penalize(joint_loglik(data, params), params, lam, gamma)


def _penalize(loglik: float, params: MoggeParams, lam: float, gamma: float) -> float:
    """``loglik`` minus the L1 penalty on expert coefficients and gating means."""
    pen_beta = sum(float(np.sum(np.abs(e.beta))) for e in params.experts)
    pen_mu = sum(float(np.sum(np.abs(g.mu))) for g in params.gating)
    return loglik - lam * pen_beta - gamma * pen_mu


def posterior_responsibilities(data: DataSet, params: MoggeParams) -> Responsibilities:
    """Posterior membership probabilities, rows normalized by log-sum-exp."""
    return _e_step(data, params)[1]

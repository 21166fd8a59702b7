"""Maximum-likelihood EM for the Gaussian-gated mixture of experts, and
the EM core shared with the penalized fit.

The E-step computes posterior responsibilities; the M-step has closed
forms: weighted Gaussian-mixture moments for the gating network and
weighted linear regressions for the experts.  The iteration loop and
the multi-start driver also run :mod:`mogge.em_lasso`, which supplies its
own M-step and objective.  Multi-start with best-objective selection;
any start whose components collapse, or whose arithmetic overflows, is
abandoned and diagnosed rather than reinitialized mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import (
    VARIANCE_FLOOR,
    DataSet,
    DegenerateComponentError,
    ExpertComponent,
    FitFailedError,
    GatingComponent,
    MoggeParams,
    NotPositiveDefiniteError,
    Responsibilities,
    _e_step,
)

INIT_STRATEGIES = ("random-partition", "kmeans-on-x")

# Numerical guards: ridge added to weighted Gram matrices, jitter added to
# gating covariance updates, and the responsibility mass below which a
# component counts as degenerate (relative to n).
GRAM_RIDGE = 1e-8
COV_JITTER = 1e-10
DEGENERACY_FRACTION = 1e-8


@dataclass(frozen=True)
class FitOptions:
    """Knobs shared by the EM fitting loops."""

    max_iter: int = 1000
    tol: float = 1e-6
    n_starts: int = 10
    seed: int = 0
    init_strategy: str = "random-partition"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ValueError(
                f"init_strategy must be one of {INIT_STRATEGIES}, "
                f"got {self.init_strategy!r}"
            )


@dataclass(frozen=True)
class FitResult:
    """Converged parameters plus the objective trace and diagnostics.

    ``loglik_trace[0]`` is the objective at initialization and one entry is
    appended after each EM iteration, so ``len(loglik_trace) == n_iter + 1``.
    For the penalized fit the trace holds the penalized objective.
    ``loglik`` is the unpenalized joint log-likelihood at ``params``; for
    :func:`fit_em` it equals ``objective``.
    """

    params: MoggeParams
    loglik_trace: np.ndarray
    responsibilities: Responsibilities
    n_iter: int
    converged: bool
    objective: float
    loglik: float

    def permuted(self, order) -> "FitResult":
        """Relabeled copy: component k and responsibility column k are the
        old ones at ``order[k]``; trace, objective and counts are kept."""
        order = list(order)
        return replace(
            self,
            params=self.params.permuted(order),
            responsibilities=Responsibilities(tau=self.responsibilities.tau[:, order]),
        )


def start_seeds(seed: int, n_starts: int) -> list[int]:
    """Per-start integer seeds derived from the master seed.

    Shared by both fitting loops so that runs configured identically see
    identical initializations, and so that starts may run concurrently
    without changing results.
    """
    state = np.random.SeedSequence(seed).generate_state(n_starts, dtype=np.uint64)
    return [int(s) for s in state]


def _floor_spd(S: np.ndarray) -> np.ndarray:
    """Symmetrize and floor eigenvalues at the variance floor."""
    S = 0.5 * (S + S.T)
    if S.shape == (1, 1):
        return np.array([[max(S[0, 0], VARIANCE_FLOOR)]])
    vals, vecs = np.linalg.eigh(S)
    if vals[0] >= VARIANCE_FLOOR:
        return S
    vals = np.maximum(vals, VARIANCE_FLOOR)
    return (vecs * vals) @ vecs.T


def _kmeans_labels(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Plain k-means on rows of X with k-means++ seeding."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers[k] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((X - centers[k]) ** 2, axis=1))
    labels = np.full(n, -1)
    for _ in range(100):
        dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(K):
            mask = labels == k
            if mask.any():
                centers[k] = X[mask].mean(axis=0)
    return labels


def _params_from_partition(data: DataSet, labels: np.ndarray, K: int,
                           diagonal: bool) -> MoggeParams:
    """Empirical per-group parameters for a hard assignment."""
    gating, experts = [], []
    for k in range(K):
        mask = labels == k
        nk = int(mask.sum())
        Xk, Yk = data.X[mask], data.Y[mask]
        mu = Xk.mean(axis=0)
        if diagonal:
            R = Xk.var(axis=0) + 1e-6
        else:
            diff = Xk - mu
            R = diff.T @ diff / nk + 1e-6 * np.eye(data.p)
        gating.append(GatingComponent(alpha=nk / data.n, mu=mu, R=R))

        Z = np.hstack([np.ones((nk, 1)), Xk])
        C = np.linalg.solve(
            Z.T @ Z + GRAM_RIDGE * np.eye(data.p + 1), Z.T @ Yk
        )
        resid = Yk - Z @ C
        cov = _floor_spd(resid.T @ resid / nk)
        experts.append(ExpertComponent(intercept=C[0], coeffs=C[1:], cov=cov))
    return MoggeParams(gating=tuple(gating), experts=tuple(experts))


def init_params(data: DataSet, K: int, strategy: str = "random-partition",
                seed: int = 0, diagonal_gating: bool = False) -> MoggeParams:
    """Initial parameters from a hard partition of the observations.

    ``random-partition`` draws uniform labels; ``kmeans-on-x`` clusters the
    predictors with k-means++-seeded k-means.  Partitions that leave a group
    empty are redrawn (up to 100 attempts).  Deterministic under ``seed``.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > data.n:
        raise ValueError(f"cannot split n={data.n} observations into K={K} groups")
    if strategy not in INIT_STRATEGIES:
        raise ValueError(f"unknown init strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        if strategy == "random-partition":
            labels = rng.integers(0, K, size=data.n)
        else:
            labels = _kmeans_labels(data.X, K, rng)
        if np.all(np.bincount(labels, minlength=K) > 0):
            return _params_from_partition(data, labels, K, diagonal_gating)
    raise FitFailedError(
        f"could not draw a partition with {K} non-empty groups in 100 attempts",
        diagnoses=[],
    )


def _check_component_masses(nk, n: int, first: int = 1) -> None:
    """Raise if a mass ``nk[i]`` (of component ``first + i``) is negligible."""
    for k, mass in enumerate(nk, start=first):
        if mass <= DEGENERACY_FRACTION * n:
            raise DegenerateComponentError(
                k,
                f"component {k} is degenerate: responsibility mass "
                f"{mass:.3e} of n={n}",
            )


def m_step_gating(data: DataSet, tau: Responsibilities,
                  diagonal: bool = False) -> list[GatingComponent]:
    """Closed-form gating update: weighted mixing weights, means and
    covariances (with jitter added to the covariance)."""
    T = tau.tau
    nk = T.sum(axis=0)
    _check_component_masses(nk, data.n)
    alphas = nk / nk.sum()
    out = []
    for k in range(tau.K):
        w = T[:, k]
        mu = w @ data.X / nk[k]
        diff = data.X - mu
        if diagonal:
            R = w @ (diff * diff) / nk[k] + COV_JITTER
        else:
            R = (diff * w[:, None]).T @ diff / nk[k]
            R = 0.5 * (R + R.T) + COV_JITTER * np.eye(data.p)
        out.append(GatingComponent(alpha=float(alphas[k]), mu=mu, R=R))
    return out


def m_step_experts(data: DataSet, tau: Responsibilities,
                   experts_prev: tuple[ExpertComponent, ...]) -> list[ExpertComponent]:
    """Closed-form expert update in the coupled order: intercept from the
    previous coefficients, coefficients from the new intercept, covariance
    from both new values."""
    T = tau.tau
    nk = T.sum(axis=0)
    _check_component_masses(nk, data.n)
    out = []
    for k in range(tau.K):
        w = T[:, k]
        a = w @ (data.Y - data.X @ experts_prev[k].coeffs) / nk[k]
        G = data.X.T @ (w[:, None] * data.X) + GRAM_RIDGE * np.eye(data.p)
        rhs = data.X.T @ (w[:, None] * (data.Y - a))
        B = np.linalg.solve(G, rhs)
        resid = data.Y - a - data.X @ B
        cov = _floor_spd(resid.T @ (w[:, None] * resid) / nk[k])
        out.append(ExpertComponent(intercept=a, coeffs=B, cov=cov))
    return out


def _relative_change(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), np.finfo(float).tiny)


def _ml_m_step(data: DataSet, tau: Responsibilities, params: MoggeParams,
               diagonal: bool) -> MoggeParams:
    gating = m_step_gating(data, tau, diagonal=diagonal)
    experts = m_step_experts(data, tau, params.experts)
    return MoggeParams(gating=tuple(gating), experts=tuple(experts))


def _run_em(data: DataSet, params: MoggeParams, opts: FitOptions,
            m_step: Callable, objective: Callable) -> FitResult:
    """EM iterations from ``params`` until the relative objective change
    drops below ``opts.tol`` or ``opts.max_iter`` is reached.

    ``m_step(data, tau, params)`` returns the updated parameters and
    ``objective(loglik, params)`` the trace entry.  One E-step per
    iteration yields both the objective of the current parameters and the
    responsibilities the next M-step uses.
    """
    loglik, tau = _e_step(data, params)
    trace = [objective(loglik, params)]
    converged = False
    for _ in range(opts.max_iter):
        params = m_step(data, tau, params)
        loglik, tau = _e_step(data, params)
        trace.append(objective(loglik, params))
        if _relative_change(trace[-1], trace[-2]) < opts.tol:
            converged = True
            break
    return FitResult(
        params=params,
        loglik_trace=np.array(trace),
        responsibilities=tau,
        n_iter=len(trace) - 1,
        converged=converged,
        objective=trace[-1],
        loglik=loglik,
    )


def _multistart(data: DataSet, K: int, opts: FitOptions, m_step: Callable,
                objective: Callable, diagonal_gating: bool,
                warm_start: MoggeParams | None = None) -> FitResult:
    """Best run over the seeded starts, or the one run from ``warm_start``.

    The one place where a start's numerical trouble (a degenerate
    component, a failed covariance check, a singular solve, an overflow or
    invalid operation) becomes a diagnosis; underflow is routine."""
    seeds = ([None] if warm_start is not None
             else start_seeds(opts.seed, opts.n_starts))
    best: FitResult | None = None
    diagnoses: list[str] = []
    for s, seed in enumerate(seeds):
        try:
            with np.errstate(over="raise", invalid="raise"):
                if seed is None:
                    params0 = warm_start
                else:
                    params0 = init_params(
                        data, K, strategy=opts.init_strategy, seed=seed,
                        diagonal_gating=diagonal_gating,
                    )
                result = _run_em(data, params0, opts, m_step, objective)
        except (DegenerateComponentError, NotPositiveDefiniteError,
                FitFailedError, np.linalg.LinAlgError,
                FloatingPointError) as exc:
            diagnoses.append(f"start {s}: {type(exc).__name__}: {exc}")
            continue
        if best is None or result.objective > best.objective:
            best = result
    if best is None:
        raise FitFailedError(
            f"all {len(seeds)} starts failed", diagnoses=diagnoses
        )
    return best


def fit_em(data: DataSet, K: int, opts: FitOptions | None = None,
           diagonal_gating: bool = False) -> FitResult:
    """Fit by EM with multiple starts; returns the best-objective run.

    Starts that hit a degenerate component, a covariance failure or a
    floating-point overflow are dropped with a diagnosis; if every start
    fails a :class:`~mogge.model.FitFailedError` carries all diagnoses.
    """
    return _multistart(
        data, K, opts or FitOptions(),
        lambda data, tau, params: _ml_m_step(data, tau, params, diagonal_gating),
        lambda loglik, params: loglik,
        diagonal_gating,
    )

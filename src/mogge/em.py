"""Maximum-likelihood EM for the Gaussian-gated mixture of experts, and
the EM core shared with the penalized fit.

The E-step computes posterior responsibilities; the M-step has closed
forms: weighted Gaussian-mixture moments for the gating network and
weighted linear regressions for the experts.  The iteration loop and
the multi-start driver also run :mod:`mogge.em_lasso`, which supplies its
own M-step and objective.  Multi-start in batches, best objective wins;
any start whose components collapse, or whose arithmetic overflows, is
abandoned and diagnosed rather than reinitialized mid-run.  The seeded
starts, the arrays of :func:`init_params`, are checked at once, once per
fit or per K of a penalty chain; only the returned run builds components.

:func:`fit_em` accelerates the smooth EM map by SQUAREM (Varadhan and
Roland, 2008): every second trace entry may be an accepted
extrapolation of the last two EM steps instead of an EM step, and
``max_iter`` caps the recorded objective evaluations.  The penalized
fit runs plain EM steps.  Extrapolating its cold starts, with the exact
expert-lasso solve, was measured on the benchmark's 24 ``grid_search``
inputs (6 x 6 penalty grid, 5 starts, seed 7777): the cold starts' median
iterations fell from 39 to 23 and the E-steps per search from 188 to 174,
but the searches ran about 8% slower and one of the 24 selected rows
moved (mean classification rate 0.955 -> 0.935).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

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
    _cholesky,
    _e_step,
    _identity,
    _into,
    _Sample,
    _Stack,
)

INIT_STRATEGIES = ("random-partition", "kmeans-on-x")

# Numerical guards: ridge added to weighted Gram matrices, jitter added to
# gating covariance updates, and the responsibility mass below which a
# component counts as degenerate (relative to n).
GRAM_RIDGE = 1e-8
COV_JITTER = 1e-10
DEGENERACY_FRACTION = 1e-8

# Most numbers in one (S, K, max(p, d), n) temporary of a batch of S starts.
_BATCH_ELEMENTS = 2 ** 20

_START_FAILURES = (DegenerateComponentError, NotPositiveDefiniteError,
                   np.linalg.LinAlgError, FloatingPointError)


def _integral(what: str, value) -> int:
    """``value``, an int, a numpy integer or an integral float, as an int."""
    if isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FitOptions:
    """Knobs shared by the EM fitting loops.

    ``max_iter`` caps the objective evaluations recorded after the
    initial one, which for :func:`fit_em` may be accepted SQUAREM
    extrapolations as well as EM steps; the penalized fit records one
    per EM step.  ``tol`` bounds the relative objective change at which
    a start has converged."""

    max_iter: int = 1000
    tol: float = 1e-6
    n_starts: int = 10
    seed: int = 0
    init_strategy: str = "random-partition"

    def __post_init__(self):
        for name in ("max_iter", "n_starts", "seed"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
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
    appended after each iteration, so ``len(loglik_trace) == n_iter + 1``
    and ``n_iter <= max_iter``.  For :func:`fit_em` an entry may be an
    accepted SQUAREM extrapolation rather than an EM step; the trace never
    falls either way.  The penalized fit runs EM steps only, and its
    trace holds the penalized objective.
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
    identical initializations.  The starts of a fit then run together in
    batches, and a start's result does not depend on the batch it runs in.
    """
    state = np.random.SeedSequence(seed).generate_state(n_starts, dtype=np.uint64)
    return [int(s) for s in state]


def _floor_spd(S: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix, or a stack of matrices along the leading axes,
    and floor the eigenvalues of each at the variance floor: for 1 x 1
    matrices the floored entries, which is what the eigh path gives."""
    if S.shape[-1] == 1:
        return np.maximum(S, VARIANCE_FLOOR)
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    vals, vecs = np.linalg.eigh(S)
    floored = vecs * np.maximum(vals, VARIANCE_FLOOR)[..., None, :]
    floored = floored @ np.swapaxes(vecs, -1, -2)
    return np.where(vals[..., :1, None] >= VARIANCE_FLOOR, S, floored)


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


def _partition(data: DataSet, K: int, strategy: str, seed: int) -> np.ndarray:
    """Labels of a hard partition into K non-empty groups, from the RNG of
    ``seed``: ``random-partition`` draws uniform labels, ``kmeans-on-x``
    clusters the predictors with k-means++-seeded k-means.  A partition
    that leaves a group empty is redrawn, up to 100 attempts."""
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
            return labels
    raise FitFailedError(
        f"could not draw a partition with {K} non-empty groups in 100 attempts",
        diagnoses=[],
    )


def _partition_stack(data: DataSet, labels: np.ndarray, K: int, diagonal: bool) -> _Stack:
    """Empirical per-group parameters of a hard assignment, unchecked,
    stacked over the K groups."""
    groups = []
    for k in range(K):
        mask = labels == k
        nk = int(mask.sum())
        Xk, Yk = data.X[mask], data.Y[mask]
        mu = Xk.mean(axis=0)
        diff = Xk - mu
        if diagonal:  # Xk.var(axis=0), without computing the mean again
            R = (diff * diff).sum(axis=0) / nk + 1e-6
        else:
            R = diff.T @ diff / nk + 1e-6 * _identity(data.p)
        Z = np.hstack([np.ones((nk, 1)), Xk])
        C = np.linalg.solve(
            Z.T @ Z + GRAM_RIDGE * _identity(data.p + 1), Z.T @ Yk
        )
        resid = Yk - Z @ C
        groups.append((nk / data.n, mu, R, C[0], C[1:], _floor_spd(resid.T @ resid / nk)))
    return _Stack(*map(np.array, zip(*groups)))  # stacks as np.stack does, at less cost per call


def init_params(data: DataSet, K: int, strategy: str = "random-partition",
                seed: int = 0, diagonal_gating: bool = False) -> MoggeParams:
    """Initial parameters from a hard partition of the observations.

    ``random-partition`` draws uniform labels; ``kmeans-on-x`` clusters the
    predictors with k-means++-seeded k-means.  Partitions that leave a group
    empty are redrawn (up to 100 attempts).  Deterministic under ``seed``.
    The fits build the same parameters as unchecked stacks and check
    those of a batch of starts at once; this function returns them
    checked, and raises what the component constructors raise.
    """
    labels = _partition(data, K, strategy, seed)
    return _partition_stack(data, labels, K, diagonal_gating).params()


def _component_masses(T: np.ndarray) -> np.ndarray:
    """Row sums ``nk`` of the (K, n) responsibilities ``T``; raise if the
    mass ``nk[k - 1]`` of a component k (of any start) is negligible."""
    n = T.shape[-1]
    nk = T.sum(axis=-1)
    if nk.min() <= DEGENERACY_FRACTION * n:
        bad = np.argwhere(nk <= DEGENERACY_FRACTION * n)[0]
        k = int(bad[-1]) + 1
        raise DegenerateComponentError(
            k,
            f"component {k} is degenerate: responsibility mass "
            f"{nk[tuple(bad)]:.3e} of n={n}",
        )
    return nk


def _gating_moments(sample: _Sample, T: np.ndarray, nk: np.ndarray,
                    diagonal: bool, work: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Stacked gating update from the (K, n) responsibilities ``T`` and their
    sums ``nk``: weights (K,), means (K, p), covariances (K, p) or (K, p, p).
    ``work`` (see :func:`~mogge.model._log_gate_matrix`) ends holding the
    E-step's first pass at the result, the deviations in ``work[0]``
    (squared if ``diagonal``), and any root-weighted ones in ``work[1]``."""
    mu = T @ sample.X / nk[..., None]
    diff = _into(np.subtract, sample.XT, mu[..., None], None if work is None else work[0])
    if diagonal:
        diff *= diff
        R = (diff @ T[..., None])[..., 0] / nk[..., None] + COV_JITTER
    else:
        # weighted by the root of T, then times its own transpose: numpy's
        # matmul runs syrk there, half the work of a general product
        diff = np.multiply(diff, np.sqrt(T)[..., None, :], out=diff if work is None else work[1])
        R = diff @ np.swapaxes(diff, -1, -2) / nk[..., None, None]
        R = 0.5 * (R + np.swapaxes(R, -1, -2)) + COV_JITTER * _identity(mu.shape[-1])
    return nk / nk.sum(axis=-1, keepdims=True), mu, R


def _expert_regressions(sample: _Sample, T: np.ndarray, nk: np.ndarray,
                        B_prev: np.ndarray,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Stacked expert update in the coupled order: intercepts (K, d) from
    the previous coefficients ``B_prev`` (K, p, d), coefficients (K, p, d)
    from the new intercepts, floored covariances (K, d, d) from both.  The
    (K, p, n) weighted predictors are written into ``out`` when given."""
    X, XT, YT = sample
    root = np.sqrt(T)[..., None, :]  # D W D' as (D root)(D root)': syrk, as for R
    resid = YT - np.swapaxes(B_prev, -1, -2) @ XT  # (K, d, n)
    a = (resid @ T[..., None])[..., 0] / nk[..., None]
    XW = _into(np.multiply, XT, root, out)
    G = XW @ np.swapaxes(XW, -1, -2) + GRAM_RIDGE * _identity(X.shape[1])
    B = np.linalg.solve(G, np.swapaxes((T[..., None, :] * (YT - a[..., None])) @ X, -1, -2))
    resid = YT - a[..., None] - np.swapaxes(B, -1, -2) @ XT
    resid *= root
    return a, B, _floor_spd(resid @ np.swapaxes(resid, -1, -2) / nk[..., None, None])


def m_step_gating(data: DataSet, tau: Responsibilities,
                  diagonal: bool = False) -> list[GatingComponent]:
    """Closed-form gating update: weighted mixing weights, means and
    covariances (with jitter added to the covariance)."""
    T = np.ascontiguousarray(tau.tau.T)  # (K, n): a strided view makes every pass slower
    alpha, mu, R = _gating_moments(_Sample.of(data), T, _component_masses(T), diagonal)
    return list(map(GatingComponent, alpha.tolist(), mu, R))


def m_step_experts(data: DataSet, tau: Responsibilities,
                   experts_prev: tuple[ExpertComponent, ...]) -> list[ExpertComponent]:
    """Closed-form expert update in the coupled order: intercept from the
    previous coefficients, coefficients from the new intercept, covariance
    from both new values."""
    T = np.ascontiguousarray(tau.tau.T)
    B_prev = np.stack([e.coeffs for e in experts_prev])
    return list(map(ExpertComponent, *_expert_regressions(
        _Sample.of(data), T, _component_masses(T), B_prev)))


def _ml_m_step(sample: _Sample, T: np.ndarray, nk: np.ndarray, s: _Stack, work) -> _Stack:
    """:func:`fit_em`'s M-step: the experts first, so the gating pass stays in ``work``."""
    a, B, Sigma = _expert_regressions(sample, T, nk, s.B, work[0])
    return _Stack(*_gating_moments(sample, T, nk, s.R.ndim == s.mu.ndim, work), a, B, Sigma)


class _Run(NamedTuple):
    """A finished start before its check: its stack without the start
    axis, objective trace, (K, n) responsibilities and counts."""

    s: _Stack
    trace: list
    T: np.ndarray
    n_iter: int
    converged: bool
    objective: float
    loglik: float

    def result(self) -> FitResult:
        """The checked result; raises what a failing parameter check raises."""
        return FitResult(self.s.params(), np.array(self.trace),
                         Responsibilities(tau=self.T.T), n_iter=self.n_iter,
                         converged=self.converged, objective=self.objective,
                         loglik=self.loglik)


def _flat(s: _Stack) -> np.ndarray:
    """The fields of a stack with a start axis, one row per start."""
    return np.concatenate([f.reshape(len(f), -1) for f in s], axis=1)


def _log_factor(A: np.ndarray) -> np.ndarray:
    """Cholesky factors of the SPD stack ``A`` with the log of their diagonals."""
    L = _cholesky(A)
    return np.log(L, out=L, where=np.eye(A.shape[-1], dtype=bool))


def _exp_factor(theta: np.ndarray) -> np.ndarray:
    """The SPD matrices ``L L'`` of log-Cholesky coordinates ``theta``."""
    L = np.exp(theta, out=theta.copy(), where=np.eye(theta.shape[-1], dtype=bool))
    return L @ np.swapaxes(L, -1, -2)


def _theta(s: _Stack) -> np.ndarray:
    """The unconstrained coordinates SQUAREM extrapolates, one row per start
    of the stack ``s``: log weights, means, log variances (diagonal gating)
    or log-Cholesky factors, intercepts, coefficients, and log-Cholesky
    factors of the expert covariances."""
    R = _log_factor(s.R) if s.R.ndim > s.mu.ndim else np.log(s.R)
    return _flat(_Stack(np.log(s.alpha), s.mu, R, s.a, s.B, _log_factor(s.Sigma)))


def _from_theta(theta: np.ndarray, like: _Stack) -> _Stack:
    """The stack shaped like ``like`` at the coordinates ``theta`` of
    :func:`_theta`: weights by softmax, covariances by ``L L'``."""
    cuts = np.cumsum([f[0].size for f in like])[:-1]
    la, mu, R, a, B, Sigma = (
        x.reshape(f.shape) for x, f in zip(np.split(theta, cuts, axis=1), like))
    w = np.exp(la - la.max(axis=-1, keepdims=True))
    R = _exp_factor(R) if R.ndim > mu.ndim else np.exp(R)
    return _Stack(w / w.sum(axis=-1, keepdims=True), mu, R, a, B, _exp_factor(Sigma))


def _step_length(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """SQUAREM's S3 step length per start (Varadhan and Roland, 2008):
    ``-max(1, |r| / |v|)`` of the rows of ``r`` and ``v``."""
    return -np.maximum(1.0, np.sqrt(np.sum(r * r, axis=-1) / np.sum(v * v, axis=-1)))


def _where(keep: np.ndarray, a: _Stack, b: _Stack) -> _Stack:
    """Per start, ``a`` where ``keep`` and ``b`` elsewhere."""
    return _Stack(*(np.where(keep.reshape(-1, *[1] * (x.ndim - 1)), x, y)
                    for x, y in zip(a, b)))


def _rows(x, index):
    """Starts ``index`` of a stack or an array with a start axis; None stays."""
    return x if x is None else x.take(index) if isinstance(x, _Stack) else x[index]


def _run_em(sample: _Sample, s: _Stack, opts: FitOptions,
            m_step: Callable, objective: Callable, squarem: bool = False,
            carry: tuple | None = None) -> list[_Run]:
    """EM iterations for the starts along the leading axis of ``s``, each
    until its relative objective change drops below ``opts.tol`` or
    ``opts.max_iter`` trace entries follow the initial one; returns an
    unchecked :class:`_Run` per start, or raises.

    ``m_step(sample, T, nk, s, work)`` returns the next stack, checked once
    per M-step, from the (S, K, n) responsibilities ``T`` and their (S, K)
    masses ``nk``, and leaves in ``work[0]`` the E-step's first pass at
    that stack; the E-step right after a plain M-step reads it there
    (``filled``), a cycle's E-steps, at other stacks, do not.
    ``objective(loglik, s)`` returns the (S,) trace entries.

    With ``squarem`` every second entry comes from a SQUAREM cycle
    (Varadhan and Roland, 2008, step length S3): from the base point x0
    the previous entry took the plain step x1 = F(x0); the cycle takes the
    M-step x2 = F(x1) and extrapolates each start in the coordinates of
    :func:`_theta` to ``x' = theta0 - 2 alpha r + alpha^2 v``, with
    ``r = theta1 - theta0`` and ``v = theta2 - 2 theta1 + theta0``.  Its
    entry is the objective at x' when x' is finite with positive weights
    and diagonal variances, its E-step succeeds (alone, when the batch's
    raises), no component mass is degenerate and the objective is at
    least that at x1; otherwise the objective at x2, from one E-step for
    all such starts, so traces never fall.  The cycle
    carries theta of its result as the next base.  It runs only while two
    entries remain, so a run ends on a plain step, and only entries after
    a plain M-step are tested for convergence.
    Every decision is taken per start, so a start has the same bits in
    any batch, and a batch raises exactly when a start raises alone.

    ``work`` is the batch's workspace of (S, K, p, n) buffers, allocated
    once here: the first for the E-step's deviations and the M-step's
    (S, K, p, n) temporaries, and for full gating covariances a second
    for the whitened or root-weighted deviations.  No returned or kept
    array is a view of it.  When m starts run, the live ones or one
    alone, the kernels get its leading view ``work[:, :m]`` (still
    C-contiguous).

    ``carry`` is the (S,) log-likelihoods and (S, K, n) responsibilities
    of an E-step at ``s`` run before, by the run ``s`` comes from; the
    initial entries then take them instead of running it again."""
    cycles = squarem and opts.max_iter > 2

    def e_step(s, work, known=None, filled=False):  # known: (loglik, T) of an E-step at s
        loglik, T = _e_step(sample, s, work, filled) if known is None else known
        return T, loglik, objective(loglik, s)

    def plain(s, T, obj, theta, work):  # the M-step (none at the start), then the E-step
        if T is None:
            T, loglik, obj = e_step(s, work, carry)
        else:
            s = m_step(sample, T, _component_masses(T), s, work)
            T, loglik, obj = e_step(s, work, filled=True)
        if theta is None and cycles:
            theta = _theta(s)  # of the first base point
        return s, T, loglik, obj, theta, None  # every entry is tested

    def cycle(s, T, obj, theta, work):  # s is x1, obj its entry, theta that of x0
        s2 = m_step(sample, T, _component_masses(T), s, work)
        theta1, theta2 = _theta(s), _theta(s2)
        r, v = theta1 - theta, theta2 - 2.0 * theta1 + theta
        with np.errstate(all="ignore"):  # an extrapolation that overflows is rejected
            alpha = _step_length(r, v)[:, None]
            theta_x = theta - 2.0 * alpha * r + alpha * alpha * v
            x = _from_theta(theta_x, s)
            ok = np.isfinite(_flat(x)).all(axis=-1) & (x.alpha > 0.0).all(axis=-1)
            if x.R.ndim == x.mu.ndim:  # diagonal variances that underflowed to 0
                ok &= (x.R > 0.0).all(axis=(-2, -1))
        at_x2 = ~ok  # the starts whose E-step ran at x2
        try:
            T, loglik, obj_x = e_step(_where(ok, x, s2), work)
        except _START_FAILURES:  # each extrapolation alone; a failed one is rejected below
            at_x2[:] = False
            T, loglik, obj_x = np.zeros_like(T), np.empty_like(obj), np.full_like(obj, -np.inf)
            for i in np.flatnonzero(ok).tolist() if len(ok) > 1 else ():  # a lone one has run
                try:
                    T[[i]], loglik[[i]], obj_x[[i]] = e_step(x.take([i]), work[:, :1])
                except _START_FAILURES:
                    pass
        ok &= np.isfinite(obj_x) & (obj_x >= obj) & (
            T.sum(axis=-1) > DEGENERACY_FRACTION * T.shape[-1]).all(axis=-1)
        back = ~ok & ~at_x2  # the plain step's E-step, for these starts only
        if back.any():
            T[back], loglik[back], obj_x[back] = e_step(s2.take(back), work[:, :back.sum()])
        theta = np.where(ok[:, None], theta_x, theta2)
        return _where(ok, x, s2), T, loglik, obj_x, theta, ~ok

    tol, last = opts.tol, opts.max_iter
    out: list = [None] * len(s.alpha)
    traces: list[list[float]] = [[] for _ in out]
    live, state = list(range(len(out))), (s, None, None, None)
    work = np.empty((1 + (s.R.ndim > s.mu.ndim), *s.mu.shape, sample.XT.shape[1]))
    for it in range(last + 1):
        step = cycle if cycles and it % 2 == 0 and 0 < it < last else plain
        s, T, loglik, obj, theta, tested = step(*state, work[:, :len(live)])
        for i, (start, value) in enumerate(zip(live, obj.tolist())):
            trace = traces[start]
            trace.append(value)
            converged = it > 0 and (tested is None or tested[i]) and abs(
                value - trace[-2]) / max(abs(trace[-2]), 2.0 ** -1022) < tol  # smallest normal
            if converged or it == last:
                out[start] = _Run(s.take(i), trace, T[i].copy(), it, bool(converged), value,
                                  float(loglik[i]))
        state, keep = (s, T, obj, theta), [out[start] is None for start in live]
        if not any(keep):
            break
        if not all(keep):  # compacting copies every array: about 30 us at S=1
            live = [start for start, kept in zip(live, keep) if kept]
            state = tuple(_rows(x, keep) for x in state)
    return out


def _per_start(f: Callable, s: _Stack) -> list:
    """``f(s)``, a list of one outcome per start of ``s``, or if that raises a
    start failure, ``f`` of each start alone, an exception for one that raises."""
    try:
        return f(s)
    except _START_FAILURES as exc:
        if len(s.alpha) == 1:
            return [exc]
    return [out for i in range(len(s.alpha)) for out in _per_start(f, s.take([i]))]


def _check(s: _Stack) -> list:
    """None per start of ``s`` once it passes :meth:`_Stack.check`."""
    (s.take(0) if len(s.alpha) == 1 else s).check()  # alone, as its constructors check it
    return [None] * len(s.alpha)


def _stacked(stacks: list) -> _Stack:
    """The unbatched ``stacks`` along a new leading start axis."""
    return _Stack(*(np.stack(f) if len(stacks) > 1 else f[0][None] for f in zip(*stacks)))


@np.errstate(over="raise", invalid="raise")  # an overflow fails its start, as in the runs
def _seeded(data: DataSet, K: int, opts: FitOptions, diagonal_gating: bool) -> list:
    """Per seed of :func:`start_seeds`, the stack of :func:`init_params`,
    built unchecked and checked with the others by one stacked validator
    call, or the exception its partition or check raised."""
    starts = []
    for seed in start_seeds(opts.seed, opts.n_starts):
        try:
            starts.append(_partition_stack(
                data, _partition(data, K, opts.init_strategy, seed), K, diagonal_gating))
        except (*_START_FAILURES, FitFailedError) as exc:
            starts.append(exc)
    ready = [i for i, s in enumerate(starts) if isinstance(s, _Stack)]
    if ready:
        for i, exc in zip(ready, _per_start(_check, _stacked([starts[i] for i in ready]))):
            starts[i] = exc or starts[i]
    return starts


@np.errstate(over="raise", invalid="raise")
def _multistart(sample: _Sample, K: int, opts: FitOptions, m_step: Callable,
                objective: Callable, starts: list, accept: Callable = _Run.result,
                squarem: bool = False) -> tuple:
    """The start and ``accept(run)`` of the best run (the first with the
    largest objective) of ``starts``: checked stacks without a start axis,
    earlier :class:`_Run` s, which start from their stacks (a lone one
    from its last E-step too), or exceptions.  The stacks run in batches
    of at most ``_BATCH_ELEMENTS // (K n max(p, d))``, a batch that raises
    one start at a time; ``squarem`` goes to :func:`_run_em`.  The runs go
    to ``accept`` best first until one passes.  The one place where a
    start's numerical trouble (a degenerate component, a failed covariance
    check or factorization, an overflow or invalid operation) becomes a
    diagnosis; underflow is routine."""
    lone = len(starts) == 1 and isinstance(starts[0], _Run)
    carry = (np.array([starts[0].loglik]), starts[0].T[None]) if lone else None
    outcomes = {start: s.s if isinstance(s, _Run) else s for start, s in enumerate(starts)}
    ready = [start for start, s in outcomes.items() if isinstance(s, _Stack)]
    size = max(1, _BATCH_ELEMENTS // (K * max(sample.X.size, sample.YT.size)))
    for batch in (ready[lo:lo + size] for lo in range(0, len(ready), size)):
        outcomes.update(zip(batch, _per_start(lambda s: _run_em(
            sample, s, opts, m_step, objective, squarem, carry),
            _stacked([outcomes[start] for start in batch]))))
    runs = {start: run for start, run in outcomes.items() if isinstance(run, _Run)}
    for start in sorted(runs, key=lambda start: (-runs[start].objective, start)):
        try:
            return start, accept(runs[start])
        except _START_FAILURES as exc:
            outcomes[start] = exc
    raise FitFailedError(f"all {len(starts)} starts failed", diagnoses=[
        f"start {start}: {type(exc).__name__}: {exc}" for start, exc in outcomes.items()
    ])


def fit_em(data: DataSet, K: int, opts: FitOptions | None = None,
           diagonal_gating: bool = False) -> FitResult:
    """Fit by EM, accelerated by SQUAREM, with multiple starts; returns the
    best-objective run.

    Starts that hit a degenerate component, a covariance failure or a
    floating-point overflow are dropped with a diagnosis; if every start
    fails a :class:`~mogge.model.FitFailedError` carries all diagnoses.
    """
    opts = opts or FitOptions()
    return _multistart(_Sample.of(data), K, opts, _ml_m_step, lambda loglik, s: loglik,
                       _seeded(data, K, opts, diagonal_gating), squarem=True)[1]

"""Maximum-likelihood EM for the Gaussian-gated mixture of experts, and
the EM core shared with the penalized fit.

The E-step computes posterior responsibilities; the M-step has closed
forms: weighted Gaussian-mixture moments for the gating network and
weighted least squares of y on ``[1, x]`` for the experts, which solve
the centred system of the gating moments, with the ridge ``GRAM_RIDGE``
on the coefficients and none on the intercepts.  Every iteration is one
M-step and one E-step, and every trace entry one EM step.  The
iteration loop and the multi-start driver also run :mod:`mogge.em_lasso`,
which supplies its own M-step and objective.  Multi-start in batches,
best objective wins; any start whose components collapse, or whose
arithmetic overflows, is abandoned and diagnosed rather than
reinitialized mid-run.  The seeded starts, the arrays of
:func:`init_params`, are drawn, built from their hard partitions, taken
as one-hot responsibilities, by the M-step's gating pass and the
experts' centred least-squares fit, and checked in one stacked pass per
batch of starts, once per fit or per K of a penalty chain; only the
returned run builds components.
"""

from __future__ import annotations

import functools
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
    _dot,
    _e_step,
    _identity,
    _into,
    _residual_squares,
    _Sample,
    _Stack,
    _sum_products,
)

INIT_STRATEGIES = ("random-partition", "kmeans-on-x")

# Numerical guards: ridge added to the experts' centred cross-moments,
# jitter added to gating covariance updates, and the responsibility mass
# below which a component counts as degenerate (relative to n).
GRAM_RIDGE = 1e-8
COV_JITTER = 1e-10
DEGENERACY_FRACTION = 1e-8

# Most numbers in one (S, K, max(p, d), n) temporary of a batch of S starts.
_BATCH_ELEMENTS = 2 ** 20

_START_FAILURES = (DegenerateComponentError, NotPositiveDefiniteError,
                   np.linalg.LinAlgError, FloatingPointError, FitFailedError)


def _integral(what: str, value) -> int:
    """``value``, an int, a numpy integer or an integral float (numpy's
    too), as an int."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FitOptions:
    """Knobs shared by the EM fitting loops.

    ``max_iter`` caps the EM steps after the initial objective, for
    either fitter.  ``tol`` bounds the relative objective change at which
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
    appended after each EM step, so ``len(loglik_trace) == n_iter + 1``
    and ``n_iter <= max_iter``.  The penalized fit's trace holds the
    penalized objective.
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
    and floor the eigenvalues of each at the variance floor, and then the
    diagonal, which rounding in the product of the eigenvectors can leave
    an ulp below it."""
    d = S.shape[-1]
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    vals, vecs = np.linalg.eigh(S)
    floored = vecs * np.maximum(vals, VARIANCE_FLOOR)[..., None, :]
    floored = floored @ np.swapaxes(vecs, -1, -2)
    diagonal = floored.reshape(-1, d * d)[:, ::d + 1]  # a view into floored
    np.maximum(diagonal, VARIANCE_FLOOR, out=diagonal)
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


def _check_partition(n: int, K: int, strategy: str) -> None:
    """Raise ``ValueError`` unless n observations can form K non-empty
    groups by a known strategy: checked once per fit, not per seed."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > n:
        raise ValueError(f"cannot split n={n} observations into K={K} groups")
    if strategy not in INIT_STRATEGIES:
        raise ValueError(f"unknown init strategy {strategy!r}")


def _partition(X: np.ndarray, K: int, strategy: str, seed: int) -> np.ndarray:
    """Labels of a hard partition of the rows of ``X`` into K non-empty
    groups, from the RNG of ``seed``: ``random-partition`` draws uniform
    labels, ``kmeans-on-x`` clusters the predictors with k-means++-seeded
    k-means.  A partition that leaves a group empty is redrawn, up to 100
    attempts.  K, n and the strategy are those :func:`_check_partition`
    accepts."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        if strategy == "random-partition":
            labels = rng.integers(0, K, size=len(X))
        else:
            labels = _kmeans_labels(X, K, rng)
        if np.all(np.bincount(labels, minlength=K) > 0):
            return labels
    raise FitFailedError(
        f"could not draw a partition with {K} non-empty groups in 100 attempts",
        diagnoses=[],
    )


def _partition_stack(sample: _Sample, labels: np.ndarray, K: int, diagonal: bool) -> _Stack:
    """Empirical per-group parameters of the S hard partitions ``labels``
    (S, n) into K groups, unchecked, stacked over starts and groups.

    The groups are one-hot responsibilities ``W`` (S, K, n), and the
    gating half is :func:`_gating_moments` of them with the jitter 1e-6:
    the weights ``n_k / n``, the means and the covariances ``C / n_k``,
    bit for bit those of the masked deviations ``D = (x - mu) W``, since
    the roots of 0 and 1 are exact and the group sizes sum to n exactly.
    The experts are those of every M-step, :func:`_expert_regressions`
    of the same moments: the least-squares fit of y on ``[1, x]`` of each
    group's points.  Each start's products are its own 2-D BLAS calls and
    reductions, so a start has the same bits in any batch."""
    W = (labels[:, None, :] == np.arange(K)[:, None]).astype(float)
    nk = W.sum(axis=-1)  # the group sizes, exactly
    alpha, mu, R, C, D = _gating_moments(sample, W, nk, diagonal, jitter=1e-6)
    return _Stack(alpha, mu, R, *_expert_regressions(sample, W, nk, mu, C, D))


def init_params(data: DataSet, K: int, strategy: str = "random-partition",
                seed: int = 0, diagonal_gating: bool = False) -> MoggeParams:
    """Initial parameters from a hard partition of the observations.

    ``random-partition`` draws uniform labels; ``kmeans-on-x`` clusters the
    predictors with k-means++-seeded k-means.  Partitions that leave a group
    empty are redrawn (up to 100 attempts).  Deterministic under ``seed``.
    Each group, taken as one-hot responsibilities, gives the gating
    moments of the M-step's gating pass (with the jitter 1e-6 on the
    covariances) and the least-squares expert of its points, with the
    ridge ``GRAM_RIDGE`` on the coefficients and, as in every M-step,
    none on the intercept.
    ``K`` is an int, a numpy integer or an integral float.  The fits build
    the same parameters, bit for bit, with :func:`_partition_stack` for a
    batch of seeds at once and check them at once; this function builds them
    for one seed and returns them checked, and raises what the component
    constructors raise.
    """
    K = _integral("K", K)
    _check_partition(data.n, K, strategy)
    labels = _partition(data.X, K, strategy, seed)
    return _partition_stack(_Sample.of(data), labels[None], K, diagonal_gating).take(0).params()


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


def _gating_moments(sample: _Sample, T: np.ndarray, nk: np.ndarray, diagonal: bool,
                    work: np.ndarray | None = None,
                    jitter: float = COV_JITTER) -> tuple[np.ndarray, ...]:
    """Stacked gating update from the (K, n) responsibilities ``T`` and their
    sums ``nk``: weights (K,), means (K, p), covariances (K, p) or (K, p, p),
    and the centred moments the experts' solves read, the cross-moments
    ``C = D D'`` (K, p, p) of the root-weighted deviations ``D = (x - mu)
    sqrt(tau)`` (K, p, n) and ``D`` itself.

    The covariances are ``C / nk`` (its diagonal for ``diagonal``) plus
    ``jitter``, and ``C`` has the same bits for either layout.
    ``work`` (see :func:`~mogge.model._gate_terms`) ends holding ``D`` in
    ``work[1]`` and the E-step's first pass at the result in ``work[0]``:
    the deviations from the new means, squared in place if ``diagonal``;
    without it ``D`` is the one (K, p, n) array allocated."""
    mu = _dot(T, sample.X) / nk[..., None]
    diff = _into(np.subtract, sample.XT, mu[..., None], None if work is None else work[0])
    # weighted by the root of T, then times its own transpose: numpy's
    # matmul runs syrk there, half the work of a general product, and
    # copies one triangle over the other, so C is exactly symmetric
    D = np.multiply(diff, np.sqrt(T)[..., None, :], out=diff if work is None else work[1])
    C = _dot(D, np.swapaxes(D, -1, -2))
    if diagonal:
        R = np.diagonal(C, 0, -2, -1) / nk[..., None] + jitter
        if work is not None:
            diff *= diff
    else:
        R = C / nk[..., None, None] + jitter * _identity(mu.shape[-1])
    return nk / nk.sum(axis=-1, keepdims=True), mu, R, C, D


def _expert_regressions(sample: _Sample, T: np.ndarray, nk: np.ndarray, mu: np.ndarray,
                        C: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stacked expert update from the (K, n) responsibilities ``T``, their
    sums ``nk`` and the means ``mu``, centred cross-moments ``C`` and
    root-weighted deviations ``D`` of :func:`_gating_moments`: the
    weighted least squares of y on ``[1, x]`` with the ridge
    ``GRAM_RIDGE`` on the coefficients only.  The coefficients (K, p, d)
    solve ``(C + GRAM_RIDGE I) B = D Yc'`` with the root-weighted
    responses ``Yc = (y - ybar) sqrt(T)``, without the condition number
    of the uncentred system, which grows with the squared offset of the
    means; the intercepts (K, d) are ``ybar - B'mu``, and the covariances
    (K, d, d) the mean products of the rooted residuals ``E = Yc - B'D``,
    floored by :func:`_floor_spd`."""
    ybar = _sum_products(T[..., None, :], sample.YT) / nk[..., None]
    Yc = sample.YT - ybar[..., None]
    Yc *= np.sqrt(T)[..., None, :]
    B = np.linalg.solve(C + GRAM_RIDGE * _identity(C.shape[-1]), _dot(D, np.swapaxes(Yc, -1, -2)))
    BT = np.swapaxes(B, -1, -2)
    E = Yc - BT @ D
    Sigma = _floor_spd(_dot(E, np.swapaxes(E, -1, -2)) / nk[..., None, None])
    return ybar - _sum_products(BT, mu[..., None, :]), B, Sigma


def m_step_gating(data: DataSet, tau: Responsibilities,
                  diagonal: bool = False) -> list[GatingComponent]:
    """Closed-form gating update: weighted mixing weights, means and
    covariances (with jitter added to the covariance)."""
    T = np.ascontiguousarray(tau.tau.T)  # (K, n): a strided view makes every pass slower
    alpha, mu, R, *_ = _gating_moments(_Sample.of(data), T, _component_masses(T), diagonal)
    return list(map(GatingComponent, alpha.tolist(), mu, R))


def m_step_experts(data: DataSet, tau: Responsibilities,
                   experts_prev: tuple[ExpertComponent, ...]) -> list[ExpertComponent]:
    """Closed-form expert update: the weighted least squares of y on ``[1,
    x]`` of :func:`_expert_regressions`, from the centred moments of the
    gating pass (of either layout: their bits do not depend on it).  The
    exact step does not read ``experts_prev``, which the signature keeps."""
    T = np.ascontiguousarray(tau.tau.T)
    sample, nk = _Sample.of(data), _component_masses(T)
    _, mu, _, C, D = _gating_moments(sample, T, nk, False)
    return list(map(ExpertComponent, *_expert_regressions(sample, T, nk, mu, C, D)))


def _ml_m_step(sample: _Sample, T: np.ndarray, nk: np.ndarray, s: _Stack, work,
               r2) -> _Stack:
    """:func:`fit_em`'s M-step: the gating pass, which leaves the E-step's
    first pass at its result in ``work`` and hands its means and centred
    moments to the experts, and for d = 1 the experts' residual squares at
    the result in ``r2``, the E-step's other first pass."""
    alpha, mu, R, C, D = _gating_moments(sample, T, nk, s.R.ndim == s.mu.ndim, work)
    a, B, Sigma = _expert_regressions(sample, T, nk, mu, C, D)
    if B.shape[-1] == 1:
        _residual_squares(sample, a, B[..., 0], r2)
    return _Stack(alpha, mu, R, a, B, Sigma)


_ml_m_step.buffers = 2  # the workspace depth it and its E-steps write


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


def _run_em(sample: _Sample, s: _Stack, opts: FitOptions,
            m_step: Callable, objective: Callable, carry: tuple | None = None) -> list[_Run]:
    """EM iterations for the starts along the leading axis of ``s``, each
    until its relative objective change drops below ``opts.tol`` or
    ``opts.max_iter`` EM steps follow the initial entry; returns an
    unchecked :class:`_Run` per start, or raises.

    ``m_step(sample, T, nk, s, work, r2)`` returns the next stack, checked
    once per M-step, from the (S, K, n) responsibilities ``T`` and their
    (S, K) masses ``nk``, and leaves in ``work[0]`` and, for d = 1, in
    ``r2`` the E-step's first pass at that stack: the deviations from the
    gating means and the experts' residual squares; the E-step right after
    it reads them there (``filled``).
    ``objective(loglik, s)`` returns the (S,) trace entries.
    Every decision is taken per start, so a start has the same bits in
    any batch, and a batch raises exactly when a start raises alone.

    ``work`` is the batch's workspace of (S, K, p, n) buffers, as many as
    the M-step's ``buffers`` attribute asks for (one without it), allocated
    once here: the first for the deviations from the gating means, and for
    :func:`_ml_m_step` a second, where its gating pass writes the
    root-weighted deviations and its full-covariance E-step the whitened
    ones; the penalized fit writes only the first.  Beside it,
    in a buffer of its own so that the gating views stay contiguous,
    ``r2`` (S, K, n) holds the residual squares of d = 1 experts.  No returned or kept
    array is a view of either.  When m starts run, the live ones or one
    alone, the kernels get the leading views ``work[:, :m]`` and
    ``r2[:m]`` (still C-contiguous).

    ``carry`` is the (S,) log-likelihoods and (S, K, n) responsibilities
    of an E-step at ``s`` run before, by the run ``s`` comes from; the
    initial entries then take them instead of running it again."""
    tol, last = opts.tol, opts.max_iter
    out: list = [None] * len(s.alpha)
    traces: list[list[float]] = [[] for _ in out]
    live, T = list(range(len(out))), None
    n = sample.XT.shape[1]
    work = np.empty((getattr(m_step, "buffers", 1), *s.mu.shape, n))
    r2 = np.empty((*s.alpha.shape, n))
    for it in range(last + 1):
        views = work[:, :len(live)], r2[:len(live)]
        if T is None:  # the initial entries
            loglik, T = _e_step(sample, s, *views) if carry is None else carry
        else:
            s = m_step(sample, T, _component_masses(T), s, *views)
            loglik, T = _e_step(sample, s, *views, True)
        for i, (start, value) in enumerate(zip(live, objective(loglik, s).tolist())):
            trace = traces[start]
            trace.append(value)
            converged = it > 0 and abs(value - trace[-2]) / max(
                abs(trace[-2]), 2.0 ** -1022) < tol  # smallest normal
            if converged or it == last:
                out[start] = _Run(s.take(i), trace, T[i].copy(), it, bool(converged), value,
                                  float(loglik[i]))
        keep = [out[start] is None for start in live]
        if not any(keep):
            break
        if not all(keep):  # compacting copies every array: about 30 us at S=1
            live = [start for start, kept in zip(live, keep) if kept]
            s, T = s.take(keep), T[keep]
    return out


def _stacked(stacks: list[_Stack]) -> _Stack:
    """The stacks ``stacks``, without a start axis, along a new leading
    one; a lone stack's fields as views."""
    return _Stack(*(np.stack(f) if len(stacks) > 1 else f[0][None] for f in zip(*stacks)))


def _batched(f: Callable, items: list, K: int, sample: _Sample) -> list:
    """One outcome per item of ``items``: ``f`` of consecutive slices of at
    most ``_BATCH_ELEMENTS // (K n max(p, d))`` items, a list of one
    outcome per item; where a slice raises a start failure, ``f`` of each
    of its items alone, and for an item that raises alone its exception.
    The one place where a start's numerical trouble becomes its outcome."""
    size = max(1, _BATCH_ELEMENTS // (K * max(sample.X.size, sample.YT.size)))
    out = []
    for lo in range(0, len(items), size):
        batch = items[lo:lo + size]
        try:
            out += f(batch)
        except _START_FAILURES as exc:
            out += [exc] if len(batch) == 1 else [
                one for item in batch for one in _batched(f, [item], K, sample)]
    return out


@np.errstate(over="raise", invalid="raise")  # an overflow fails its start, as in the runs
def _seeded(sample: _Sample, K: int, opts: FitOptions, diagonal_gating: bool) -> list:
    """Per seed of :func:`start_seeds`, the stack of :func:`init_params`,
    or the exception its partition, build or check raised.  In the batches
    of :func:`_batched`, the partitions of the batch's seeds are drawn,
    :func:`_partition_stack` builds them together and one stacked
    validator call checks them; a batch that raises is built and checked
    again one seed at a time, from the partitions it has drawn."""
    _check_partition(len(sample.X), K, opts.init_strategy)
    # each seed's partition, drawn once: a batch that runs again reuses it
    draw = functools.cache(lambda seed: _partition(sample.X, K, opts.init_strategy, seed))

    def build(seeds):  # one view per start, without the start axis
        s = _partition_stack(sample, np.stack([draw(seed) for seed in seeds]), K,
                             diagonal_gating)
        (s.take(0) if len(seeds) == 1 else s).check()  # alone, as its constructors check it
        return [s.take(i) for i in range(len(seeds))]

    return _batched(build, start_seeds(opts.seed, opts.n_starts), K, sample)


@np.errstate(over="raise", invalid="raise")
def _multistart(sample: _Sample, K: int, opts: FitOptions, m_step: Callable,
                objective: Callable, starts: list, accept: Callable = _Run.result) -> tuple:
    """The start and ``accept(run)`` of the best run (the first with the
    largest objective) of ``starts``: checked stacks without a start axis,
    earlier :class:`_Run` s, which start from their stacks (a lone one
    from its last E-step too), or exceptions.  The stacks run through
    :func:`_run_em` in the batches of :func:`_batched`, stacked there
    along a start axis, and a start that fails alone (a degenerate
    component, a failed covariance check or factorization, an overflow or
    invalid operation; underflow is routine) keeps its exception.  The
    runs go to ``accept`` best first until one passes, and every start
    left with an exception is a diagnosis if none does."""
    lone = len(starts) == 1 and isinstance(starts[0], _Run)
    carry = (np.array([starts[0].loglik]), starts[0].T[None]) if lone else None
    outcomes = {start: s.s if isinstance(s, _Run) else s for start, s in enumerate(starts)}
    ready = [start for start, s in outcomes.items() if isinstance(s, _Stack)]
    outcomes.update(zip(ready, _batched(
        lambda stacks: _run_em(sample, _stacked(stacks), opts, m_step, objective, carry),
        [outcomes[start] for start in ready], K, sample)))
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
    """Fit by EM with multiple starts; returns the best-objective run.

    Starts that hit a degenerate component, a covariance failure or a
    floating-point overflow are dropped with a diagnosis; if every start
    fails a :class:`~mogge.model.FitFailedError` carries all diagnoses.
    """
    opts, K, sample = opts or FitOptions(), _integral("K", K), _Sample.of(data)
    return _multistart(sample, K, opts, _ml_m_step, lambda loglik, s: loglik,
                       _seeded(sample, K, opts, diagonal_gating))[1]

"""Core model layer: parameter containers and exact evaluation of the
Gaussian-gated mixture-of-experts densities, responsibilities and
(penalized) log-likelihood objectives.

All density arithmetic is done in the log domain with max-subtraction /
log-sum-exp, so that high-dimensional Gaussian factors never underflow.
Every function here is a pure function of its inputs and safe to call
concurrently on shared read-only data.

One validator checks parameter sets: the component constructors call it
on their read-only copies, :meth:`_Stack.check` on all components of a
stack at once, of every start when it has a start axis.  A fit checks
only the edges of a run, its seeded starts once per batch and its
result; inside it the EM loop iterates on :class:`_Stack`, kept valid by
the M-step guards and the E-step's factorizations and positive expert
variances (``LinAlgError``).

The kernels are component-major: the log-joint matrix and the
responsibilities are ``(K, n)`` and the deviations from the means
``(K, m, n)``, so n is the contiguous axis of every elementwise pass and
the log-sum-exp and the Mahalanobis sums reduce across rows of length n.
They read the sample through :class:`_Sample`, which holds the row-major
transposes of X and Y.  Kernel docstrings give shapes without leading
axes: none in the public functions, a start axis S in the EM loop.  A
start's result has the same bits in any batch, because every operation
acts on one start at a time.  The public boundary keeps one row per
observation: :class:`Responsibilities` holds ``(n, K)``.

The log-joint matrix is assembled once, as ``c - Q / 2`` from the (K,)
constants (log weights and log-determinants) and the (K, n) sum ``Q`` of
the gating and expert Mahalanobis squares; with d = 1 the expert part of
``Q`` is the residual squares over the variances, with no factorization.
Sums over n whose bits BLAS would make depend on its thread count go
through :func:`_dot`, so a fit gives the same bytes at any thread count.
The public evaluators (:func:`joint_loglik`,
:func:`posterior_responsibilities`, :func:`penalized_loglik`,
:func:`conditional_density`, :func:`gating_probs` and
:func:`gaussian_logpdf`) run under the fits' ``np.errstate(over="raise",
invalid="raise")``: a square that overflows raises
``FloatingPointError``, as it fails a fit's start, instead of giving NaN
or -inf.

The EM loop allocates its largest temporaries, the (S, K, p, n)
deviations of the predictors, once per batch: one workspace, of two
such buffers for :func:`~mogge.em.fit_em` (either gating layout) and of
one for the penalized fit, whose kernels write only the first, passed
to the kernels as ``work`` or ``out`` and filled by
:func:`_into`, so that an iteration allocates nothing of that size and
maps no fresh pages.  Every kernel defaults to ``None`` and then
allocates its own arrays; the public functions and the seeded starts
run the same code that way.  No array a kernel returns is a
view of the workspace.  Beside it the loop keeps
one (S, K, n) buffer ``r2`` for the d = 1 experts' residual squares.
Every plain M-step of the loop leaves in them the E-step's first pass at
its result, the deviations from its gating means (squared if diagonal)
in the first buffer and the residual squares ``((y - B'x) - a) ** 2`` in
``r2``, and that E-step reads them there (``filled``) instead of
computing them again.  In :func:`~mogge.em.fit_em`'s M-step the gating
pass also hands the experts the centred cross-moments ``C`` of its
covariances (the root-weighted deviations times their own transpose),
from which they form their weighted Gram matrices ``X' W X`` as
``C + n_k mu mu'``, so X is weighted once per M-step; for diagonal
covariances that pass then squares the deviations in place.

Component layout conventions:

- gating covariances are either a full ``(p, p)`` SPD matrix or a length-p
  vector of per-coordinate variances (diagonal layout); the penalized
  fitting path requires the diagonal layout,
- expert parameters are stored in multivariate form (``intercept`` of
  length d, ``coeffs`` of shape ``(p, d)``, ``cov`` of shape ``(d, d)``)
  even when d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import cholesky

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
    """Read-only row-major float copy of ``a``, checked for dimension and finiteness."""
    arr = np.array(a, dtype=float, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DataSet:
    """Observed sample of n predictor/response pairs.

    ``X`` has shape ``(n, p)`` and ``Y`` shape ``(n, d)``; a 1-d response
    vector is accepted and stored as a single column.  Both are kept as
    read-only copies, like the component arrays.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = _as_float_array(self.X, "X", 2)
        Y = np.asarray(self.Y, dtype=float)
        Y = _as_float_array(Y[:, None] if Y.ndim == 1 else Y, "Y", 2)
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise ValueError("n, p and d must all be at least 1")
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


class _Sample(NamedTuple):
    """A :class:`DataSet` as the EM kernels read it: ``X`` (n, p) and the
    row-major transposes ``XT`` (p, n) and ``YT`` (d, n).  A fit builds it
    once; the dataset does not keep it, because the transposes would
    double the memory of every dataset held."""

    X: np.ndarray
    XT: np.ndarray
    YT: np.ndarray

    @classmethod
    def of(cls, data: DataSet) -> "_Sample":
        return cls(data.X, np.ascontiguousarray(data.X.T), np.ascontiguousarray(data.Y.T))


@lru_cache(maxsize=16)
def _identity(p: int) -> np.ndarray:
    """The p x p identity, read-only: one per p, shared by every call."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


def _positive(A: np.ndarray) -> np.ndarray:
    """``A``, once every entry is positive; raises ``LinAlgError`` as
    ``cholesky`` does for a non-positive 1 x 1 matrix, and for a NaN one too."""
    if not (A > 0.0).all():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return A


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of the matrices stacked along the leading axes
    of ``A``.  For 1 x 1 matrices the square roots, the number LAPACK's
    ``dpotrf`` returns, without its per-call cost, checked by
    :func:`_positive`."""
    if A.shape[-1] != 1:
        return cholesky(A)
    return np.sqrt(_positive(A))


def _sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sums over the last axis of ``a * b``, broadcast, by numpy's own
    loops, whose bits do not depend on the BLAS thread count."""
    return np.einsum("...n,...n->...", a, b)


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` of the stacks ``A`` (..., m, n) and ``B`` (..., n, q),
    summed over the long axis n.  numpy sends a (1, n) @ (n, 1) pair to
    BLAS ``ddot``, and OpenBLAS splits that sum across threads once n
    passes about 10,000, so that its bits depend on the thread count; such
    a pair goes to :func:`_sum_products` instead.  The gemv, gemm and syrk
    calls of the other shapes give the same bits at any thread count."""
    if A.shape[-2] == 1 and B.shape[-1] == 1:
        return _sum_products(A[..., 0, :], B[..., :, 0])[..., None, None]
    return A @ B


def _check_components(what: str, cov: np.ndarray, *arrays: np.ndarray,
                      alpha: np.ndarray | None = None) -> np.ndarray | None:
    """The validator of one component or of those stacked along the leading
    axes of ``arrays[0]``: ``alpha`` (gating) in (0, 1], finite entries,
    and ``cov`` variances or a symmetric matrix with a Cholesky factor,
    every variance at least the floor.  Raises as the first failing
    component's constructor would; returns read-only factors, or None."""
    lead = arrays[0].shape[:-1]
    matrix = cov.ndim > arrays[0].ndim
    weight = np.ones(lead, bool) if alpha is None else (
        (np.asarray(alpha) > 0.0) & (alpha <= 1.0))
    value = ~weight | ~np.isfinite(np.concatenate(
        [x.reshape(*lead, -1) for x in (*arrays, cov)], axis=-1)).all(axis=-1)
    asym = np.zeros(lead, bool)
    if matrix and cov.shape[-1] > 1:  # not np.allclose(cov, cov.T, 1e-8, 1e-12)
        with np.errstate(all="ignore"):  # in components with non-finite entries
            covT = np.swapaxes(cov, -1, -2)
            asym = (np.abs(cov - covT) > 1e-12 + 1e-8 * np.abs(covT)).any(axis=(-2, -1))
    bad = value | asym | ((np.diagonal(cov, axis1=-2, axis2=-1) if matrix else cov)
                          < VARIANCE_FLOOR).any(axis=-1)
    first = int(np.argmax(bad)) if bad.any() else bad.size  # in component order
    try:  # the components before the first failing one must factor
        L = _cholesky(cov.reshape(-1, *cov.shape[-2:])[:first]) if matrix else None
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc
    if first < bad.size:
        if not weight.flat[first]:
            raise ValueError(f"alpha must lie in (0, 1], got {np.asarray(alpha).flat[first]}")
        if value.flat[first]:
            *start, k = np.unravel_index(first, lead) if lead else (0,)
            where = "".join(f"start {i}, " for i in start)  # a stack's leading axes
            raise ValueError(f"{where}component {k + 1} has non-finite entries")
        raise NotPositiveDefiniteError(f"{what} is not symmetric" if asym.flat[first] else (
            f"{what} has a variance below the floor {VARIANCE_FLOOR:g}"))
    if L is not None:
        L = L.reshape(cov.shape)
        L.flags.writeable = False
    return L


def _check_penalty(what: str, *values) -> None:
    """Raise ``ValueError`` unless every value, a number or an array, is finite and nonnegative."""
    for v in values:
        lo, hi = (v.min(initial=0.0), v.max(initial=0.0)) if isinstance(v, np.ndarray) else (v, v)
        if not 0.0 <= lo <= hi < np.inf:  # NaN fails every comparison
            raise ValueError(f"{what} must be finite and nonnegative")


def _check_weights(weights: list[float]) -> None:
    """Mixing weights: each in (0, 1) when there are several, summing to 1 within 1e-12."""
    for k, w in enumerate(weights):
        if len(weights) > 1 and not (0.0 < w < 1.0):
            raise ValueError(f"alpha of component {k + 1} must lie in (0, 1)")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"mixing weights must sum to 1, got {sum(weights)!r}")


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
    _chol: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = float(self.alpha)
        mu = _as_float_array(self.mu, "mu", 1)
        R = _as_float_array(self.R, "R", np.ndim(self.R))
        p = mu.shape[0]
        if R.shape not in ((p,), (p, p)):
            raise ValueError(f"R must be a length-{p} vector (diagonal) or {p}x{p}")
        object.__setattr__(self, "_chol", _check_components(
            "gating covariance", R, mu, alpha=np.float64(alpha)))
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
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        intercept = _as_float_array(np.atleast_1d(self.intercept), "intercept", 1)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        coeffs = _as_float_array(coeffs, "coeffs", 2)
        cov = _as_float_array(np.atleast_2d(self.cov), "cov", 2)
        d = intercept.shape[0]
        if coeffs.shape[1] != d:
            raise ValueError(f"coeffs must have shape (p, {d}), got {coeffs.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        object.__setattr__(self, "_chol", _check_components(
            "expert covariance", cov, intercept, coeffs))
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
        p = gating[0].p
        d = experts[0].d
        diag = gating[0].is_diagonal
        for k, (g, e) in enumerate(zip(gating, experts)):
            if g.p != p or e.p != p or e.d != d:
                raise ValueError(f"component {k + 1} has inconsistent dimensions")
            if g.is_diagonal != diag:
                raise ValueError("gating covariances must all share one layout")
        _check_weights([g.alpha for g in gating])
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


class _Stack(NamedTuple):
    """Unchecked parameters stacked over the K components, ``alpha`` (K,),
    ``mu`` (K, p), ``R`` (K, p) or (K, p, p), ``a`` (K, d), ``B`` (K, p, d),
    ``Sigma`` (K, d, d), or with a leading start axis S; :meth:`of` and
    :meth:`params` convert from and to checked components, :meth:`check`
    checks a stack without building them, every start of it at once,
    :meth:`take` selects starts.  The fits build their seeded starts as
    stacks and check them with one :meth:`check` per batch of starts."""

    alpha: np.ndarray
    mu: np.ndarray
    R: np.ndarray
    a: np.ndarray
    B: np.ndarray
    Sigma: np.ndarray

    @classmethod
    def of(cls, params: MoggeParams) -> "_Stack":
        parts = [(g.mu, g.R, e.intercept, e.coeffs, e.cov)
                 for g, e in zip(params.gating, params.experts)]
        return cls(params.alphas, *map(np.stack, zip(*parts)))

    def params(self) -> MoggeParams:
        return MoggeParams(map(GatingComponent, self.alpha.tolist(), self.mu, self.R),
                           map(ExpertComponent, self.a, self.B, self.Sigma))

    def check(self) -> None:
        """Raise what :meth:`params` raises, by the constructors' validator
        run once on all components of each kind, of every start when the
        stack has a start axis; the weights are checked per start.  Of
        several failing starts the error is one of theirs."""
        _check_components("gating covariance", self.R, self.mu, alpha=self.alpha)
        _check_components("expert covariance", self.Sigma, self.a, self.B)
        for weights in self.alpha.reshape(-1, self.alpha.shape[-1]).tolist():
            _check_weights(weights)

    def take(self, index) -> "_Stack":
        return _Stack(*(field[index] for field in self))


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

def _mahalanobis(diff: np.ndarray, cov: np.ndarray, chol: np.ndarray | None,
                 out: np.ndarray | None = None,
                 filled: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian log-densities of the deviations ``diff`` (K, m, n) of n
    points from K means as ``-(const + Q) / 2``: ``const`` (K,) is
    ``m log 2 pi`` plus the log-determinants, and ``Q`` (K, n) the squared
    Mahalanobis distances, a new array.  Under K variance vectors ``cov``
    (K, m), with ``chol`` None, ``Q`` is one product of the reciprocals
    with the squared deviations, summing over m; under K full matrices
    with lower factors ``chol``, one reduction of the whitened deviations
    ``Z`` times themselves over m, with ``Z`` from the m x m inverses of
    the factors (no solve against n columns).

    Every caller passes a fresh ``diff``: the diagonal case squares it in
    place, or with ``filled`` finds it squared already, and the full case
    writes the whitened deviations into ``out`` (shaped like ``diff``; a
    new array when None)."""
    m = diff.shape[-2]
    if chol is None:
        sq = diff if filled else np.multiply(diff, diff, out=diff)
        return (m * LOG_2PI + np.log(cov).sum(axis=-1),
                ((1.0 / cov)[..., None, :] @ sq)[..., 0, :])
    Z = np.matmul(np.linalg.solve(chol, _identity(m)), diff, out=out)
    return (m * LOG_2PI + 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(axis=-1),
            np.einsum("...jn,...jn->...n", Z, Z))


def _log_weights(alpha: np.ndarray, const: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``log alpha - (const + Q) / 2`` (K, n), assembled once as ``c - Q / 2``
    with ``c = log alpha - const / 2`` (K,), in place of ``Q``."""
    Q *= -0.5
    Q += (np.log(alpha) - 0.5 * const)[..., None]
    return Q


@np.errstate(over="raise", invalid="raise")
def gaussian_logpdf(v, mean, cov) -> float:
    """Log-density of a Gaussian vector.

    Parameters
    ----------
    v, mean : array_like, shape (m,)
        Evaluation point and mean.
    cov : array_like
        Full ``(m, m)`` symmetric positive definite covariance matrix, or a
        length-m vector of variances for a diagonal covariance; checked
        like a component covariance.

    Returns
    -------
    float
        ``log phi_m(v; mean, cov)``, computed in the log domain.
    """
    v = _as_float_array(np.atleast_1d(v), "v", 1)
    mean = _as_float_array(np.atleast_1d(mean), "mean", 1)
    if v.shape != mean.shape:
        raise ValueError(f"v has shape {v.shape} but mean has shape {mean.shape}")
    cov = np.atleast_1d(cov)
    cov = _as_float_array(cov, "cov", cov.ndim)
    m = v.shape[0]
    if cov.shape not in ((m,), (m, m)):
        raise ValueError(f"cov must be a length-{m} vector (diagonal) or {m}x{m}")
    chol = _check_components("cov", cov, mean)
    const, Q = _mahalanobis((v - mean)[:, None], cov, chol)
    return float(-0.5 * (const + Q[0]))


def _into(op, XT: np.ndarray, v: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``op(XT, v)`` of the columns ``XT`` (p, n), into ``out``, a new array
    when None, by copying ``XT`` in and applying ``op`` in place, which
    takes about half the iterator scratch of broadcasting both operands
    into ``out``, and less time."""
    if out is None:
        out = np.empty(np.broadcast_shapes(XT.shape, v.shape))
    np.copyto(out, XT)
    return op(out, v, out=out)


def _gate_terms(XT: np.ndarray, s: _Stack, work: np.ndarray | None = None,
                filled: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_mahalanobis` of the columns of ``XT`` (p, n) under the gating
    Gaussians of ``s``.

    ``work``, when given, holds (K, p, n) buffers: the deviations from
    ``s.mu`` go to ``work[0]``, squared there for diagonal covariances,
    and for full ones the whitened deviations to ``work[1]``.  With
    ``filled`` ``work[0]`` already holds that first pass, bit for bit, as
    a plain M-step of the EM loop leaves it."""
    chol = _cholesky(s.R) if s.R.ndim > s.mu.ndim else None
    diff = work[0] if filled else _into(
        np.subtract, XT, s.mu[..., None], None if work is None else work[0])
    out = None if work is None or chol is None else work[1]
    return _mahalanobis(diff, s.R, chol, out, filled)


def _residuals(sample: _Sample, beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``y - B' x`` (K, n) of the d = 1 experts with coefficients ``beta``
    (K, p), into ``out`` when given."""
    r = np.matmul(beta, sample.XT, out=out)
    return np.subtract(sample.YT[0], r, out=r)


def _residual_squares(sample: _Sample, a: np.ndarray, beta: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """``((y - B' x) - a) ** 2`` (K, n) of the d = 1 experts with intercepts
    ``a`` (K, 1) and coefficients ``beta`` (K, p), into ``out`` when given:
    the three passes the expert M-steps make at their result."""
    r = _residuals(sample, beta, out)
    r -= a
    r *= r
    return r


def _log_joint_matrix(sample: _Sample, s: _Stack, work: np.ndarray | None = None,
                      r2: np.ndarray | None = None, filled: bool = False) -> np.ndarray:
    """Per-component, per-observation joint log-terms
    ``log alpha_k + log phi_p(x_i) + log phi_d(y_i | x_i)``, ``(K, n)``,
    assembled once by :func:`_log_weights`.  For d = 1 the expert term is
    ``-(log 2 pi + log sigma2 + r2 / sigma2) / 2`` with the residual squares
    ``r2`` of :func:`_residual_squares`, written into ``r2`` (K, n) when
    given, and a ``sigma2`` that is not positive raises ``LinAlgError`` as
    a failed factorization does; for d > 1 the Gaussian of
    :func:`_mahalanobis`.  ``work`` and ``filled`` as for
    :func:`_gate_terms`; with ``filled`` ``r2`` holds the residual squares
    too, bit for bit, as a plain M-step of the EM loop leaves them.  The
    parameters' (p, d) must match the sample's: the public functions
    check them once."""
    const, Q = _gate_terms(sample.XT, s, work, filled)
    if s.B.shape[-1] == 1:
        sigma2 = _positive(s.Sigma[..., 0, 0])
        r2 = r2 if filled else _residual_squares(sample, s.a, s.B[..., 0], r2)
        const = const + (LOG_2PI + np.log(sigma2))
        Q += np.divide(r2, sigma2[..., None], out=r2)
    else:
        mean = s.a[..., None] + s.B.swapaxes(-1, -2) @ sample.XT  # a_k + B_k' x_i, (K, d, n)
        const_y, Q_y = _mahalanobis(sample.YT - mean, s.Sigma, _cholesky(s.Sigma))
        const = const + const_y
        Q += Q_y
    return _log_weights(s.alpha, const, Q)


def _check_dimensions(data: DataSet, params: MoggeParams) -> None:
    """Raise ``ValueError`` unless the parameters' (p, d) are the data's."""
    if (params.p, params.d) != (data.p, data.d):
        raise ValueError(
            f"parameter dimensions (p={params.p}, d={params.d}) do not match "
            f"data (p={data.p}, d={data.d})"
        )


@np.errstate(over="raise", invalid="raise")
def gating_probs(x, params: MoggeParams) -> np.ndarray:
    """Gating probabilities ``g_k(x)`` for a single predictor vector.

    Normalizes ``alpha_k phi_p(x; mu_k, R_k)`` over components in the log
    domain, so the output always sums to 1 even when every raw density
    underflows.
    """
    x = _as_float_array(np.atleast_1d(x), "x", 1)
    if x.shape[0] != params.p:
        raise ValueError(f"x has length {x.shape[0]} but the model has p={params.p}")
    s = _Stack.of(params)
    return _log_normalize(_log_weights(s.alpha, *_gate_terms(x[:, None], s)))[1][:, 0]


@np.errstate(over="raise", invalid="raise")
def conditional_density(y, x, params: MoggeParams) -> float:
    """Log conditional density ``log f(y | x)`` of the mixture: the joint
    log-density of ``(x, y)`` minus the marginal log-density of ``x``."""
    pair = DataSet(X=np.reshape(x, (1, -1)), Y=np.reshape(y, (1, -1)))
    _check_dimensions(pair, params)
    pair, s = _Sample.of(pair), _Stack.of(params)
    joint = _log_normalize(_log_joint_matrix(pair, s))[0]
    marginal = _log_normalize(_log_weights(s.alpha, *_gate_terms(pair.XT, s)))[0]
    return float(joint[0] - marginal[0])


def _log_normalize(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column log-sum-exps of a log-weight matrix (K, n) and the columns
    normalized to weights that sum to 1, from one ``exp`` of the matrix
    shifted by each column's largest term.  A column needs at least one
    finite entry."""
    top = M.max(axis=-2, keepdims=True)
    W = np.exp(M - top)
    total = W.sum(axis=-2, keepdims=True)
    W /= total
    return (top + np.log(total))[..., 0, :], W


def _e_step(sample: _Sample, s: _Stack, work: np.ndarray | None = None,
            r2: np.ndarray | None = None,
            filled: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Joint log-likelihood (the summed column log-sum-exps) and ``(K, n)``
    responsibilities (the normalized columns) from one log-joint evaluation;
    ``work``, ``r2`` and ``filled`` as for :func:`_log_joint_matrix`."""
    lse, tau = _log_normalize(_log_joint_matrix(sample, s, work, r2, filled))
    return lse.sum(axis=-1), tau


@np.errstate(over="raise", invalid="raise")
def joint_loglik(data: DataSet, params: MoggeParams) -> float:
    """Joint log-likelihood of the sample: one log-sum-exp per observation."""
    _check_dimensions(data, params)
    return float(_e_step(_Sample.of(data), _Stack.of(params))[0])


@np.errstate(over="raise", invalid="raise")
def penalized_loglik(data: DataSet, params: MoggeParams,
                     lam: float, gamma: float) -> float:
    """L1-penalized joint log-likelihood: ``joint_loglik`` minus
    ``lam * sum_k |beta_k|_1 + gamma * sum_k |mu_k|_1``.

    Intercepts, variances and mixing weights are not penalized.  Requires
    a univariate response and diagonal gating covariances.
    """
    _check_penalty("penalty weights", lam, gamma)
    if params.d != 1 or data.d != 1:
        raise UnsupportedConfigError("penalized objective requires d = 1")
    if not params.has_diagonal_gating:
        raise UnsupportedConfigError(
            "penalized objective requires diagonal gating covariances"
        )
    _check_dimensions(data, params)
    s = _Stack.of(params)
    return float(_penalize(_e_step(_Sample.of(data), s)[0], s, lam, gamma))


def _penalize(loglik: np.ndarray, s: _Stack, lam: float, gamma: float) -> np.ndarray:
    """``loglik`` minus the L1 penalty on expert coefficients and gating means."""
    return loglik - lam * np.abs(s.B).sum((-3, -2, -1)) - gamma * np.abs(s.mu).sum((-2, -1))


@np.errstate(over="raise", invalid="raise")
def posterior_responsibilities(data: DataSet, params: MoggeParams) -> Responsibilities:
    """Posterior membership probabilities, rows normalized by log-sum-exp."""
    _check_dimensions(data, params)
    return Responsibilities(tau=_e_step(_Sample.of(data), _Stack.of(params))[1].T)

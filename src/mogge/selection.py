"""Modified-BIC model selection over a (K, lambda, gamma) grid.

The criterion is the unpenalized joint log-likelihood evaluated at the
penalized estimate minus ``df * log(n) / 2``, where ``df`` counts every
free parameter whose estimate is nonzero (mixing weights, nonzero gating
means, diagonal gating variances, nonzero expert coefficients, expert
intercepts and variances).  The warm grid of each K is one chain over
decreasing lambda at the smallest gamma, whose first point, (lambda_max,
gamma_min), alone gets the full multi-start treatment, and then one
batch of warm single-start fits per further gamma, in increasing order,
each from the same lambda at the previous gamma: 11 sequential steps for
a 6 x 6 grid instead of 36.  The rows come out in decreasing (lambda,
gamma) order either way.  The chain driver, shared with ``lasso-path``,
builds the seeded starts once per K, carries each point's unchecked run
to the next, checks its stack with the stacked validator and counts
``df`` on it; only the selected row builds a
:class:`~mogge.em.FitResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .em import FitOptions, FitResult, _integral, _Run, _seeded
from .em_lasso import PenaltyConfig, _fit_lasso, _fit_lasso_rows
from .metrics import match_components
from .model import (
    DataSet,
    FitFailedError,
    MoggeParams,
    UnsupportedConfigError,
    _check_penalty,
    _Sample,
    _Stack,
    joint_loglik,
)


class SelectionError(RuntimeError):
    """No grid point produced a converged fit."""


@dataclass(frozen=True)
class GridSpec:
    """Candidate values for the component count and the two penalties."""

    Ks: tuple[int, ...]
    lambdas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        Ks = tuple(_integral("Ks", k) for k in self.Ks)
        lambdas = tuple(float(v) for v in self.lambdas)
        gammas = tuple(float(v) for v in self.gammas)
        for name, values in (("Ks", Ks), ("lambdas", lambdas), ("gammas", gammas)):
            if len(values) == 0:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not contain duplicates")
        if any(k < 1 for k in Ks):
            raise ValueError("all K must be at least 1")
        _check_penalty("penalty values", *lambdas, *gammas)
        object.__setattr__(self, "Ks", Ks)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "gammas", gammas)


@dataclass(frozen=True)
class SelectionRow:
    K: int
    lam: float
    gamma: float
    loglik: float
    df: int
    bic: float
    converged: bool
    failure: FitFailedError | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SelectionTable:
    """Grid results plus the index of the selected row."""

    rows: tuple[SelectionRow, ...]
    selected: int
    best_fit: FitResult | None = field(default=None, compare=False)

    @property
    def selected_row(self) -> SelectionRow:
        return self.rows[self.selected]


def count_df(params: MoggeParams) -> int:
    """Number of free parameters with nonzero estimates.

    ``(K-1)`` mixing weights, nonzero gating-mean entries, all ``K*p``
    diagonal gating variances, nonzero expert coefficients, ``K`` expert
    intercepts and ``K`` expert variances.  Zeroness is equality to 0.0.
    """
    if params.d != 1:
        raise UnsupportedConfigError("df counting requires d = 1")
    if not params.has_diagonal_gating:
        raise UnsupportedConfigError("df counting requires diagonal gating")
    return _df(_Stack.of(params))


def _df(s: _Stack) -> int:
    """:func:`count_df` of an unbatched stack with diagonal gating, d = 1."""
    K, p = s.mu.shape
    return (K - 1) + int(np.count_nonzero(s.mu)) + K * p + int(np.count_nonzero(s.B)) + K + K


def modified_bic(data: DataSet, fit: FitResult) -> float:
    """Unpenalized joint log-likelihood of ``data`` at the estimate minus
    ``count_df * log(n) / 2``."""
    if not fit.converged:
        raise ValueError("BIC is only defined for a converged fit")
    return joint_loglik(data, fit.params) - count_df(fit.params) * math.log(data.n) / 2.0


def _selection_key(i: int, r: SelectionRow) -> tuple | None:
    """Sort key of row ``i``, None for a row that cannot be selected: max
    BIC among converged rows; ties prefer smaller df, then smaller K, then
    the larger combined penalty."""
    if r.converged and np.isfinite(r.bic):
        return (-(r.bic), r.df, r.K, -(r.lam + r.gamma), i)
    return None


def _selection_order(rows: list[SelectionRow]) -> int:
    """Index of the selected row; raises from the first failure if there is none."""
    candidates = [key for i, r in enumerate(rows) if (key := _selection_key(i, r))]
    if not candidates:
        failures = [r.failure for r in rows if r.failure is not None]
        raise SelectionError(
            f"no grid point produced a converged fit ({len(failures)} of "
            f"{len(rows)} fits failed)"
        ) from (failures[0] if failures else None)
    return min(candidates)[4]


def _prepared(data: DataSet, K: int, pairs, opts: FitOptions) -> tuple:
    """The sample, the seeded starts and the penalties of the (lambda,
    gamma) ``pairs`` of one K, every penalty checked before the starts are
    built."""
    if data.d != 1:
        raise UnsupportedConfigError("penalized fitting requires d = 1")
    penalties = [PenaltyConfig(lam=lam, gamma=gamma) for lam, gamma in pairs]
    sample = _Sample.of(data)
    return sample, _seeded(sample, K, opts, True), penalties


def _checked(run: _Run) -> _Run:
    """``run``, once its stack passes the stacked validator."""
    run.s.check()
    return run


def _point(sample: _Sample, K: int, penalty: PenaltyConfig, opts: FitOptions, starts: list,
           prev: _Run | None = None):
    """The checked run of the fit of ``starts`` at ``penalty``, or its
    failure; a winner other than start 0, the warm start ``prev`` when
    there is one, is relabeled toward it."""
    try:
        start, run = _fit_lasso(sample, K, penalty, opts, starts, accept=_checked)
    except FitFailedError as exc:
        return exc
    if start > 0 and prev is not None:
        order = match_components(prev.s.params(), run.s.params())
        run = run._replace(s=run.s.take(order), T=run.T[order])
    return run


def _walk(sample: _Sample, K: int, seeded: list, penalties: list, opts: FitOptions,
          warm: bool, refit: bool):
    """:func:`_chain` of the prepared ``sample``, ``seeded`` and ``penalties``."""
    prev = None
    for penalty in penalties:
        starts = seeded if prev is None else ([prev] + seeded if refit else [prev])
        run = _point(sample, K, penalty, opts, starts, prev)
        if warm and isinstance(run, _Run):
            prev = run
        yield penalty.lam, penalty.gamma, run


def _chain(data: DataSet, K: int, pairs, opts: FitOptions, warm: bool, refit: bool):
    """Fit the (lambda, gamma) ``pairs`` of one K in order; yields each pair
    with its checked, unbuilt :class:`~mogge.em._Run` or its failure.  The
    penalties are checked before the first fit, the seeded starts built
    once for every cold point.  With ``warm``, start 0 is the last good
    point's run and wins ties; the seeded starts join it where there is
    none or, with ``refit``, at every point, and a seeded winner is
    relabeled toward it.  Without ``refit`` the run starts alone, from its
    last E-step instead of running that E-step again."""
    sample, seeded, penalties = _prepared(data, K, pairs, opts)
    yield from _walk(sample, K, seeded, penalties, opts, warm, refit)


def _warm_grid(data: DataSet, K: int, lambdas, gammas, opts: FitOptions):
    """The warm walk of one K over the grid ``lambdas`` x ``gammas``;
    yields each pair with its run or failure, as :func:`_chain` does.

    First the chain over lambda, decreasing, at the smallest gamma: its
    first point runs the seeded starts, each later one starts alone from
    the last good point's run.  Then each further gamma, increasing, is
    one batch of single-start fits, one per lambda, which
    :func:`~mogge.em_lasso._fit_lasso_rows` runs together: each starts
    from the last good run of its lambda, which is the one at the
    previous gamma unless that failed, or, with none, from the one its
    chain point started from; a lambda with neither runs the seeded
    starts.  So a 6 x 6 grid takes 11 sequential steps, not 36.  The
    chain takes the lambda steps because, while the expert intercept
    lagged one iteration behind the lasso coefficients, a lambda step
    cost many iterations and a gamma step few.  With the intercept
    profiled out, on the benchmark's 24 ``select_replicates`` inputs
    (seed 7777, 5 starts), the iterations summed over starts per grid
    are 88.3 at the first point (180.5 with the lag), 16.3 along the
    lambda chain (51.7) and 84.2 in the gamma batches (88.0), which so
    now hold most of the warm iterations, and about 9.8 of 31 ms per
    grid (in-process, one BLAS thread, 2-core machine)."""
    lams = sorted(lambdas, reverse=True)
    sample, seeded, penalties = _prepared(
        data, K, [(lam, gamma) for gamma in sorted(gammas) for lam in lams], opts)
    source, last = {}, None  # per lambda, the run its next point starts from
    for lam, gamma, run in _walk(sample, K, seeded, penalties[:len(lams)], opts,
                                 warm=True, refit=False):
        source[lam] = last = run if isinstance(run, _Run) else last
        yield lam, gamma, run
    for lo in range(len(lams), len(penalties), len(lams)):
        batch = penalties[lo:lo + len(lams)]
        warm = [penalty for penalty in batch if source[penalty.lam] is not None]
        runs = dict(zip(warm, _fit_lasso_rows(sample, K, warm, opts,
                                              [source[penalty.lam] for penalty in warm],
                                              accept=_checked)))
        for penalty in batch:
            run = runs[penalty] if penalty in runs else _point(sample, K, penalty, opts,
                                                               seeded)
            if isinstance(run, _Run):
                source[penalty.lam] = run
            yield penalty.lam, penalty.gamma, run


def grid_search(data: DataSet, grid: GridSpec, opts: FitOptions | None = None,
                warm_start: bool = True) -> SelectionTable:
    """Fit every (K, lambda, gamma) triplet and select the max-BIC one.

    With ``warm_start`` (the default) each K walks its grid as
    :func:`_warm_grid` does: a chain over decreasing lambda at the
    smallest gamma, whose first point alone runs the full multi-start,
    then one batch of warm single-start fits per further gamma, in
    increasing order, each from the same lambda at the previous gamma.
    ``warm_start=False`` refits every point cold.  Either way the rows
    come out in decreasing (lambda, gamma) order per K.  Rows are checked
    by the stacked validator; only the selected one builds its result,
    ``best_fit``.  Triplets whose fits raise
    :class:`~mogge.model.FitFailedError` (kept as ``failure``) or do not
    converge get ``converged=False`` and are not selected; if none is
    left, the error is raised from the first failure.
    """
    opts = opts or FitOptions()
    pairs = sorted(((lam, gamma) for lam in grid.lambdas for gamma in grid.gammas),
                   key=lambda t: (-t[0], -t[1]))
    place = {pair: i for i, pair in enumerate(pairs)}  # a pair's row within its K
    rows: list = [None] * (len(grid.Ks) * len(pairs))
    best = None  # (selection key, run) of the best row so far
    logn_half = math.log(data.n) / 2.0
    for base, K in zip(range(0, len(rows), len(pairs)), grid.Ks):
        walk = (_warm_grid(data, K, grid.lambdas, grid.gammas, opts) if warm_start
                else _chain(data, K, pairs, opts, warm=False, refit=False))
        for lam, gamma, run in walk:
            i = base + place[lam, gamma]
            if isinstance(run, FitFailedError):
                rows[i] = SelectionRow(K, lam, gamma, float("nan"), 0, float("nan"), False,
                                       failure=run)
                continue
            df = _df(run.s)
            rows[i] = SelectionRow(K, lam, gamma, run.loglik, df, run.loglik - df * logn_half,
                                   run.converged)
            key = _selection_key(i, rows[i])
            if key is not None and (best is None or key < best[0]):
                best = key, run
    return SelectionTable(tuple(rows), _selection_order(rows), best[1].result())

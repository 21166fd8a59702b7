"""Modified-BIC model selection over a (K, lambda, gamma) grid.

The criterion is the unpenalized joint log-likelihood evaluated at the
penalized estimate minus ``df * log(n) / 2``, where ``df`` counts every
free parameter whose estimate is nonzero (mixing weights, nonzero gating
means, diagonal gating variances, nonzero expert coefficients, expert
intercepts and variances).  The grid is swept per K in decreasing
(lambda, gamma) order with warm starts along the chain; the first, most
heavily penalized point of each K gets the full multi-start treatment.
The chain driver, shared with ``lasso-path``, builds the seeded starts
once per K, carries each point's unchecked run to the next, checks its
stack with the stacked validator and counts ``df`` on it; only the
selected row builds a :class:`~mogge.em.FitResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .em import FitOptions, FitResult, _integral, _seeded
from .em_lasso import PenaltyConfig, _fit_lasso
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


def _chain(data: DataSet, K: int, pairs, opts: FitOptions, warm: bool, refit: bool):
    """Fit the (lambda, gamma) ``pairs`` of one K in order; yields each pair
    with its checked, unbuilt :class:`~mogge.em._Run` or its failure.  The
    penalties are checked before the first fit, the seeded starts built
    once for every cold point.  With ``warm``, start 0 is the last good
    point's run and wins ties; the seeded starts join it where there is
    none or, with ``refit``, at every point, and a seeded winner is
    relabeled toward it.  Without ``refit`` the run starts alone, from its
    last E-step instead of running that E-step again."""
    if data.d != 1:
        raise UnsupportedConfigError("penalized fitting requires d = 1")
    penalties = [PenaltyConfig(lam=lam, gamma=gamma) for lam, gamma in pairs]
    sample, seeded, prev = _Sample.of(data), _seeded(data, K, opts, True), None
    for penalty in penalties:
        starts = seeded if prev is None else ([prev] + seeded if refit else [prev])
        try:
            start, run = _fit_lasso(sample, K, penalty, opts, starts,
                                    accept=lambda run: run.s.check() or run)  # check(): None
        except FitFailedError as exc:
            yield penalty.lam, penalty.gamma, exc
            continue
        if start > 0 and prev is not None:
            order = match_components(prev.s.params(), run.s.params())
            run = run._replace(s=run.s.take(order), T=run.T[order])
        if warm:
            prev = run
        yield penalty.lam, penalty.gamma, run


def grid_search(data: DataSet, grid: GridSpec, opts: FitOptions | None = None,
                warm_start: bool = True) -> SelectionTable:
    """Fit every (K, lambda, gamma) triplet and select the max-BIC one.

    With ``warm_start`` (the default) each K sweeps its penalty pairs in
    decreasing (lambda, gamma) order, starting every fit from the
    previous point's solution; only the first point per K runs the full
    multi-start.  ``warm_start=False`` refits every point cold.  Rows are
    checked by the stacked validator; only the selected one builds its
    result, ``best_fit``.  Triplets whose fits raise
    :class:`~mogge.model.FitFailedError` (kept as ``failure``) or do not
    converge get ``converged=False`` and are not selected; if none is
    left, the error is raised from the first failure.
    """
    pairs = sorted(((lam, gamma) for lam in grid.lambdas for gamma in grid.gammas),
                   key=lambda t: (-t[0], -t[1]))
    rows: list[SelectionRow] = []
    best = None  # (selection key, run) of the best row so far
    logn_half = math.log(data.n) / 2.0
    for K in grid.Ks:
        for lam, gamma, run in _chain(data, K, pairs, opts or FitOptions(),
                                      warm=warm_start, refit=False):
            if isinstance(run, FitFailedError):
                rows.append(SelectionRow(K, lam, gamma, float("nan"), 0, float("nan"),
                                         False, failure=run))
                continue
            df = _df(run.s)
            rows.append(SelectionRow(K, lam, gamma, run.loglik, df,
                                     run.loglik - df * logn_half, run.converged))
            key = _selection_key(len(rows) - 1, rows[-1])
            if key is not None and (best is None or key < best[0]):
                best = key, run
    return SelectionTable(tuple(rows), _selection_order(rows), best[1].result())

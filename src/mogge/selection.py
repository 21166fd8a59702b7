"""Modified-BIC model selection over a (K, lambda, gamma) grid.

The criterion is the unpenalized joint log-likelihood evaluated at the
penalized estimate minus ``df * log(n) / 2``, where ``df`` counts every
free parameter whose estimate is nonzero (mixing weights, nonzero gating
means, diagonal gating variances, nonzero expert coefficients, expert
intercepts and variances).  The grid is swept per K in decreasing
(lambda, gamma) order with warm starts along the chain; the first, most
heavily penalized point of each K gets the full multi-start treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .em import FitOptions, FitResult
from .em_lasso import PenaltyConfig, fit_em_lasso
from .model import (
    DataSet,
    FitFailedError,
    MoggeParams,
    UnsupportedConfigError,
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
        Ks = tuple(int(k) for k in self.Ks)
        lambdas = tuple(float(v) for v in self.lambdas)
        gammas = tuple(float(v) for v in self.gammas)
        for name, values in (("Ks", Ks), ("lambdas", lambdas), ("gammas", gammas)):
            if len(values) == 0:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not contain duplicates")
        if any(k < 1 for k in Ks):
            raise ValueError("all K must be at least 1")
        if any(v < 0.0 for v in lambdas + gammas):
            raise ValueError("penalty values must be nonnegative")
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
    K, p = params.K, params.p
    nz_mu = sum(int(np.count_nonzero(g.mu)) for g in params.gating)
    nz_beta = sum(int(np.count_nonzero(e.beta)) for e in params.experts)
    return (K - 1) + nz_mu + K * p + nz_beta + K + K


def modified_bic(data: DataSet, fit: FitResult) -> float:
    """Unpenalized joint log-likelihood of ``data`` at the estimate minus
    ``count_df * log(n) / 2``."""
    if not fit.converged:
        raise ValueError("BIC is only defined for a converged fit")
    return joint_loglik(data, fit.params) - count_df(fit.params) * math.log(data.n) / 2.0


def _selection_order(rows: list[SelectionRow], failures=()) -> int:
    """Index of the max-BIC converged row; ties prefer smaller df, then
    smaller K, then the larger combined penalty."""
    candidates = [
        (-(r.bic), r.df, r.K, -(r.lam + r.gamma), i)
        for i, r in enumerate(rows)
        if r.converged and np.isfinite(r.bic)
    ]
    if not candidates:
        raise SelectionError(
            f"no grid point produced a converged fit ({len(failures)} of "
            f"{len(rows)} fits failed)"
        ) from (failures[0] if failures else None)
    return min(candidates)[4]


def grid_search(data: DataSet, grid: GridSpec, opts: FitOptions | None = None,
                ca_max_iter: int = PenaltyConfig.ca_max_iter,
                ca_tol: float = PenaltyConfig.ca_tol,
                warm_start: bool = True) -> SelectionTable:
    """Fit every (K, lambda, gamma) triplet and select the max-BIC one.

    With ``warm_start`` (the default) each K sweeps its penalty pairs in
    decreasing (lambda, gamma) order, starting every fit from the
    previous point's solution; only the first point per K runs the full
    multi-start.  ``warm_start=False`` refits every point cold.  Triplets
    whose fits raise :class:`~mogge.model.FitFailedError` or do not
    converge are recorded with ``converged=False`` and excluded from
    selection; if none is left, the error is raised from the first failure.
    """
    opts = opts or FitOptions()
    rows: list[SelectionRow] = []
    fits: list[FitResult | None] = []
    failures: list[FitFailedError] = []
    logn_half = math.log(data.n) / 2.0
    for K in grid.Ks:
        pairs = sorted(
            ((lam, gamma) for lam in grid.lambdas for gamma in grid.gammas),
            key=lambda t: (-t[0], -t[1]),
        )
        prev_params = None
        for lam, gamma in pairs:
            penalty = PenaltyConfig(
                lam=lam, gamma=gamma, ca_max_iter=ca_max_iter, ca_tol=ca_tol
            )
            try:
                fit = fit_em_lasso(
                    data, K, penalty, opts,
                    warm_start=prev_params if warm_start else None,
                )
            except FitFailedError as exc:
                failures.append(exc)
                rows.append(SelectionRow(
                    K=K, lam=lam, gamma=gamma, loglik=float("nan"), df=0,
                    bic=float("nan"), converged=False,
                ))
                fits.append(None)
                continue
            df = count_df(fit.params)
            rows.append(SelectionRow(
                K=K, lam=lam, gamma=gamma, loglik=fit.loglik, df=df,
                bic=fit.loglik - df * logn_half, converged=fit.converged,
            ))
            fits.append(fit)
            if warm_start:
                prev_params = fit.params
    selected = _selection_order(rows, failures)
    return SelectionTable(
        rows=tuple(rows), selected=selected, best_fit=fits[selected]
    )

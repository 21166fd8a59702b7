import math

import numpy as np
import pytest

import mogge.selection as selection
from mogge.em import FitOptions
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
from mogge.model import FitFailedError, UnsupportedConfigError, joint_loglik
from mogge.selection import (
    GridSpec,
    SelectionError,
    SelectionRow,
    SelectionTable,
    count_df,
    grid_search,
    modified_bic,
    _selection_order,
)
from mogge.simulate import Scenario, default_scenario, sample_dataset

from conftest import random_params, sample_from_params


def small_instance(seed=0, n=100):
    rng = np.random.default_rng(seed)
    while True:
        truth = random_params(rng, K=2, p=3, diagonal=True, spread=2.0)
        if np.linalg.norm(truth.gating[0].mu - truth.gating[1].mu) > 2.5:
            break
    return sample_from_params(rng, truth, n=n)[0]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(Ks=(), lambdas=(0.0,), gammas=(0.0,))
        with pytest.raises(ValueError):
            GridSpec(Ks=(2,), lambdas=(1.0, 1.0), gammas=(0.0,))
        with pytest.raises(ValueError):
            GridSpec(Ks=(0,), lambdas=(1.0,), gammas=(0.0,))
        with pytest.raises(ValueError):
            GridSpec(Ks=(2,), lambdas=(-1.0,), gammas=(0.0,))

    @pytest.mark.parametrize("K", [2.5, float("nan"), "2"])
    def test_non_integer_K_rejected(self, K):
        # 2.5 used to become 2
        with pytest.raises(ValueError, match="^Ks must be an integer, got "):
            GridSpec(Ks=(3, K), lambdas=(0.0,), gammas=(0.0,))

    def test_numpy_integers_and_integral_floats_are_ints(self):
        grid = GridSpec(Ks=(np.int64(2), 3.0), lambdas=(0.0,), gammas=(0.0,))
        assert grid.Ks == (2, 3) and all(type(K) is int for K in grid.Ks)


class TestCountDf:
    def test_dense_single_component(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, K=1, p=2, diagonal=True)
        # 0 weights + 2 means + 2 variances + 2 coeffs + 1 intercept + 1 var
        assert count_df(params) == 8

    def test_fully_sparse_two_components(self):
        from mogge.model import ExpertComponent, GatingComponent, MoggeParams

        g = GatingComponent(alpha=0.5, mu=np.zeros(8), R=np.ones(8))
        e = ExpertComponent(intercept=[1.0], coeffs=np.zeros((8, 1)), cov=[[1.0]])
        params = MoggeParams(gating=(g, g), experts=(e, e))
        # 1 weight + 0 means + 16 variances + 0 coeffs + 2 intercepts + 2 vars
        assert count_df(params) == 21

    def test_rejects_unsupported_layouts(self):
        rng = np.random.default_rng(2)
        with pytest.raises(UnsupportedConfigError):
            count_df(random_params(rng, K=2, p=2, diagonal=False))
        with pytest.raises(UnsupportedConfigError):
            count_df(random_params(rng, K=2, p=2, d=2, diagonal=True))


class TestModifiedBic:
    def test_formula_and_frozen_constant(self):
        # unit df difference at n=300 shifts BIC by log(300)/2
        assert math.log(300) / 2 == pytest.approx(2.8518912373281005, abs=1e-12)
        data = small_instance(seed=3)
        fit = fit_em_lasso(
            data, K=2, penalty=PenaltyConfig(lam=1.0, gamma=1.0),
            opts=FitOptions(n_starts=2, seed=0),
        )
        expected = joint_loglik(data, fit.params) - count_df(fit.params) * math.log(
            data.n
        ) / 2.0
        assert modified_bic(data, fit) == pytest.approx(expected, rel=1e-14)

    def test_requires_convergence(self):
        data = small_instance(seed=4)
        fit = fit_em_lasso(
            data, K=2, penalty=PenaltyConfig(lam=1.0, gamma=1.0),
            opts=FitOptions(n_starts=1, seed=0, max_iter=1),
        )
        assert not fit.converged
        with pytest.raises(ValueError):
            modified_bic(data, fit)


class TestSelectionOrder:
    def test_max_bic_wins(self):
        rows = [
            SelectionRow(2, 1.0, 1.0, -10.0, 5, -20.0, True),
            SelectionRow(2, 2.0, 2.0, -10.0, 5, -15.0, True),
        ]
        assert _selection_order(rows) == 1

    def test_tie_breaks(self):
        base = dict(loglik=-10.0, bic=-20.0, converged=True)
        # equal bic: smaller df first
        rows = [
            SelectionRow(K=2, lam=1.0, gamma=1.0, df=6, **base),
            SelectionRow(K=2, lam=1.0, gamma=1.0, df=5, **base),
        ]
        assert _selection_order(rows) == 1
        # then smaller K
        rows = [
            SelectionRow(K=3, lam=1.0, gamma=1.0, df=5, **base),
            SelectionRow(K=2, lam=1.0, gamma=1.0, df=5, **base),
        ]
        assert _selection_order(rows) == 1
        # then larger combined penalty
        rows = [
            SelectionRow(K=2, lam=1.0, gamma=1.0, df=5, **base),
            SelectionRow(K=2, lam=2.0, gamma=3.0, df=5, **base),
        ]
        assert _selection_order(rows) == 1

    def test_unconverged_excluded(self):
        rows = [
            SelectionRow(2, 1.0, 1.0, -10.0, 5, -5.0, False),
            SelectionRow(2, 2.0, 2.0, -10.0, 5, -15.0, True),
        ]
        assert _selection_order(rows) == 1
        with pytest.raises(SelectionError):
            _selection_order([rows[0]])


class TestGridSearch:
    def test_single_triplet_selected(self):
        data = small_instance(seed=5)
        grid = GridSpec(Ks=(2,), lambdas=(2.0,), gammas=(2.0,))
        table = grid_search(data, grid, opts=FitOptions(n_starts=2, seed=0))
        assert len(table.rows) == 1
        assert table.selected == 0
        assert table.selected_row.lam == 2.0
        assert table.best_fit is not None

    def test_rows_cover_grid_in_descending_order(self):
        data = small_instance(seed=6)
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 4.0), gammas=(0.0, 4.0))
        table = grid_search(data, grid, opts=FitOptions(n_starts=2, seed=0))
        pairs = [(r.lam, r.gamma) for r in table.rows]
        assert pairs == [(4.0, 4.0), (4.0, 0.0), (0.0, 4.0), (0.0, 0.0)]

    def test_row_loglik_is_the_fits_own(self, monkeypatch):
        data = small_instance(seed=6)
        real_fit, real_rows = selection._fit_lasso, selection._fit_lasso_rows
        fits = {}  # (lam, gamma): run, from the chain's fits and the batches' rows

        def recorded(sample, K, penalty, *args, **kwargs):
            start, fits[penalty.lam, penalty.gamma] = real_fit(sample, K, penalty, *args,
                                                               **kwargs)
            return start, fits[penalty.lam, penalty.gamma]

        def recorded_rows(sample, K, penalties, *args, **kwargs):
            runs = real_rows(sample, K, penalties, *args, **kwargs)
            fits.update(((p.lam, p.gamma), run) for p, run in zip(penalties, runs))
            return runs

        monkeypatch.setattr(selection, "_fit_lasso", recorded)
        monkeypatch.setattr(selection, "_fit_lasso_rows", recorded_rows)
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 4.0), gammas=(0.0, 4.0))
        table = grid_search(data, grid, opts=FitOptions(n_starts=2, seed=0))
        assert len(fits) == len(table.rows)
        for row in table.rows:
            assert row.loglik == joint_loglik(data, fits[row.lam, row.gamma].s.params())

    def test_nested_grids_never_lower_selected_bic_cold(self):
        data = small_instance(seed=7)
        opts = FitOptions(n_starts=2, seed=0)
        small = grid_search(
            data, GridSpec(Ks=(2,), lambdas=(4.0,), gammas=(4.0,)),
            opts=opts, warm_start=False,
        )
        big = grid_search(
            data, GridSpec(Ks=(2,), lambdas=(0.0, 4.0), gammas=(0.0, 4.0)),
            opts=opts, warm_start=False,
        )
        assert big.selected_row.bic >= small.selected_row.bic

    def test_warm_and_cold_select_similar_bic(self):
        data = small_instance(seed=8, n=120)
        opts = FitOptions(n_starts=3, seed=1, tol=1e-8, max_iter=5000)
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 5.0), gammas=(0.0, 5.0))
        warm = grid_search(data, grid, opts=opts, warm_start=True)
        cold = grid_search(data, grid, opts=opts, warm_start=False)
        assert warm.selected_row.bic == pytest.approx(
            cold.selected_row.bic, abs=1e-3
        )

    def test_failed_triplets_recorded_and_excluded(self, monkeypatch):
        data = small_instance(seed=9)
        real_fit = selection._fit_lasso

        def flaky(sample, K, penalty, opts, starts, **accept):
            if penalty.lam == 4.0:
                raise FitFailedError("boom", diagnoses=["start 0: boom"])
            return real_fit(sample, K, penalty, opts, starts, **accept)

        monkeypatch.setattr(selection, "_fit_lasso", flaky)
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 4.0), gammas=(1.0,))
        table = grid_search(data, grid, opts=FitOptions(n_starts=2, seed=0))
        failed = [r for r in table.rows if not r.converged]
        assert len(failed) == 1 and failed[0].lam == 4.0
        assert np.isnan(failed[0].bic)
        assert table.selected_row.lam == 0.0

    def test_all_failures_raise_selection_error(self, monkeypatch):
        data = small_instance(seed=10)

        def always_fail(*args, **kwargs):
            raise FitFailedError("boom", diagnoses=[])

        monkeypatch.setattr(selection, "_fit_lasso", always_fail)
        grid = GridSpec(Ks=(2,), lambdas=(1.0,), gammas=(1.0,))
        with pytest.raises(SelectionError):
            grid_search(data, grid, opts=FitOptions(n_starts=1, seed=0))

    def test_bic_prefers_sparse_fit_on_scenario_data(self):
        # on benchmark-scenario data the selected penalties are interior
        # (neither endpoint forced) and produce a sparser model than lam=0
        data, _ = sample_dataset(default_scenario(n=300, seed=123))
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 10.0, 20.0), gammas=(0.0, 10.0, 20.0))
        table = grid_search(data, grid, opts=FitOptions(n_starts=4, seed=2))
        row = table.selected_row
        assert row.converged
        dense_rows = [r for r in table.rows if r.lam == 0.0 and r.gamma == 0.0]
        assert row.df < dense_rows[0].df

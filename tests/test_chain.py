"""The warm-chain driver behind ``grid_search`` and ``lasso-path``: rows
and the selected fit bit-equal to one public fit per row, a row that fails
its check, only the selected row building a result, and the stacked
validator raising exactly where the checked constructors raise, with or
without a start axis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mogge.selection as selection
from mogge import em_lasso
from mogge.em import FitOptions
from mogge.model import (
    VARIANCE_FLOOR,
    DataSet,
    FitFailedError,
    MoggeParams,
    NotPositiveDefiniteError,
    _Stack,
)
from mogge.selection import GridSpec, grid_search
from mogge.simulate import default_scenario, sample_dataset

from _oracles import grid_search_per_row
from conftest import random_params, sample_from_params


def _instance(seed, n=100):
    rng = np.random.default_rng(seed)
    truth = random_params(rng, K=2, p=3, diagonal=True, spread=2.5)
    return sample_from_params(rng, truth, n=n)[0]


def _row_bits(row):
    failure = row.failure and (type(row.failure), str(row.failure), row.failure.diagnoses)
    return (row.K, row.lam, row.gamma, row.loglik.hex(), row.df, row.bic.hex(),
            row.converged, failure)


def _assert_same_fit(a, b):
    for x, y in zip(_Stack.of(a.params), _Stack.of(b.params)):
        assert np.array_equal(x, y)
    assert np.array_equal(a.loglik_trace, b.loglik_trace)
    assert np.array_equal(a.responsibilities.tau, b.responsibilities.tau)
    assert (a.n_iter, a.converged, a.objective, a.loglik) == (
        b.n_iter, b.converged, b.objective, b.loglik
    )


GRID = GridSpec(Ks=(1, 2, 3), lambdas=(0.0, 4.0, 8.0), gammas=(0.0, 4.0))


class TestChainEqualsOneFitPerRow:
    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_and_best_fit(self, seed, warm_start):
        data, opts = _instance(seed), FitOptions(n_starts=3, seed=seed)
        table = grid_search(data, GRID, opts=opts, warm_start=warm_start)
        oracle = grid_search_per_row(data, GRID, opts, warm_start=warm_start)
        assert [_row_bits(r) for r in table.rows] == [_row_bits(r) for r in oracle.rows]
        assert table.selected == oracle.selected
        _assert_same_fit(table.best_fit, oracle.best_fit)

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
    def test_rows_that_fail_their_fits(self, warm_start):
        # six rows, two distinct ones: every K=3 start collapses
        base, _ = sample_dataset(default_scenario(n=300, seed=42))
        data = DataSet(X=base.X[[0, 1] * 3], Y=base.Y[[0, 1] * 3])
        grid = GridSpec(Ks=(2, 3), lambdas=(0.0, 1.0), gammas=(0.0,))
        opts = FitOptions(n_starts=4, seed=2)
        table = grid_search(data, grid, opts=opts, warm_start=warm_start)
        oracle = grid_search_per_row(data, grid, opts, warm_start=warm_start)
        assert [_row_bits(r) for r in table.rows] == [_row_bits(r) for r in oracle.rows]
        assert all(isinstance(r.failure, FitFailedError) for r in table.rows if r.K == 3)
        assert table.selected == oracle.selected
        _assert_same_fit(table.best_fit, oracle.best_fit)

    def test_a_row_failing_its_check(self, monkeypatch):
        # the M-step of one row returns expert variances below the floor:
        # that row fails its check, and the next row starts from the one before
        real_step = em_lasso._lasso_m_step

        def floored(sample, T, nk, s, penalty, out=None):
            new = real_step(sample, T, nk, s, penalty, out)
            if penalty.lam == 4.0:
                return new._replace(Sigma=np.full_like(new.Sigma, 0.1 * VARIANCE_FLOOR))
            return new

        monkeypatch.setattr(em_lasso, "_lasso_m_step", floored)
        real_fit, calls = selection._fit_lasso, []

        def recorded(*args, **kwargs):
            calls.append([kwargs["warm"], None])
            start, calls[-1][1] = real_fit(*args, **kwargs)
            return start, calls[-1][1]

        monkeypatch.setattr(selection, "_fit_lasso", recorded)
        data, opts = _instance(3), FitOptions(n_starts=3, seed=3, max_iter=200)
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 4.0, 8.0), gammas=(2.0,))
        table = grid_search(data, grid, opts=opts)
        assert [r.lam for r in table.rows] == [8.0, 4.0, 0.0]
        failed = table.rows[1]
        assert not failed.converged and np.isnan(failed.bic)
        assert isinstance(failed.failure, FitFailedError)
        assert "NotPositiveDefiniteError" in failed.failure.diagnoses[0]
        assert calls[1][1] is None  # the failed row returned nothing
        assert calls[2][0] is calls[0][1].s  # the last good row's stack
        assert table.rows[0].converged and table.rows[2].converged

        monkeypatch.setattr(selection, "_fit_lasso", real_fit)
        oracle = grid_search_per_row(data, grid, opts)
        assert [_row_bits(r) for r in table.rows] == [_row_bits(r) for r in oracle.rows]

    def test_only_the_selected_row_builds_its_result(self, monkeypatch):
        data, built = _instance(4), [0]
        post_init = MoggeParams.__post_init__

        def counted(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(MoggeParams, "__post_init__", counted)
        grid = GridSpec(Ks=(2,), lambdas=(0.0, 4.0, 8.0), gammas=(0.0, 4.0))
        grid_search(data, grid, opts=FitOptions(n_starts=3, seed=4))
        assert built[0] == 1  # best_fit: the cold row's starts are checked as one stack


def _corrupt(data, fields):
    """Overwrite one entry of one field with a value drawn from a mix of
    valid and invalid ones; for a matrix entry, maybe its mirror too."""
    name = data.draw(st.sampled_from(["R", "Sigma", "alpha", "mu", "a", "B"]))
    arr = fields[name]
    index = tuple(data.draw(st.integers(0, n - 1)) for n in arr.shape)
    old = float(arr[index])
    value = data.draw(st.sampled_from([
        2.0, -old, old * (1 + 1e-9), old + 1e-13, 0.0, -1.0, 1.0, 1e3,
        VARIANCE_FLOOR, 0.5 * VARIANCE_FLOOR, np.nan, np.inf, -np.inf,
    ]))
    arr[index] = value
    if arr.ndim == 3 and arr.shape[-1] == arr.shape[-2] > 1 and data.draw(st.booleans()):
        arr[index[0], index[2], index[1]] = value


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_check_raises_exactly_where_params_raises(data):
    K, p, d = (data.draw(st.integers(1, n)) for n in (3, 3, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    params = random_params(rng, K=K, p=p, d=d, diagonal=data.draw(st.booleans()))
    fields = {name: np.array(f) for name, f in _Stack.of(params)._asdict().items()}
    for _ in range(data.draw(st.integers(0, 3))):
        _corrupt(data, fields)
    stack = _Stack(**fields)
    raised = []
    for build in (stack.params, stack.check):
        try:
            build()
            raised.append(None)
        except ValueError as exc:  # NotPositiveDefiniteError is one
            raised.append(type(exc))
    assert raised[0] in (None, ValueError, NotPositiveDefiniteError)
    assert raised[1] is raised[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_of_a_start_axis_raises_where_a_start_raises(data):
    K, p, d, S = (data.draw(st.integers(1, n)) for n in (3, 3, 2, 3))
    diagonal = data.draw(st.booleans())
    starts = []
    for _ in range(S):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        params = random_params(rng, K=K, p=p, d=d, diagonal=diagonal)
        fields = {name: np.array(f) for name, f in _Stack.of(params)._asdict().items()}
        for _ in range(data.draw(st.integers(0, 1))):
            _corrupt(data, fields)
        starts.append(_Stack(**fields))
    raised = {_raised(start.check) for start in starts} - {None}
    stacked = _Stack(*map(np.stack, zip(*starts)))
    if raised:
        assert _raised(stacked.check) in raised
    else:
        assert _raised(stacked.check) is None


def _raised(build):
    try:
        build()
    except ValueError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("edits, expected", [
    ({"R": [((0, 0, 1), 1e3), ((0, 1, 0), 1e3)], "mu": [((1, 0), np.nan)]},
     NotPositiveDefiniteError),
    ({"mu": [((0, 0), np.nan)], "R": [((1, 0, 1), 1e3), ((1, 1, 0), 1e3)]}, ValueError),
    ({"Sigma": [((0, 0, 1), 5.0)], "B": [((1, 0, 0), np.inf)]}, NotPositiveDefiniteError),
    ({"R": [((1, 1, 1), 0.0)], "alpha": [((0,), 2.0)]}, ValueError),
    ({"R": [((0, 1, 1), 0.0)], "alpha": [((1,), 2.0)]}, NotPositiveDefiniteError),
    ({"Sigma": [((1, 0, 1), 1e3), ((1, 1, 0), 1e3)], "alpha": [((0,), 0.5 + 1e-9)]},
     NotPositiveDefiniteError),
    ({"alpha": [((0,), 1.0), ((1,), 0.0)]}, ValueError),
    ({"alpha": [((0,), 0.5 + 1e-9), ((1,), 0.5)]}, ValueError),
], ids=["indefinite-then-nan", "nan-then-indefinite", "asymmetric-then-inf",
        "weight-then-floor", "floor-then-weight", "expert-before-sum", "weight-one",
        "sum"])
def test_check_takes_the_first_failure_in_constructor_order(edits, expected):
    rng = np.random.default_rng(5)
    params = random_params(rng, K=2, p=2, d=2, diagonal=False)
    fields = {name: np.array(f) for name, f in _Stack.of(params)._asdict().items()}
    fields["alpha"][:] = 0.5
    for name, entries in edits.items():
        for index, value in entries:
            fields[name][index] = value
    stack = _Stack(**fields)
    assert _raised(stack.params) is expected
    assert _raised(stack.check) is expected

"""The warm-chain driver behind ``grid_search`` and ``lasso-path``: rows
and the selected fit bit-equal to one public fit per row, a row that fails
its check, only the selected row building a result, and the stacked
validator raising exactly where the checked constructors raise, with or
without a start axis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mogge.selection as selection
from mogge import em, em_lasso
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
            calls.append([args[4], None])  # the starts, then the returned run
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
        assert len(calls[2][0]) == 1 and calls[2][0][0] is calls[0][1]  # the last good row
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


def _without_carry(monkeypatch):
    """Make the chain run the first E-step of every warm start again: the
    fits get the stack of each earlier run in its place."""
    real = selection._fit_lasso

    def uncarried(sample, K, penalty, opts, starts, **kwargs):
        starts = [s.s if isinstance(s, em._Run) else s for s in starts]
        return real(sample, K, penalty, opts, starts, **kwargs)

    monkeypatch.setattr(selection, "_fit_lasso", uncarried)


def _count(monkeypatch, name):
    """The list that gets one entry per call of ``em.<name>`` from now on."""
    calls, real = [], getattr(em, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(em, name, counted)
    return calls


class TestChainCarry:
    """A warm start, the earlier run given as the only start, takes its
    first E-step from that run: one E-step fewer per warm row, and the
    same bits."""

    @pytest.mark.parametrize("Ks, n, values", [
        ((2,), 300, (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)),
        ((1, 2, 3), 100, (0.0, 4.0, 8.0)),
    ], ids=["6x6-grid", "three-K"])
    def test_e_steps_fall_by_the_warm_rows(self, monkeypatch, Ks, n, values):
        data, _ = sample_dataset(default_scenario(n=n, seed=3))
        grid, opts = GridSpec(Ks=Ks, lambdas=values, gammas=values), FitOptions(
            n_starts=5, seed=3)
        real, warm_rows = selection._fit_lasso, []

        def recorded(*args, **kwargs):
            warm_rows.append(isinstance(args[4][0], em._Run))
            return real(*args, **kwargs)

        monkeypatch.setattr(selection, "_fit_lasso", recorded)
        e_steps = _count(monkeypatch, "_e_step")
        carried = grid_search(data, grid, opts=opts)
        with_carry, warm = len(e_steps), sum(warm_rows)
        _without_carry(monkeypatch)
        del e_steps[:]
        plain = grid_search(data, grid, opts=opts)
        assert warm == len(Ks) * (len(values) ** 2 - 1)
        assert len(e_steps) - with_carry == warm
        assert [_row_bits(r) for r in carried.rows] == [_row_bits(r) for r in plain.rows]
        assert carried.selected == plain.selected
        _assert_same_fit(carried.best_fit, plain.best_fit)

    @pytest.mark.parametrize("refit", [False, True], ids=["alone", "refit"])
    def test_only_a_warm_start_running_alone_carries(self, monkeypatch, refit):
        # a lone earlier run carries its last E-step into its batch; with
        # refit the run is one start among the seeded ones, which run their
        # own first E-step, and no batch carries anything
        data = _instance(4)
        real, carries = em._run_em, []

        def recorded(*args):
            carries.append(args[6])
            return real(*args)

        monkeypatch.setattr(em, "_run_em", recorded)
        rows = list(selection._chain(data, 2, [(4.0, 4.0), (2.0, 2.0), (0.0, 0.0)],
                                     FitOptions(n_starts=2, seed=4), warm=True,
                                     refit=refit))
        assert len(carries) == len(rows) and carries[0] is None  # one batch per point
        for carry, (_, _, run) in zip(carries[1:], rows):
            if refit:
                assert carry is None
            else:
                assert carry[0].tolist() == [run.loglik]
                assert np.array_equal(carry[1], run.T[None])


class TestSeededOncePerChain:
    """The seeded starts are built once per fit and once per K of a chain,
    which reuses them at every cold point; every penalty of a chain is
    checked before its first fit."""

    def test_partitions_drawn_once_per_start(self, monkeypatch):
        data = _instance(5)
        partitions = _count(monkeypatch, "_partition")
        em.fit_em(data, 2, FitOptions(n_starts=4, seed=5))
        assert len(partitions) == 4
        del partitions[:]
        path = [(v, v) for v in (25.0, 20.0, 15.0, 10.0, 8.0, 6.0, 4.0, 2.0, 0.0)]
        rows = list(selection._chain(data, 2, path, FitOptions(n_starts=10, seed=5),
                                     warm=True, refit=True))
        assert len(rows) == 9 and len(partitions) == 10  # 90 when built per point
        del partitions[:]
        values = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
        table = grid_search(data, GridSpec(Ks=(2,), lambdas=values, gammas=values),
                            opts=FitOptions(n_starts=5, seed=5), warm_start=False)
        assert len(table.rows) == 36 and len(partitions) == 5  # 180 when built per point

    def test_a_bad_penalty_fails_before_any_fit(self, monkeypatch):
        data = _instance(5)
        runs, partitions = _count(monkeypatch, "_run_em"), _count(monkeypatch, "_partition")
        with pytest.raises(ValueError, match="nonnegative"):
            next(selection._chain(data, 2, [(5.0, 5.0), (0.0, 0.0), (-1.0, -1.0)],
                                  FitOptions(n_starts=2, seed=5), warm=True, refit=True))
        assert runs == [] and partitions == []


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


def test_a_start_axis_failure_names_the_start():
    # start 1's second component of a K=2 stack, not "component 4"
    rng = np.random.default_rng(6)
    starts = [_Stack.of(random_params(rng, K=2, p=2, diagonal=True)) for _ in range(3)]
    stacked = _Stack(*map(np.stack, zip(*starts)))
    mu = stacked.mu.copy()
    mu[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^start 1, component 2 has non-finite entries$"):
        stacked._replace(mu=mu).check()
    with pytest.raises(ValueError, match=r"^component 2 has non-finite entries$"):
        starts[1]._replace(mu=mu[1]).check()

"""The EM core shared by ``fit_em`` and ``fit_em_lasso``: one log-joint
evaluation per iteration, one factorization per covariance, checked
parameters only where a run starts and ends, the same steps as the
public layer functions, objectives, log-likelihoods and responsibilities
that are exactly those of the returned parameters, read-only parameter
arrays, how ``_multistart`` reports failed starts, starts whose
results do not depend on the batch they run in, and the per-batch
workspace that keeps an iteration from allocating its largest
temporaries."""

import functools
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mogge import em, em_lasso, model
from mogge.em import (
    FitOptions,
    fit_em,
    init_params,
    m_step_experts,
    m_step_gating,
    start_seeds,
)
from mogge.em_lasso import (
    PenaltyConfig,
    ca_update_expert_coeffs,
    ca_update_gating_means,
    fit_em_lasso,
    update_expert_intercept_variance,
    update_gating_variances,
)
from mogge.model import (
    VARIANCE_FLOOR,
    DataSet,
    DegenerateComponentError,
    ExpertComponent,
    FitFailedError,
    GatingComponent,
    MoggeParams,
    NotPositiveDefiniteError,
    Responsibilities,
    _Stack,
    joint_loglik,
    penalized_loglik,
    posterior_responsibilities,
)
from mogge.simulate import default_scenario, sample_dataset

from _oracles import partition_params
from conftest import random_params, random_tau, sample_from_params

PENALTY = PenaltyConfig(lam=1.0, gamma=0.5)


def _instance(seed, n=60, p=3):
    rng = np.random.default_rng(seed)
    truth = random_params(rng, K=2, p=p, diagonal=True, spread=3.0)
    data, _ = sample_from_params(rng, truth, n=n)
    return data


def _count_calls(monkeypatch, name):
    """Replace ``mogge.model.<name>`` by a wrapper counting its calls."""
    calls = [0]
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(model, name, counted)
    return calls


class TestOneEStepPerIteration:
    """EM-Lasso runs one E-step per trace entry.  ``fit_em`` runs one per
    entry plus one per rejected SQUAREM extrapolation: every E-step's
    objective is the next trace entry, or falls below the entry before it
    and is replaced by the plain step's."""

    @pytest.fixture
    def counter(self, monkeypatch):
        return _count_calls(monkeypatch, "_log_joint_matrix")

    def test_fit_em(self, monkeypatch, counter):
        values = []
        e_step = em._e_step

        def recorded(*args):
            loglik, T = e_step(*args)
            values.extend(loglik.tolist())
            return loglik, T

        monkeypatch.setattr(em, "_e_step", recorded)
        fit = fit_em(_instance(1), K=2, opts=FitOptions(n_starts=1, seed=3))
        entries, rejected = iter(fit.loglik_trace.tolist()), []
        entry, previous = next(entries), None
        for value in values:
            if value == entry:
                previous, entry = entry, next(entries, None)
            else:
                assert value < previous
                rejected.append(value)
        assert entry is None
        assert fit.n_iter > 1
        assert counter[0] == len(values) == fit.n_iter + 1 + len(rejected)

    def test_fit_em_lasso(self, counter):
        fit = fit_em_lasso(
            _instance(2), K=2, penalty=PENALTY, opts=FitOptions(n_starts=1, seed=3)
        )
        assert fit.n_iter > 1
        assert counter[0] == fit.n_iter + 1


def _count_factored(monkeypatch):
    """Replace ``model._cholesky`` by a wrapper counting the matrices it
    factors: a stack of m matrices counts m."""
    count = [0]
    original = model._cholesky

    def counted(a):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return original(a)

    for module in (model, em):
        monkeypatch.setattr(module, "_cholesky", counted)
    return count


class TestOneFactorizationPerCovariance:
    """Each E-step factors each full gating covariance once: K matrices
    with full gating, none with diagonal gating or EM-Lasso, since it
    takes the 1 x 1 expert covariances (d = 1) as variances.  Each map of
    a stack to SQUAREM's coordinates in ``fit_em`` factors every full
    covariance, gating and expert: ``full_per_component * K`` matrices.
    The stacked validator, run once on the seeded starts of a batch, and
    the checked components returned at the end factor them once more, so
    a single cold start counts ``K * ((full_per_component - 1) * E-steps
    + full_per_component * (maps + 2))``; EM-Lasso runs no map, so its
    count is 2K whatever its iterations."""

    @pytest.mark.parametrize("diagonal, full_per_component", [(False, 2), (True, 1)])
    def test_fit_em(self, monkeypatch, diagonal, full_per_component):
        data = _instance(1)
        calls = _count_factored(monkeypatch)
        e_steps, maps = _count_calls(monkeypatch, "_log_joint_matrix"), [0]
        theta = em._theta

        def counted_theta(s):
            maps[0] += 1
            return theta(s)

        monkeypatch.setattr(em, "_theta", counted_theta)
        fit = fit_em(
            data, K=2, opts=FitOptions(n_starts=1, seed=3), diagonal_gating=diagonal
        )
        assert fit.n_iter > 1 and maps[0] > 0
        assert calls[0] == 2 * ((full_per_component - 1) * e_steps[0]
                                + full_per_component * (maps[0] + 2))

    def test_fit_em_lasso(self, monkeypatch):
        data = _instance(2)
        calls = _count_factored(monkeypatch)
        fit = fit_em_lasso(
            data, K=2, penalty=PENALTY, opts=FitOptions(n_starts=1, seed=3)
        )
        assert fit.n_iter > 1
        assert calls[0] == 2 * 2


class TestRunEdges:
    """A run checks its parameters where it starts and where it ends, not
    per iteration: the seeded starts of a batch are checked as one stack
    without building ``MoggeParams``, so a cold start builds it once (the
    result), as does a warm start, and the component masses are checked
    once per iteration.  Of several starts, only the one returned builds
    its result."""

    @pytest.fixture
    def counts(self, monkeypatch):
        built, checked = [0], [0]
        post_init = MoggeParams.__post_init__
        check = em._component_masses

        def counted_post_init(self):
            built[0] += 1
            post_init(self)

        def counted_check(*args, **kwargs):
            checked[0] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(MoggeParams, "__post_init__", counted_post_init)
        for module in (em, em_lasso):
            monkeypatch.setattr(module, "_component_masses", counted_check)
        return built, checked

    @pytest.mark.parametrize("fitter", [
        lambda data, opts: fit_em(data, K=2, opts=opts),
        lambda data, opts: fit_em(data, K=2, opts=opts, diagonal_gating=True),
        lambda data, opts: fit_em_lasso(data, K=2, penalty=PENALTY, opts=opts),
    ], ids=["em-full", "em-diagonal", "em-lasso"])
    def test_cold_start(self, counts, fitter):
        data = _instance(8)
        built, checked = counts
        built[0] = checked[0] = 0
        fit = fitter(data, FitOptions(n_starts=1, seed=3))
        assert fit.n_iter > 1
        assert built[0] == 1
        assert checked[0] == fit.n_iter

    def test_only_the_returned_start_builds_its_result(self, counts):
        data = _instance(8)
        built, _ = counts
        built[0] = 0
        fit_em(data, K=2, opts=FitOptions(n_starts=10, seed=3))
        assert built[0] == 1

    def test_warm_start(self, counts):
        data = _instance(8)
        cold = fit_em_lasso(data, K=2, penalty=PENALTY, opts=FitOptions(n_starts=1))
        built, checked = counts
        built[0] = checked[0] = 0
        warm = fit_em_lasso(
            data, K=2, penalty=PenaltyConfig(lam=2.0, gamma=1.0),
            opts=FitOptions(seed=1), warm_start=cold.params,
        )
        assert warm.n_iter > 1
        assert built[0] == 1
        assert checked[0] == warm.n_iter


def _assert_same_params(a, b):
    """Equal to rtol 1e-12, with the same exact zeros."""
    pairs = [(a.alphas, b.alphas)]
    for ga, gb in zip(a.gating, b.gating):
        pairs += [(ga.mu, gb.mu), (ga.R, gb.R)]
    for ea, eb in zip(a.experts, b.experts):
        pairs += [(ea.intercept, eb.intercept), (ea.coeffs, eb.coeffs), (ea.cov, eb.cov)]
    for x, y in pairs:
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=0.0)
        assert np.array_equal(x == 0.0, y == 0.0)


class TestNoFork:
    """The loop runs the same steps as the public layer functions: a
    single start equals those functions composed by hand from the same
    initial parameters, plus, for ``fit_em``, SQUAREM's extrapolation."""

    @staticmethod
    def _start(data, opts, diagonal):
        seed = start_seeds(opts.seed, 1)[0]
        return init_params(
            data, 2, strategy=opts.init_strategy, seed=seed, diagonal_gating=diagonal
        )

    @pytest.mark.parametrize("max_iter", [1, 3])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_fit_em(self, max_iter, diagonal):
        data = _instance(9)
        opts = FitOptions(n_starts=1, seed=2, max_iter=max_iter, tol=1e-300)
        fit = fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)

        def em_step(params):
            tau = posterior_responsibilities(data, params)
            return MoggeParams(
                gating=tuple(m_step_gating(data, tau, diagonal=diagonal)),
                experts=tuple(m_step_experts(data, tau, params.experts)),
            )

        def stack(params):  # with a start axis of one
            return _Stack(*(f[None] for f in _Stack.of(params)))

        params = self._start(data, opts, diagonal)
        theta0, accepted = em._theta(stack(params)), 0
        for it in range(1, max_iter + 1):
            if it % 2 or it == max_iter:  # a plain step; theta0 stays the base's
                params = em_step(params)
                continue
            # a cycle from the base point theta0 through x1 = params
            x2 = em_step(params)
            theta1, theta2 = em._theta(stack(params)), em._theta(stack(x2))
            r, v = theta1 - theta0, theta2 - 2.0 * theta1 + theta0
            alpha = em._step_length(r, v)[:, None]
            theta_x = theta0 - 2.0 * alpha * r + alpha * alpha * v
            x = em._from_theta(theta_x, stack(params)).take(0).params()
            if joint_loglik(data, x) >= joint_loglik(data, params):
                params, theta0, accepted = x, theta_x, accepted + 1
            else:
                params, theta0 = x2, theta2
        assert fit.n_iter == max_iter
        assert accepted == (max_iter == 3)
        _assert_same_params(fit.params, params)

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_fit_em_lasso(self, max_iter):
        data = _instance(10)
        penalty = PenaltyConfig(lam=4.0, gamma=3.0)
        opts = FitOptions(n_starts=1, seed=2, max_iter=max_iter, tol=1e-300)
        fit = fit_em_lasso(data, K=2, penalty=penalty, opts=opts)
        params = self._start(data, opts, True)
        for _ in range(max_iter):
            tau = posterior_responsibilities(data, params)
            nk = tau.tau.sum(axis=0)
            mus = ca_update_gating_means(data, tau, params.gating, penalty.gamma)
            nus = update_gating_variances(data, tau, mus)
            experts = []
            for k, prev in enumerate(params.experts):
                beta = ca_update_expert_coeffs(data, tau.tau[:, k], prev, penalty.lam)
                b0, s2 = update_expert_intercept_variance(data, tau.tau[:, k], beta)
                experts.append(ExpertComponent(intercept=b0, coeffs=beta, cov=s2))
            params = MoggeParams(
                gating=tuple(
                    GatingComponent(alpha=nk[k] / nk.sum(), mu=mus[k], R=nus[k])
                    for k in range(2)
                ),
                experts=tuple(experts),
            )
        assert fit.n_iter == max_iter
        assert any(np.any(e.beta == 0.0) for e in params.experts)
        _assert_same_params(fit.params, params)


class TestReadOnlyParameters:
    def test_fitted_arrays_reject_writes(self):
        fit = fit_em(_instance(7), K=2, opts=FitOptions(n_starts=1, seed=0))
        with pytest.raises(ValueError):
            fit.params.gating[0].R[0, 0] = 1.0
        with pytest.raises(ValueError):
            fit.params.experts[0].coeffs[0, 0] = 1.0

    def test_caller_arrays_are_copied(self):
        mu, R = np.zeros(2), np.eye(2)
        coeffs, cov = np.zeros((2, 1)), np.ones((1, 1))
        g = GatingComponent(alpha=1.0, mu=mu, R=R)
        e = ExpertComponent(intercept=[0.0], coeffs=coeffs, cov=cov)
        mu[0] = R[0, 0] = coeffs[0, 0] = cov[0, 0] = 5.0
        assert np.array_equal(g.mu, np.zeros(2))
        assert np.array_equal(g.R, np.eye(2))
        assert np.array_equal(e.coeffs, np.zeros((2, 1)))
        assert np.array_equal(e.cov, np.ones((1, 1)))


class TestExactness:
    """The returned objective and responsibilities are bit-identical to a
    fresh evaluation at the returned parameters."""

    def _check(self, data, fit, objective):
        assert fit.objective == objective(data, fit.params)
        assert fit.loglik == joint_loglik(data, fit.params)
        assert fit.loglik_trace[-1] == fit.objective
        fresh = posterior_responsibilities(data, fit.params).tau
        assert np.array_equal(fit.responsibilities.tau, fresh)

    def test_fit_em(self):
        data = _instance(3)
        fit = fit_em(data, K=2, opts=FitOptions(n_starts=3, seed=1))
        self._check(data, fit, joint_loglik)

    def test_fit_em_lasso_cold_and_warm(self):
        data = _instance(4)

        def objective(data, params):
            return penalized_loglik(data, params, PENALTY.lam, PENALTY.gamma)

        cold = fit_em_lasso(
            data, K=2, penalty=PENALTY, opts=FitOptions(n_starts=3, seed=1)
        )
        self._check(data, cold, objective)
        warm = fit_em_lasso(
            data, K=2, penalty=PENALTY, opts=FitOptions(seed=1),
            warm_start=cold.params,
        )
        self._check(data, warm, objective)


class TestMultistart:
    def test_failed_warm_start_has_one_diagnosis(self):
        data = _instance(5, p=2)
        # the second component sits far from every point, so its
        # responsibility mass vanishes in the first E-step
        far = MoggeParams(
            gating=(
                GatingComponent(alpha=0.5, mu=np.zeros(2), R=np.ones(2)),
                GatingComponent(alpha=0.5, mu=np.full(2, 1e3), R=np.ones(2)),
            ),
            experts=tuple(
                ExpertComponent(intercept=[0.0], coeffs=np.zeros(2), cov=[[1.0]])
                for _ in range(2)
            ),
        )
        with pytest.raises(FitFailedError) as err:
            fit_em_lasso(
                data, K=2, penalty=PENALTY, opts=FitOptions(n_starts=4),
                warm_start=far,
            )
        assert len(err.value.diagnoses) == 1
        assert "DegenerateComponentError" in err.value.diagnoses[0]
        assert "component 2" in err.value.diagnoses[0]


class TestFitResultPermuted:
    def test_inverse_permutation_restores_the_fit(self):
        fit = fit_em(_instance(6, n=90), K=3, opts=FitOptions(n_starts=2, seed=0))
        order = [2, 0, 1]
        moved = fit.permuted(order)
        tau = fit.responsibilities.tau
        assert np.array_equal(moved.responsibilities.tau, tau[:, order])
        assert np.array_equal(moved.params.gating[0].mu, fit.params.gating[2].mu)
        assert moved.objective == fit.objective
        assert moved.n_iter == fit.n_iter
        assert moved.converged == fit.converged
        assert np.array_equal(moved.loglik_trace, fit.loglik_trace)
        back = moved.permuted(np.argsort(order))
        assert np.array_equal(back.responsibilities.tau, tau)
        for a, b in zip(back.params.gating, fit.params.gating):
            assert a.alpha == b.alpha
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.R, b.R)
        for a, b in zip(back.params.experts, fit.params.experts):
            assert np.array_equal(a.intercept, b.intercept)
            assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(a.cov, b.cov)


FITTERS = {
    "em-full": lambda data, K, opts: fit_em(data, K=K, opts=opts),
    "em-diagonal": lambda data, K, opts: fit_em(data, K=K, opts=opts, diagonal_gating=True),
    "em-lasso": lambda data, K, opts: fit_em_lasso(
        data, K=K, penalty=PenaltyConfig(lam=5.0, gamma=5.0), opts=opts
    ),
}

RUN_EM = em._run_em


@pytest.fixture
def batches(monkeypatch):
    """Record every ``_run_em`` call: its arguments and its runs, or the
    start failure it raises."""
    calls = []

    def recorded(*args, **kwargs):
        try:
            out = RUN_EM(*args, **kwargs)
        except em._START_FAILURES as exc:
            calls.append((args, exc))
            raise
        calls.append((args, out))
        return out

    monkeypatch.setattr(em, "_run_em", recorded)
    return calls


def _alone(args, i):
    """The outcome of start i of a recorded batch, run as a batch of one:
    its run, or the start failure it raises."""
    sample, s, *rest = args
    with np.errstate(over="raise", invalid="raise"):
        try:
            (out,) = RUN_EM(sample, s.take(slice(i, i + 1)), *rest)
        except em._START_FAILURES as exc:
            return exc
    return out


def _lone(out):
    """The outcome of a recorded batch of one start: its run or its failure."""
    return out if isinstance(out, Exception) else out[0]


def _assert_same_run(a, b):
    """The same outcome to the last bit: fits (or runs, checked here) with
    equal stacked parameters, trace, responsibilities and counts, or
    failures of one type and text."""
    if isinstance(b, Exception):
        assert (type(a), str(a)) == (type(b), str(b))
        return
    a, b = (run.result() if isinstance(run, em._Run) else run for run in (a, b))
    for x, y in zip(_Stack.of(a.params), _Stack.of(b.params)):
        assert np.array_equal(x, y)
    assert np.array_equal(a.loglik_trace, b.loglik_trace)
    assert np.array_equal(a.responsibilities.tau, b.responsibilities.tau)
    assert (a.n_iter, a.converged, a.objective, a.loglik) == (
        b.n_iter, b.converged, b.objective, b.loglik
    )


def _two_distinct_rows():
    """Six rows, two distinct ones: with K=3 some starts collapse midway."""
    data, _ = sample_dataset(default_scenario(n=300, seed=42))
    rows = [0, 1] * 3
    return DataSet(X=data.X[rows], Y=data.Y[rows])


class TestBatchedStarts:
    """All starts of a fit iterate in one batch, yet each start's outcome is
    the one it has run alone (S=1), to the last bit."""

    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_each_start_equals_its_run_alone(self, batches, fitter):
        data = _instance(11, n=80)
        FITTERS[fitter](data, 2, FitOptions(n_starts=6, seed=4))
        ((args, out),) = batches
        assert len(out) == 6
        assert len({fit.n_iter for fit in out}) > 1  # starts leave at different times
        for i, fit in enumerate(out):
            _assert_same_run(fit, _alone(args, i))

    @pytest.mark.parametrize("fitter", ["em-full", "em-diagonal"])
    def test_three_components_two_responses(self, batches, fitter):
        # d > 1 runs the (K, d, n) residuals and the d x d expert covariances
        rng = np.random.default_rng(17)
        truth = random_params(rng, K=3, p=3, d=2, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=120)
        FITTERS[fitter](data, 3, FitOptions(n_starts=6, seed=4))
        ((args, out),) = batches
        assert len(out) == 6
        assert len({run.n_iter for run in out}) > 1
        for i, run in enumerate(out):
            _assert_same_run(run, _alone(args, i))

    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_one_start_per_batch_gives_the_same_fit(self, monkeypatch, batches, fitter):
        data, opts = _instance(12, n=80), FitOptions(n_starts=5, seed=6)
        together = FITTERS[fitter](data, 2, opts)
        monkeypatch.setattr(em, "_BATCH_ELEMENTS", 1)
        apart = FITTERS[fitter](data, 2, opts)
        assert [len(out) for _, out in batches] == [5, 1, 1, 1, 1, 1]
        _assert_same_run(apart, together)

    @pytest.mark.parametrize("fitter, failed", [
        ("em-full", 5), ("em-diagonal", 5), ("em-lasso", 9),
    ])
    def test_starts_failing_midway(self, monkeypatch, batches, fitter, failed):
        # the batch raises, and _batched runs each of its starts alone
        data, opts = _two_distinct_rows(), FitOptions(n_starts=10, seed=0)
        together = FITTERS[fitter](data, 3, opts)
        (args, raised), *rerun = batches
        assert isinstance(raised, DegenerateComponentError)
        assert [len(s.alpha) for (_, s, *_), _ in rerun] == [1] * 10
        out = [_lone(o) for _, o in rerun]
        assert sum(isinstance(o, DegenerateComponentError) for o in out) == failed
        for i, outcome in enumerate(out):
            _assert_same_run(outcome, _alone(args, i))
        monkeypatch.setattr(em, "_BATCH_ELEMENTS", 1)
        _assert_same_run(FITTERS[fitter](data, 3, opts), together)
        apart = batches[11:]
        assert len(apart) == 10
        for outcome, (_, alone) in zip(out, apart):
            _assert_same_run(outcome, _lone(alone))

    @pytest.mark.parametrize("fitter", ["em-full", "em-lasso"])
    def test_diagnoses_in_start_order(self, monkeypatch, fitter):
        data, opts = _two_distinct_rows(), FitOptions(n_starts=4, seed=2)
        with pytest.raises(FitFailedError) as together:
            FITTERS[fitter](data, 3, opts)
        monkeypatch.setattr(em, "_BATCH_ELEMENTS", 1)
        with pytest.raises(FitFailedError) as apart:
            FITTERS[fitter](data, 3, opts)
        assert together.value.diagnoses == apart.value.diagnoses
        assert [d.split(":")[0] for d in together.value.diagnoses] == [
            f"start {s}" for s in range(4)
        ]

    def test_one_indefinite_start_in_a_batch(self, batches):
        data = _instance(13, n=80)
        fit_em(data, K=2, opts=FitOptions(n_starts=3, seed=8))
        ((args, _),) = batches
        sample, s, *rest = args
        R = s.R.copy()
        R[1, 0] = np.diag([1.0, -1.0, 1.0])
        bad = s._replace(R=R)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(np.linalg.LinAlgError):
                RUN_EM(sample, bad, *rest)
            out = em._batched(lambda stacks: RUN_EM(sample, em._stacked(stacks), *rest),
                              [bad.take(i) for i in range(3)], 2, sample)
        assert [type(o).__name__ for o in out] == ["_Run", "LinAlgError", "_Run"]
        for i in (0, 2):
            _assert_same_run(out[i], _alone((sample, bad, *rest), i))


    def test_one_singular_expert_in_a_batch(self):
        # an all-zero column with a nonzero incoming coefficient on it in one
        # expert of one start: that expert's active block is singular but
        # for the ridge, and its active-set rounds must not change any other
        # expert's bits
        base = _instance(16, n=80)
        X = base.X.copy()
        X[:, 1] = 0.0
        data = DataSet(X=X, Y=base.Y)
        s = _Stack(*map(np.stack, zip(*(
            _Stack.of(init_params(data, 2, seed=seed, diagonal_gating=True))
            for seed in range(3)
        ))))
        B = s.B.copy()
        B[:, :, 1] = 0.0
        B[1, 0, 1] = 1.0
        s = s._replace(B=B)
        sample = model._Sample.of(data)
        _, T = model._e_step(sample, s)
        nk = T.sum(axis=-1)
        work, r2 = np.empty((*s.mu.shape, data.n)), np.empty((*s.alpha.shape, data.n))
        batch = em_lasso._lasso_m_step(sample, T, nk, s, PENALTY, work, r2)
        for i in range(3):
            alone = em_lasso._lasso_m_step(sample, T[[i]], nk[[i]], s.take([i]), PENALTY,
                                           work[:1], r2[:1])
            for x, y in zip(batch, alone):
                assert np.array_equal(x[i], y[0])
        assert batch.B[1, 0, 1, 0] == 0.0  # the rounds drop it


def _corrupt_start(field, index, value):
    """A stack builder that writes ``value`` at ``index`` of ``field`` for
    each start whose partition is the chosen one, given to it as
    ``labels[0]``."""
    real, labels = em._partition_stack, [None]

    def corrupted(sample, drawn, K, diagonal):
        s = real(sample, drawn, K, diagonal)
        hits = np.flatnonzero((drawn == labels[0]).all(axis=-1))
        if not hits.size:
            return s
        x = getattr(s, field).copy()
        for i in hits:
            x[(i, *index)] = value
        return s._replace(**{field: x})

    return corrupted, labels


class TestSeededStarts:
    """Seeded starts are built as unchecked stacks, those of a fit checked
    at once by the stacked validator, and, only when that raises, each
    alone, without its start axis: the stacks are those of
    ``init_params`` to the bit, and a failing start gets the diagnosis
    ``init_params`` raises for its seed without moving any other start."""

    @pytest.mark.parametrize("K, d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    @pytest.mark.parametrize("strategy", em.INIT_STRATEGIES)
    def test_stacks_are_those_of_init_params(self, batches, strategy, diagonal, K, d):
        rng = np.random.default_rng(29)
        truth = random_params(rng, K=3, p=3, d=d, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=60)
        opts = FitOptions(n_starts=4, seed=5, max_iter=1, init_strategy=strategy)
        fit_em(data, K=K, opts=opts, diagonal_gating=diagonal)
        ((args, _),) = batches
        stack = args[1]
        for i, seed in enumerate(start_seeds(opts.seed, opts.n_starts)):
            params = init_params(data, K, strategy, seed, diagonal)
            labels = em._partition(data.X, K, strategy, seed)
            built = partition_params(data, labels, K, diagonal)
            for x, y, z in zip(stack, _Stack.of(params), _Stack.of(built)):
                assert x[i].shape == y.shape == z.shape
                assert x[i].tobytes() == y.tobytes() == z.tobytes()

    def test_diagonal_variances_are_the_diagonal_of_the_full_layout(self):
        # both layouts take their covariances from the same C / n_k; the
        # diagonal adds the jitter to its diagonal, as the full layout's 1e-6 I
        data, _ = sample_dataset(default_scenario(n=300, seed=1))
        labels = np.stack([em._partition(data.X, 2, "random-partition", seed)
                           for seed in start_seeds(0, 10)])
        full, diagonal = (em._partition_stack(model._Sample.of(data), labels, 2, layout)
                          for layout in (False, True))
        assert diagonal.R.tobytes() == np.diagonal(full.R, 0, -2, -1).tobytes()
        for name in ("alpha", "mu", "a", "B", "Sigma"):
            assert getattr(diagonal, name).tobytes() == getattr(full, name).tobytes()

    @pytest.mark.parametrize("starts", [1, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    def test_gating_half_is_the_m_steps_gating_pass(self, diagonal, K, starts):
        # the weights, means and covariances of a partition are those of
        # the gating pass on its one-hot responsibilities, with the jitter
        # 1e-6, to the bit
        rng = np.random.default_rng([K, starts])
        data = DataSet(X=rng.normal(size=(40, 3)) * [1e-3, 1.0, 1e3] + 5.0,
                       Y=rng.normal(size=40))
        sample = model._Sample.of(data)
        labels = np.stack([em._partition(data.X, K, "random-partition", seed)
                           for seed in start_seeds(K, starts)])
        W = (labels[:, None, :] == np.arange(K)[:, None]).astype(float)
        moments = em._gating_moments(sample, W, W.sum(axis=-1), diagonal, jitter=1e-6)
        built = em._partition_stack(sample, labels, K, diagonal)
        for x, y in zip(built[:3], moments[:3]):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_a_raising_build_fails_only_its_start(self, monkeypatch):
        # the batch's build raises, and each start is built alone: the one
        # that raises gets the exception init_params raises for its seed
        data, opts = _instance(14, n=80), FitOptions(n_starts=3, seed=9)
        seeds = start_seeds(opts.seed, opts.n_starts)
        clean = [_Stack.of(init_params(data, 2, opts.init_strategy, seed)) for seed in seeds]
        chosen, real = em._partition(data.X, 2, opts.init_strategy, seeds[1]), em._partition_stack
        builds = []

        def raising(sample, drawn, K, diagonal):
            builds.append(len(drawn))
            if (drawn == chosen).all(axis=-1).any():
                raise FloatingPointError("overflow encountered in multiply")
            return real(sample, drawn, K, diagonal)

        monkeypatch.setattr(em, "_partition_stack", raising)
        with pytest.raises(FloatingPointError) as direct:
            init_params(data, 2, opts.init_strategy, seeds[1])
        del builds[:]
        out = em._seeded(model._Sample.of(data), 2, opts, False)
        assert builds == [3, 1, 1, 1]
        assert (type(out[1]), str(out[1])) == (type(direct.value), str(direct.value))
        for i in (0, 2):
            for x, y in zip(out[i], clean[i]):
                assert x.tobytes() == y.tobytes()

    def test_one_check_per_seeded_list_and_none_for_the_warm_start(self, monkeypatch):
        checked, check = [], _Stack.check

        def counted(s):
            checked.append(s.alpha.shape)
            return check(s)

        monkeypatch.setattr(_Stack, "check", counted)
        data, opts = _instance(8), FitOptions(n_starts=3, seed=1)
        cold = fit_em_lasso(data, K=2, penalty=PENALTY, opts=opts)
        fit_em_lasso(data, K=2, penalty=PENALTY, opts=opts, warm_start=cold.params)
        monkeypatch.setattr(em, "_BATCH_ELEMENTS", 1)
        fit_em(data, K=2, opts=opts)  # three batches of one: one check each
        fit_em(data, K=2, opts=replace(opts, n_starts=1))
        # a lone start is checked without its start axis
        assert checked == [(3, 2), (2,), (2,), (2,), (2,)]

    @pytest.mark.parametrize("diagonal, field, index, value", [
        (False, "R", (0, 0, 1), 1.0),
        (True, "R", (1, 2), 0.5 * VARIANCE_FLOOR),
        (False, "Sigma", (1, 0, 0), 0.5 * VARIANCE_FLOOR),
    ], ids=["asymmetric-R", "R-below-floor", "Sigma-below-floor"])
    def test_one_failing_start_is_diagnosed_alone(self, monkeypatch, batches, diagonal,
                                                  field, index, value):
        data, opts = _instance(14, n=80), FitOptions(n_starts=3, seed=9)
        fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)
        seed = start_seeds(opts.seed, opts.n_starts)[1]
        corrupted, labels = _corrupt_start(field, index, value)
        labels[0] = em._partition(data.X, 2, opts.init_strategy, seed)
        monkeypatch.setattr(em, "_partition_stack", corrupted)
        with pytest.raises(NotPositiveDefiniteError) as direct:
            init_params(data, 2, opts.init_strategy, seed, diagonal)

        def reject(run):
            raise DegenerateComponentError(0, "rejected")

        monkeypatch.setattr(em, "_multistart", functools.partial(em._multistart,
                                                                 accept=reject))
        with pytest.raises(FitFailedError) as failed:
            fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)
        assert failed.value.diagnoses == [
            "start 0: DegenerateComponentError: rejected",
            f"start 1: NotPositiveDefiniteError: {direct.value}",
            "start 2: DegenerateComponentError: rejected",
        ]
        (_, clean), (args, out) = batches
        assert len(clean) == 3 and len(args[1].alpha) == len(out) == 2
        for run, alone in zip(out, (clean[0], clean[2])):
            _assert_same_run(run, alone)


def _exact_ridge_fit(X, Y):
    """Intercepts (d,), coefficients (p, d) and mean residual products
    (d, d) of the ridge least-squares fit of the rows of ``Y`` on
    ``[1, X]`` with the ridge ``GRAM_RIDGE`` on the coefficients and none
    on the intercept: the normal equations solved in exact rational
    arithmetic, so that no formulation's conditioning enters the reference
    (an uncentred solve in ``np.longdouble`` at means 1e6 spreads from 0
    keeps about 7 digits)."""
    rows = [[Fraction(1)] + [Fraction(v) for v in x] for x in X.tolist()]
    ys = [[Fraction(v) for v in y] for y in Y.tolist()]
    m, d, ridge = len(rows[0]), len(ys[0]), Fraction(em.GRAM_RIDGE)
    M = [[sum(z[i] * z[j] for z in rows) + (ridge if i == j > 0 else 0) for j in range(m)]
         + [sum(z[i] * y[j] for z, y in zip(rows, ys)) for j in range(d)] for i in range(m)]
    for col in range(m):  # Gauss-Jordan; the ridged Gram is positive definite
        for r in range(m):
            if r != col and M[r][col]:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    coef = [[M[i][m + j] / M[i][i] for j in range(d)] for i in range(m)]
    resid = [[y[j] - sum(z[i] * coef[i][j] for i in range(m)) for j in range(d)]
             for z, y in zip(rows, ys)]
    Sigma = [[sum(r[i] * r[j] for r in resid) / len(rows) for j in range(d)] for i in range(d)]
    return (np.array(coef[0], dtype=float), np.array(coef[1:], dtype=float),
            np.array(Sigma, dtype=float))


class TestSeededAccuracy:
    """The seeded stacks against a per-group reference: the means and
    covariances summed in ``np.longdouble``, the experts' ridge fit in
    exact rationals.  Every entry is within 1e-12 of its scale: the
    column's largest magnitude for a mean, ``sqrt(R_ii R_jj)`` for a
    covariance, the expert's largest coefficient for a coefficient, the
    terms of ``ybar - b'mu`` for an intercept and ``sqrt(S_ii S_jj)`` for
    an expert covariance, from 1e-150 to 1e150, for means 1e6 spreads from
    0, and for groups of one point."""

    @pytest.mark.parametrize("K, d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    @pytest.mark.parametrize("scale, offset", [
        (1e-150, 0.0), (1e-150, 1e6), (1e-3, 0.0), (1.0, 0.0), (1.0, 1e6),
        (1e3, 1e6), (1e144, 1e6), (1e150, 0.0),
    ])
    def test_matches_a_per_group_reference(self, scale, offset, K, d):
        rng = np.random.default_rng(59 + 7 * K + d)
        n, p = 30, 3
        labels = rng.permutation(np.arange(n) % K)
        # a group of one point: its coefficients rest on the ridge alone
        lone = K > 1
        if lone:
            labels[labels == K - 1] = 0
            labels[rng.integers(n)] = K - 1
        Z = rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p)
        X = scale * (offset + Z)
        Y = offset + Z @ rng.normal(size=(p, d)) + rng.normal(size=(n, d))
        data = DataSet(X=X, Y=Y)
        stacks = [em._partition_stack(model._Sample.of(data), labels[None], K, diagonal)
                  .take(0) for diagonal in (False, True)]
        ld = np.longdouble
        for k in range(K):
            Xk = X[labels == k].astype(ld)
            nk = len(Xk)
            assert not lone or k < K - 1 or nk == 1
            mu = Xk.sum(axis=0) / nk
            R = (Xk - mu).T @ (Xk - mu) / nk + ld(1e-6) * np.eye(p, dtype=ld)
            a, B, Sigma = _exact_ridge_fit(X[labels == k], Y[labels == k])
            Sigma = em._floor_spd(Sigma)
            r_scale = np.sqrt(np.outer(np.diagonal(R), np.diagonal(R)))
            for s in stacks:
                assert (np.abs(s.mu[k] - mu) <= 1e-12 * np.abs(Xk).max(axis=0)).all()
                R_k = s.R[k] if s.R.ndim == 3 else np.diag(s.R[k])
                off = np.eye(p, dtype=bool) if s.R.ndim == 2 else np.ones((p, p), bool)
                assert (np.abs(R_k - R)[off] <= 1e-12 * r_scale[off]).all()
                assert (np.abs(s.B[k] - B) <= 1e-12 * np.abs(B).max(axis=0)).all()
                a_scale = np.abs(Y[labels == k]).mean(axis=0) + np.abs(mu.astype(float)) @ np.abs(B)
                assert (np.abs(s.a[k] - a) <= 1e-12 * a_scale).all()
                S_scale = np.sqrt(np.outer(np.diagonal(Sigma), np.diagonal(Sigma)))
                assert (np.abs(s.Sigma[k] - Sigma) <= 1e-12 * S_scale).all()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_seeded_starts_do_not_depend_on_their_batch(draw):
    """The stack built for S seeds holds, start by start, the bits of each
    seed built alone and of ``init_params``, whether ``_BATCH_ELEMENTS``
    builds them together or splits them."""
    K, d, p = draw.draw(st.integers(1, 3)), draw.draw(st.integers(1, 2)), draw.draw(st.integers(1, 3))
    n = draw.draw(st.integers(K, 40))
    diagonal = draw.draw(st.booleans())
    strategy = draw.draw(st.sampled_from(em.INIT_STRATEGIES))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1)))
    data = DataSet(X=rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p),
                   Y=rng.normal(size=(n, d)))
    opts = FitOptions(n_starts=draw.draw(st.integers(1, 5)), seed=draw.draw(st.integers(0, 99)),
                      init_strategy=strategy)
    elements = draw.draw(st.sampled_from([em._BATCH_ELEMENTS, 1, 2 * K * n * max(p, d)]))
    with mock.patch.object(em, "_BATCH_ELEMENTS", elements):
        seeded = em._seeded(model._Sample.of(data), K, opts, diagonal)
    seeds = start_seeds(opts.seed, opts.n_starts)
    labels = np.stack([em._partition(data.X, K, strategy, seed) for seed in seeds])
    together = em._partition_stack(model._Sample.of(data), labels, K, diagonal)
    for i, (seed, start) in enumerate(zip(seeds, seeded)):
        alone = em._partition_stack(model._Sample.of(data), labels[[i]], K, diagonal)
        params = init_params(data, K, strategy, seed, diagonal)
        for w, x, y, z in zip(together, alone, _Stack.of(params), start):
            assert w[i].tobytes() == x[0].tobytes() == y.tobytes() == z.tobytes()


SEEDED_KINDS = ("plain", "overflow-column", "constant")
ELEMENTS = (em._BATCH_ELEMENTS, 1)  # all starts in one batch, or one per batch


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 3), p=st.integers(1, 3), d=st.integers(1, 2), n=st.integers(3, 30),
       kind=st.sampled_from(SEEDED_KINDS), data_seed=st.integers(0, 2 ** 32 - 1),
       strategy=st.sampled_from(em.INIT_STRATEGIES), diagonal=st.booleans(),
       n_starts=st.integers(1, 4), seed=st.integers(0, 99), elements=st.sampled_from(ELEMENTS))
@example(K=2, p=2, d=1, n=10, kind="overflow-column", data_seed=1, strategy="kmeans-on-x",
         diagonal=False, n_starts=3, seed=0, elements=ELEMENTS[0])  # as in test_degenerate
@example(K=2, p=2, d=1, n=10, kind="constant", data_seed=1, strategy="kmeans-on-x",
         diagonal=True, n_starts=3, seed=0, elements=ELEMENTS[1])
def test_each_seeded_start_is_init_params_or_its_exception(K, p, d, n, kind, data_seed,
                                                           strategy, diagonal, n_starts,
                                                           seed, elements):
    """Every entry of ``_seeded`` is, for its seed, the stack of
    ``init_params`` to the bit, or an exception of the type and text that
    ``init_params`` raises under the fits' floating-point error state,
    whether the starts share a batch or not.  ``overflow-column`` scales
    the first column to 1e150 and puts 1e154 in the row that k-means++
    draws first for the last seed, so that its partition overflows;
    k-means on a ``constant`` X cannot draw K > 1 non-empty groups."""
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, p))
    if kind == "overflow-column":
        X[:, 0] *= 1e150
        X[np.random.default_rng(start_seeds(seed, n_starts)[-1]).integers(n), 0] = 1e154
    elif kind == "constant":
        X[:] = 1.5
    data = DataSet(X=X, Y=rng.normal(size=(n, d)))
    opts = FitOptions(n_starts=n_starts, seed=seed, init_strategy=strategy)
    with mock.patch.object(em, "_BATCH_ELEMENTS", elements):
        seeded = em._seeded(model._Sample.of(data), K, opts, diagonal)
    assert len(seeded) == n_starts
    for start, seed in zip(seeded, start_seeds(seed, n_starts)):
        try:
            with np.errstate(over="raise", invalid="raise"):  # as in the fits
                expected = _Stack.of(init_params(data, K, strategy, seed, diagonal))
        except Exception as exc:
            assert (type(start), str(start)) == (type(exc), str(exc))
        else:
            assert isinstance(start, _Stack)
            for x, y in zip(start, expected, strict=True):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _workspace_case(case):
    """A sample, a three-start stack, its responsibilities and masses, and
    whether the gating is diagonal, for a workspace test at p=8."""
    rng = np.random.default_rng(19)
    K, d, diagonal = {"full": (2, 1, False), "diagonal": (2, 1, True),
                      "d2-K3": (3, 2, False), "lasso": (2, 1, True)}[case]
    truth = random_params(rng, K=K, p=8, d=d, diagonal=True, spread=3.0)
    data, _ = sample_from_params(rng, truth, n=90)
    s = _Stack(*map(np.stack, zip(*(
        _Stack.of(init_params(data, K, seed=seed, diagonal_gating=diagonal))
        for seed in range(3)
    ))))
    sample = model._Sample.of(data)
    _, T = model._e_step(sample, s)
    return sample, s, T, T.sum(axis=-1), diagonal


def _assert_same_bits(a, b):
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y)


E_STEP = em._e_step


def _first_pass(sample, s):
    """What the E-step at ``s`` writes first: into ``work[0]`` the deviations
    of the predictors from the gating means, squared for diagonal gating,
    and into ``r2`` the residual squares ``((y - B'x) - a) ** 2`` of the
    experts, by the same passes (None for d > 1)."""
    diff = sample.XT - s.mu[..., None]
    gate = diff * diff if s.R.ndim == s.mu.ndim else diff
    if s.B.shape[-1] != 1:
        return gate, None
    resid = (sample.YT[0] - s.B[..., 0] @ sample.XT) - s.a
    return gate, resid * resid


def _assert_hand_off(sample, s, work, r2):
    """``work[0]`` and, for d = 1, ``r2`` hold, bit for bit, the first pass
    of the E-step at ``s``, and the E-step that takes them from there
    (``filled``) gives the bits of a fresh E-step at ``s``, returned and
    left in the buffers it reads or writes, as one into NaN-filled buffers
    of its own: every buffer for full gating, ``work[0]`` and ``r2`` for
    diagonal gating, whose E-step leaves ``work[1]`` as it found it;
    returns the E-step's result."""
    gate, resid = _first_pass(sample, s)
    assert np.array_equal(work[0], gate)
    assert resid is None or np.array_equal(r2, resid)
    fresh, fresh_r2 = np.full_like(work, np.nan), np.full_like(r2, np.nan)
    expected = E_STEP(sample, s, fresh, fresh_r2)
    out = E_STEP(sample, s, work, r2, True)
    _assert_same_bits(out, expected)
    used = len(work) if s.R.ndim > s.mu.ndim else 1
    assert np.array_equal(work[:used], fresh[:used])
    assert np.isnan(fresh[used:]).all()
    assert resid is None or np.array_equal(r2, fresh_r2)
    return out


@pytest.fixture
def workspaces(monkeypatch):
    """The array behind every workspace ``_run_em`` hands to the E-step."""
    seen = {}

    def e_step(sample, s, work=None, *args, **kwargs):
        if work is not None:
            seen[id(work.base)] = work.base
        return E_STEP(sample, s, work, *args, **kwargs)

    monkeypatch.setattr(em, "_e_step", e_step)
    return seen


class TestWorkspace:
    """The EM loop's per-batch workspace: each kernel gives the same bits
    with it as without, nothing kept is a view of it, ``fit_em`` gets two
    buffers for either gating layout and ``fit_em_lasso`` one, and an
    iteration allocates less than one (S, K, p, n) array."""

    @pytest.mark.parametrize("case", ["full", "diagonal", "d2-K3"])
    def test_em_kernels_give_the_same_bits(self, case):
        sample, s, T, nk, diagonal = _workspace_case(case)
        # shaped as the loop shapes it, NaN where a kernel would read a
        # buffer before writing it
        work = np.full((2, *s.mu.shape, sample.XT.shape[1]), np.nan)
        r2 = np.full((*s.alpha.shape, sample.XT.shape[1]), np.nan)
        _assert_same_bits(model._gate_terms(sample.XT, s, work),
                          model._gate_terms(sample.XT, s))
        _assert_same_bits(model._e_step(sample, s, work, r2), model._e_step(sample, s))
        # the leading view of a compacted batch
        _assert_same_bits(model._e_step(sample, s.take(slice(0, 2)), work[:, :2], r2[:2]),
                          (x[:2] for x in model._e_step(sample, s)))
        moments = em._gating_moments(sample, T, nk, diagonal, work)
        _assert_same_bits(moments, em._gating_moments(sample, T, nk, diagonal))
        mu, C = moments[1], moments[3]  # what the experts' Gram matrices come from
        _assert_same_bits(em._expert_regressions(sample, T, nk, s.B, mu, C, r2),
                          em._expert_regressions(sample, T, nk, s.B, mu, C))
        # fit_em's M-step into NaN-filled buffers, whole and through the
        # leading views of a compacted batch: the bits of its kernels
        # without them, and the E-step's first pass at its result left in
        # work[0] and r2
        for m in (3, 2):
            view, r2_view = np.full_like(work, np.nan)[:, :m], np.full_like(r2, np.nan)[:m]
            args = (sample, T[:m], nk[:m])
            new = em._ml_m_step(*args, s.take(slice(0, m)), view, r2_view)
            *gating, C, _ = em._gating_moments(*args, diagonal)
            _assert_same_bits(new, (*gating, *em._expert_regressions(*args, s.B[:m],
                                                                      gating[1], C)))
            _assert_hand_off(sample, new, view, r2_view)

    def test_lasso_kernels_give_the_same_bits(self):
        sample, s, T, nk, _ = _workspace_case("lasso")
        # one buffer, as the loop shapes it for the penalized fit
        work = np.full((1, *s.mu.shape, sample.XT.shape[1]), np.nan)
        r2 = np.full((*s.alpha.shape, sample.XT.shape[1]), np.nan)
        args = (sample, T, s.a[..., 0], s.Sigma[..., 0, 0], s.B[..., 0], PENALTY.lam)
        assert np.array_equal(em_lasso._expert_coeffs(*args, work[0]),
                              em_lasso._expert_coeffs(*args))
        assert np.array_equal(em_lasso._gating_variances(sample.XT, T, nk, s.mu, work[0]),
                              em_lasso._gating_variances(sample.XT, T, nk, s.mu))
        _assert_same_bits(em_lasso._intercepts_variances(sample, T, nk, s.B[..., 0], r2),
                          em_lasso._intercepts_variances(sample, T, nk, s.B[..., 0]))
        # the M-step through the buffers: the bits of its kernels without them
        mu = em_lasso._gating_means(sample.X, T, nk, s.R, PENALTY.gamma)
        beta = em_lasso._expert_coeffs(*args)
        b0, sigma2 = em_lasso._intercepts_variances(sample, T, nk, beta)
        _assert_same_bits(em_lasso._lasso_m_step(sample, T, nk, s, PENALTY, work[0], r2),
                          (nk / nk.sum(axis=-1, keepdims=True), mu,
                           em_lasso._gating_variances(sample.XT, T, nk, mu),
                           b0[..., None], beta[..., None], sigma2[..., None, None]))
        _assert_same_bits(model._e_step(sample, s, work, r2), model._e_step(sample, s))
        # the hand-off: the M-step leaves the squared deviations from its
        # gating means and the experts' residual squares in the buffers,
        # and the E-step at its result reads them there; also through the
        # leading views of a compacted batch
        for m in (3, 2):
            view, r2_view = np.full_like(work, np.nan)[:, :m], np.full_like(r2, np.nan)[:m]
            new = em_lasso._lasso_m_step(sample, T[:m], nk[:m], s.take(slice(0, m)), PENALTY,
                                         view[0], r2_view)
            _assert_hand_off(sample, new, view, r2_view)

    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_every_plain_m_step_hands_over_the_e_steps_first_pass(self, monkeypatch,
                                                                  fitter):
        # every E-step given the hand-off finds in work[0] and r2, bit for
        # bit, the first pass of a fresh E-step at its stack, and gives that
        # E-step's bits; the E-step after each plain M-step takes it, a
        # cycle's do not
        handed = []

        def e_step(sample, s, work=None, r2=None, filled=False):
            if not filled:
                return E_STEP(sample, s, work, r2)
            handed.append(len(s.alpha))
            return _assert_hand_off(sample, s, work, r2)

        monkeypatch.setattr(em, "_e_step", e_step)
        fit = FITTERS[fitter](_instance(23, n=80, p=8), 2, FitOptions(n_starts=4, seed=6))
        assert sum(handed) >= fit.n_iter > 1

    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_nothing_kept_is_a_view_of_the_workspace(self, batches, workspaces, fitter):
        fit = FITTERS[fitter](_instance(22, n=80, p=8), 2, FitOptions(n_starts=4, seed=5))
        ((_, runs),) = batches
        kept = [a for run in runs for a in (*run.s, run.T)]
        kept += [fit.loglik_trace, fit.responsibilities.tau]
        kept += [a for g in fit.params.gating for a in (g.mu, g.R)]
        kept += [a for e in fit.params.experts for a in (e.intercept, e.coeffs, e.cov)]
        (buffer,) = workspaces.values()
        # the deviations, and for fit_em the whitened or root-weighted ones
        buffers = 1 if fitter == "em-lasso" else 2
        assert buffer.shape == (buffers, 4, 2, 8, 80)
        assert not any(np.shares_memory(a, buffer) for a in kept)

    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_an_iteration_allocates_less_than_one_deviation_array(self, monkeypatch,
                                                                 fitter):
        # tracemalloc counts numpy's data allocations; the peak of each
        # iteration after the first, from its start to the next one's,
        # must stay below one (m, K, p, n) array of the m live starts.
        # The (m, K, n) temporaries take about 7/p of that, and numpy's
        # buffered iterator up to 64 KB per broadcast operand of a ufunc,
        # so p and n are large enough for the bound to single out a
        # (m, K, p, n) allocation.
        data = _instance(24, n=1000, p=12)
        rises, marks = [], []
        masses = em._component_masses

        def iteration_start(T):  # the loop calls it first in each M-step
            peak = tracemalloc.get_traced_memory()[1]
            if marks:
                rises.append((peak - marks[-1][0], marks[-1][1]))
            tracemalloc.reset_peak()
            marks.append((tracemalloc.get_traced_memory()[0], T.nbytes * data.p))
            return masses(T)

        monkeypatch.setattr(em, "_component_masses", iteration_start)
        tracemalloc.start()
        try:
            FITTERS[fitter](data, 2, FitOptions(n_starts=4, seed=3))
        finally:
            tracemalloc.stop()
        assert len(rises) >= 5
        for rise, limit in rises:
            assert rise < limit


def _gram(moments, nk):
    """The Gram matrices ``C + nk mu mu'`` that ``em._expert_regressions``
    forms from the means and centred cross-moments of the gating pass
    ``moments``."""
    _, mu, _, C, _ = moments
    return C + nk[..., None, None] * (mu[..., :, None] * mu[..., None, :])


def _assert_the_experts_solve_against_them(sample, T, nk, B_prev, moments):
    """``em._expert_regressions``' coefficients are the solve against
    ``_gram(moments, nk)`` plus the ridge, to the bit."""
    a, B, _ = em._expert_regressions(sample, T, nk, B_prev, moments[1], moments[3])
    rhs = np.swapaxes((T[..., None, :] * (sample.YT - a[..., None])) @ sample.X, -1, -2)
    ridged = _gram(moments, nk) + em.GRAM_RIDGE * np.eye(sample.X.shape[1])
    assert np.array_equal(B, np.linalg.solve(ridged, rhs))


class TestWeightedGram:
    """The experts' weighted Gram matrices ``G = X' W X`` are formed from
    the gating pass, as ``C + nk mu mu'`` from the centred cross-moments
    ``C`` of the gating covariances: for either layout, with or without the
    workspace, the same bits, and each entry within
    ``1e-12 sqrt(G_ii G_jj)`` of the sum over observations taken in
    extended precision, from 1e-150 to 1e150 and for means 1e6 spreads
    away from 0; the experts' coefficients solve against these G."""

    @pytest.mark.parametrize("scale, offset", [
        (1e-150, 0.0), (1e-150, 1e6), (1e-3, 0.0), (1.0, 0.0), (1.0, 1e6),
        (1e3, 1e6), (1e144, 1e6), (1e150, 0.0),
    ])
    def test_matches_an_extended_precision_sum(self, scale, offset):
        rng = np.random.default_rng(41)
        S, K, n, p = 2, 3, 120, 5
        X = scale * (offset + rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p))
        sample = model._Sample.of(DataSet(X=X, Y=rng.normal(size=n)))
        T = np.ascontiguousarray(
            np.stack([rng.dirichlet(np.ones(K), size=n).T for _ in range(S)]))
        nk = T.sum(axis=-1)
        ld = np.longdouble
        expected = np.einsum("ski,ia,ib->skab", T.astype(ld), X.astype(ld), X.astype(ld))
        scale_ij = np.sqrt(np.einsum("ska,skb->skab", *[np.diagonal(expected, 0, -2, -1)] * 2))
        grams = []
        for diagonal in (False, True):
            work = np.full((2, S, K, p, n), np.nan)
            moments = em._gating_moments(sample, T, nk, diagonal, work)
            G = _gram(moments, nk)
            assert np.array_equal(G, _gram(em._gating_moments(sample, T, nk, diagonal), nk))
            assert (np.abs(G - expected) <= 1e-12 * scale_ij).all()
            _assert_the_experts_solve_against_them(sample, T, nk, np.zeros((S, K, p, 1)),
                                                   moments)
            grams.append(G)
        assert np.array_equal(*grams)

    @pytest.mark.parametrize("case", ["full", "d2-K3"])
    def test_the_experts_solve_against_them(self, case):
        sample, s, T, nk, diagonal = _workspace_case(case)
        _assert_the_experts_solve_against_them(
            sample, T, nk, s.B, em._gating_moments(sample, T, nk, diagonal))

    def test_diagonal_variances_are_those_of_the_full_covariances(self):
        sample, s, T, nk, _ = _workspace_case("full")
        R_full = em._gating_moments(sample, T, nk, False)[2]
        R_diagonal = em._gating_moments(sample, T, nk, True)[2]
        assert np.array_equal(R_diagonal, np.diagonal(R_full, 0, -2, -1))


@pytest.mark.parametrize("p", [1, 2, 8, 40])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_full_gating_covariances_are_exactly_symmetric(p, scale):
    # the syrk of the root-weighted deviations is symmetric to the bit, so
    # the covariances need no symmetrizing, with the workspace or without
    rng = np.random.default_rng(p)
    S, K, n = 3, 2, 300
    X = scale * (rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p) + rng.normal(size=p))
    sample = model._Sample.of(DataSet(X=X, Y=rng.normal(size=n)))
    T = np.ascontiguousarray(
        np.stack([rng.dirichlet(np.ones(K), size=n).T for _ in range(S)]))
    nk = T.sum(axis=-1)
    covariances = [em._gating_moments(sample, T, nk, False, work)[2]
                   for work in (None, np.full((2, S, K, p, n), np.nan))]
    for R in covariances:
        assert np.array_equal(R, np.swapaxes(R, -1, -2))
    assert np.array_equal(*covariances)


class TestSquaremMap:
    """SQUAREM's coordinate map: :func:`em._from_theta` cuts ``theta`` into
    views, the bits of splitting it, and :func:`em._where` hands back one
    side unchanged when every start takes it."""

    @pytest.mark.parametrize("case", ["full", "diagonal", "d2-K3"])
    def test_from_theta_gives_the_bits_of_a_split(self, case):
        _, s, _, _, _ = _workspace_case(case)
        theta = em._theta(s)
        cuts = np.cumsum([f[0].size for f in s])[:-1]
        la, mu, R, a, B, Sigma = (x.reshape(f.shape)
                                  for x, f in zip(np.split(theta, cuts, axis=1), s))
        w = np.exp(la - la.max(axis=-1, keepdims=True))
        R = em._exp_factor(R) if R.ndim > mu.ndim else np.exp(R)
        expected = (w / w.sum(axis=-1, keepdims=True), mu, R, a, B, em._exp_factor(Sigma))
        x = em._from_theta(theta, s)
        _assert_same_bits(x, expected)
        assert all(np.shares_memory(f, theta) for f in (x.mu, x.a, x.B))

    def test_where_keeps_one_side_whole(self):
        _, s, _, _, _ = _workspace_case("full")
        other = em._from_theta(em._theta(s), s)
        assert em._where(np.ones(3, bool), s, other) is s
        assert em._where(np.zeros(3, bool), s, other) is other
        keep = np.array([True, False, True])
        mixed = em._where(keep, s, other)
        for x, y, z in zip(mixed, s, other):
            assert np.array_equal(x[keep], y[keep]) and np.array_equal(x[~keep], z[~keep])


class TestRowMajorCopies:
    """Checked containers keep row-major copies whatever the caller's memory
    order, so the M-steps give the same bits for a Fortran-ordered ``tau``."""

    def test_m_steps_ignore_the_memory_order_of_tau(self):
        data = _instance(14, n=80)
        tau = random_tau(np.random.default_rng(14), 80, 2)
        c_tau = Responsibilities(tau=tau)
        f_tau = Responsibilities(tau=np.asfortranarray(tau))
        prev = init_params(data, 2, seed=1).experts
        for diagonal in (False, True):
            for a, b in zip(m_step_gating(data, c_tau, diagonal),
                            m_step_gating(data, f_tau, diagonal)):
                assert a.alpha == b.alpha
                assert np.array_equal(a.mu, b.mu) and np.array_equal(a.R, b.R)
        pairs = zip(m_step_experts(data, c_tau, prev), m_step_experts(data, f_tau, prev))
        for a, b in pairs:
            assert np.array_equal(a.intercept, b.intercept)
            assert np.array_equal(a.coeffs, b.coeffs) and np.array_equal(a.cov, b.cov)

    def test_arrays_are_c_contiguous(self):
        rng = np.random.default_rng(15)
        A = np.asfortranarray(rng.normal(size=(3, 3)))
        data = DataSet(X=np.asfortranarray(rng.normal(size=(5, 3))),
                       Y=np.asfortranarray(rng.normal(size=(5, 2))))
        R = np.asfortranarray(A @ A.T + np.eye(3))
        g = GatingComponent(alpha=1.0, mu=np.zeros(3), R=R)
        e = ExpertComponent(intercept=np.zeros(2), coeffs=np.asfortranarray(A[:, :2]),
                            cov=np.asfortranarray(np.eye(2)))
        tau = Responsibilities(tau=np.asfortranarray(random_tau(rng, 5, 3)))
        for arr in (data.X, data.Y, g.mu, g.R, e.intercept, e.coeffs, e.cov, tau.tau):
            assert arr.flags.c_contiguous

"""The EM core shared by ``fit_em`` and ``fit_em_lasso``: one log-joint
evaluation per iteration, one factorization per covariance, checked
parameters only where a run starts and ends, the same steps as the
public layer functions, objectives, log-likelihoods and responsibilities
that are exactly those of the returned parameters, read-only parameter
arrays, and how ``_multistart`` reports failed starts."""

import numpy as np
import pytest

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
    ExpertComponent,
    FitFailedError,
    GatingComponent,
    MoggeParams,
    joint_loglik,
    penalized_loglik,
    posterior_responsibilities,
)

from conftest import random_params, sample_from_params

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
    @pytest.fixture
    def counter(self, monkeypatch):
        return _count_calls(monkeypatch, "_log_joint_matrix")

    def test_fit_em(self, counter):
        fit = fit_em(_instance(1), K=2, opts=FitOptions(n_starts=1, seed=3))
        assert fit.n_iter > 1
        assert counter[0] == fit.n_iter + 1

    def test_fit_em_lasso(self, counter):
        fit = fit_em_lasso(
            _instance(2), K=2, penalty=PENALTY, opts=FitOptions(n_starts=1, seed=3)
        )
        assert fit.n_iter > 1
        assert counter[0] == fit.n_iter + 1


def _count_factored(monkeypatch):
    """Replace ``mogge.model.cholesky`` by a wrapper counting the matrices
    it factors: a stack of m matrices counts m."""
    count = [0]
    original = model.cholesky

    def counted(a):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return original(a)

    monkeypatch.setattr(model, "cholesky", counted)
    return count


class TestOneFactorizationPerCovariance:
    """Each E-step factors each full covariance once: 2K matrices with
    full gating, K with diagonal gating or EM-Lasso (the expert
    covariances).  A single cold start runs n_iter + 1 E-steps, and the
    checked components built by ``init_params`` and those returned at the
    end factor each full covariance once more, so the count is
    ``full_per_component * K * (n_iter + 3)``."""

    @pytest.mark.parametrize("diagonal, full_per_component", [(False, 2), (True, 1)])
    def test_fit_em(self, monkeypatch, diagonal, full_per_component):
        data = _instance(1)
        calls = _count_factored(monkeypatch)
        fit = fit_em(
            data, K=2, opts=FitOptions(n_starts=1, seed=3), diagonal_gating=diagonal
        )
        assert fit.n_iter > 1
        assert calls[0] == full_per_component * 2 * (fit.n_iter + 3)

    def test_fit_em_lasso(self, monkeypatch):
        data = _instance(2)
        calls = _count_factored(monkeypatch)
        fit = fit_em_lasso(
            data, K=2, penalty=PENALTY, opts=FitOptions(n_starts=1, seed=3)
        )
        assert fit.n_iter > 1
        assert calls[0] == 2 * (fit.n_iter + 3)


class TestRunEdges:
    """A run checks its parameters where it starts and where it ends, not
    per iteration: a cold start builds ``MoggeParams`` twice (the initial
    parameters and the result), a warm start once (the result), and the
    component masses are checked once per iteration."""

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
        assert built[0] == 2
        assert checked[0] == fit.n_iter

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
    initial parameters."""

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
        params = self._start(data, opts, diagonal)
        for _ in range(max_iter):
            tau = posterior_responsibilities(data, params)
            params = MoggeParams(
                gating=tuple(m_step_gating(data, tau, diagonal=diagonal)),
                experts=tuple(m_step_experts(data, tau, params.experts)),
            )
        assert fit.n_iter == max_iter
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

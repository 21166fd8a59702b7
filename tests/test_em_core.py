"""The EM core shared by ``fit_em`` and ``fit_em_lasso``: one log-joint
evaluation per iteration, objectives and responsibilities that are exactly
those of the returned parameters, and the multi-start driver's failure
reporting."""

import numpy as np
import pytest

from mogge import model
from mogge.em import FitOptions, fit_em
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
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


class TestOneEStepPerIteration:
    @pytest.fixture
    def counter(self, monkeypatch):
        calls = [0]
        original = model._log_joint_matrix

        def counted(data, params):
            calls[0] += 1
            return original(data, params)

        monkeypatch.setattr(model, "_log_joint_matrix", counted)
        return calls

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


class TestExactness:
    """The returned objective and responsibilities are bit-identical to a
    fresh evaluation at the returned parameters."""

    def _check(self, data, fit, objective):
        assert fit.objective == objective(data, fit.params)
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

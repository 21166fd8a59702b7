"""SQUAREM in ``fit_em``: against plain EM composed from the public layer
functions, from the same seeded starts under the same stopping rule, the
accelerated fit reaches an objective at least as high, in no more
iterations, with traces that never fall; and an extrapolation that
overflows or fails to factor falls back to the plain step without a
diagnosis."""

import numpy as np
import pytest

from mogge import em
from mogge.em import (
    FitOptions,
    fit_em,
    init_params,
    m_step_experts,
    m_step_gating,
    start_seeds,
)
from mogge.model import (
    MoggeParams,
    _Stack,
    joint_loglik,
    posterior_responsibilities,
)
from mogge.simulate import default_scenario, replicate_seed, sample_dataset

RUN_EM = em._run_em
FROM_THETA = em._from_theta


def _plain_em(data, K, opts):
    """Plain EM from each seeded start until the relative objective change
    drops below ``opts.tol`` or ``opts.max_iter`` steps: (objective,
    n_iter) of the best start (the first with the largest objective)."""
    best = None
    for seed in start_seeds(opts.seed, opts.n_starts):
        params = init_params(data, K, strategy=opts.init_strategy, seed=seed)
        value = joint_loglik(data, params)
        for it in range(1, opts.max_iter + 1):
            tau = posterior_responsibilities(data, params)
            params = MoggeParams(gating=tuple(m_step_gating(data, tau)),
                                 experts=tuple(m_step_experts(data, tau, params.experts)))
            value, previous = joint_loglik(data, params), value
            if abs(value - previous) / abs(previous) < opts.tol:
                break
        if best is None or value > best[0]:
            best = (value, it)
    return best


@pytest.mark.parametrize("replicate", range(5))
def test_at_least_plain_em_in_no_more_iterations(replicate):
    data, _ = sample_dataset(default_scenario(n=300, seed=replicate_seed(13, replicate)))
    opts = FitOptions(n_starts=4, seed=replicate_seed(31, replicate))
    fit = fit_em(data, K=2, opts=opts)
    objective, n_iter = _plain_em(data, 2, opts)
    assert fit.converged
    assert fit.objective >= objective - opts.tol * abs(objective)
    assert fit.n_iter <= n_iter
    assert np.diff(fit.loglik_trace).min() >= -1e-8


def _negated_covariances(theta, like):
    x = FROM_THETA(theta, like)
    return x._replace(Sigma=-x.Sigma)


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("failure", ["overflow", "indefinite"])
def test_a_failed_extrapolation_falls_back_to_the_plain_step(monkeypatch, diagonal,
                                                             failure):
    # every extrapolation fails, so each cycle takes the plain step x2:
    # the fit is plain EM's to the last bit, and no start is diagnosed
    data, _ = sample_dataset(default_scenario(n=120, seed=5))
    opts = FitOptions(n_starts=3, seed=8)
    outcomes = []

    def recorded(*args):
        outcomes.extend(RUN_EM(*args))
        return outcomes[-len(args[1].alpha):]

    monkeypatch.setattr(em, "_run_em", lambda *args: RUN_EM(*args[:5]))
    plain = fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)
    monkeypatch.setattr(em, "_run_em", recorded)
    if failure == "overflow":
        monkeypatch.setattr(em, "_step_length", lambda r, v: np.full(len(r), -1e300))
    else:
        monkeypatch.setattr(em, "_from_theta", _negated_covariances)
    fit = fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)
    assert len(outcomes) == 3
    assert all(isinstance(run, em._Run) for run in outcomes)
    for x, y in zip(_Stack.of(fit.params), _Stack.of(plain.params)):
        assert np.array_equal(x, y)
    assert np.array_equal(fit.loglik_trace, plain.loglik_trace)
    assert (fit.n_iter, fit.converged) == (plain.n_iter, plain.converged)
    assert fit.n_iter > 2

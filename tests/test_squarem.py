"""SQUAREM in ``fit_em``: against plain EM composed from the public layer
functions, from the same seeded starts under the same stopping rule, the
accelerated fit reaches an objective at least as high, in no more
iterations, with traces that never fall; an extrapolation that
overflows, fails to factor or underflows a variance to 0 falls back to
the plain step without a diagnosis; and a batch rejects a start's
failed extrapolation without redoing any other start's work, M-step or
E-step."""

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
    DataSet,
    MoggeParams,
    _Stack,
    joint_loglik,
    posterior_responsibilities,
)
from mogge.simulate import default_scenario, replicate_seed, sample_dataset

RUN_EM = em._run_em
FROM_THETA = em._from_theta
ML_M_STEP = em._ml_m_step


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

    def plain_m_step(*args):  # fit_em's M-step without the squarem attribute
        return ML_M_STEP(*args)

    plain_m_step.buffers = ML_M_STEP.buffers
    monkeypatch.setattr(em, "_ml_m_step", plain_m_step)
    plain = fit_em(data, K=2, opts=opts, diagonal_gating=diagonal)
    monkeypatch.setattr(em, "_ml_m_step", ML_M_STEP)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_extrapolated_diagonal_variance_of_zero_is_rejected():
    # on repeated rows an extrapolated log-variance can be so negative that
    # the variance underflows to 0; the E-step must never divide by it
    rng = np.random.default_rng(158)
    X = rng.normal(size=(20, 1))
    X[10:] = X[0]
    fit = fit_em(DataSet(X=X, Y=X[:, 0]), 2, FitOptions(n_starts=10, seed=1),
                 diagonal_gating=True)
    assert np.isfinite(fit.objective)
    assert all(np.isfinite(x).all() for x in _Stack.of(fit.params))


def test_a_batch_does_no_more_m_step_work_than_its_starts_alone(monkeypatch):
    # K=4 on two-component data: extrapolations fail to factor in some
    # cycles; rejecting them start by start leaves every other start's
    # cycle alone, so the M-steps of a batch are those of its starts run
    # one at a time, and so are the runs, to the last bit
    data, _ = sample_dataset(default_scenario(n=60, seed=11))
    opts = FitOptions(n_starts=10, seed=11)
    moments, counts, runs = em._gating_moments, [], []

    def counted(sample, T, *args, **kwargs):  # the seeded starts' jitter too
        counts[-1] += len(T)  # the starts of the (S, K, n) responsibilities
        return moments(sample, T, *args, **kwargs)

    def recorded(*args):
        runs[-1].extend(RUN_EM(*args))
        return runs[-1][-len(args[1].alpha):]

    monkeypatch.setattr(em, "_gating_moments", counted)
    monkeypatch.setattr(em, "_run_em", recorded)
    for elements in (em._BATCH_ELEMENTS, 1):
        monkeypatch.setattr(em, "_BATCH_ELEMENTS", elements)
        counts.append(0)
        runs.append([])
        fit_em(data, K=4, opts=opts)
    assert counts[0] == counts[1]
    together, apart = runs
    assert len(together) == len(apart) == 10
    for a, b in zip(together, apart):
        assert all(np.array_equal(x, y) for x, y in zip(a.s, b.s))
        assert np.array_equal(a.T, b.T)
        assert (a.trace, a.n_iter, a.converged, a.objective, a.loglik) == (
            b.trace, b.n_iter, b.converged, b.objective, b.loglik)


@pytest.mark.parametrize("K", [4, 5])
def test_a_raising_batch_e_step_leaves_one_e_step_per_start(monkeypatch, K):
    # K=4, 5 on two-component data: the batch E-step at the extrapolated
    # points raises in some cycles.  Each extrapolating start then runs
    # that E-step alone, and is kept when it passes; one more E-step runs
    # the plain points of the other starts.  So the starts given to the
    # E-step are those of the starts run one at a time, plus the starts of
    # each batch E-step that raised; the runs are the same to the last bit
    data, _ = sample_dataset(default_scenario(n=60, seed=3))
    opts = FitOptions(n_starts=10, seed=3)
    e_step, starts, raised, runs = em._e_step, [], [], []

    def counted(sample, s, *args):
        starts[-1] += len(s.alpha)
        try:
            return e_step(sample, s, *args)
        except em._START_FAILURES:
            if len(s.alpha) > 1:
                raised[-1] += len(s.alpha)
            raise

    def recorded(*args):
        runs[-1].extend(RUN_EM(*args))
        return runs[-1][-len(args[1].alpha):]

    monkeypatch.setattr(em, "_e_step", counted)
    monkeypatch.setattr(em, "_run_em", recorded)
    for elements in (em._BATCH_ELEMENTS, 1):
        monkeypatch.setattr(em, "_BATCH_ELEMENTS", elements)
        starts.append(0)
        raised.append(0)
        runs.append([])
        fit_em(data, K=K, opts=opts)
    assert raised[0] > 0 and raised[1] == 0
    assert starts[0] == starts[1] + raised[0]
    together, apart = runs
    assert len(together) == len(apart) == 10
    for a, b in zip(together, apart):
        assert all(np.array_equal(x, y) for x, y in zip(a.s, b.s))
        assert np.array_equal(a.T, b.T)
        assert (a.trace, a.n_iter, a.converged, a.objective, a.loglik) == (
            b.trace, b.n_iter, b.converged, b.objective, b.loglik)

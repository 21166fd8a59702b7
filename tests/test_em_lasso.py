import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mogge import em_lasso, selection
from mogge.em import FitOptions, fit_em, init_params, m_step_gating
from mogge.em_lasso import (
    PenaltyConfig,
    ca_update_expert_coeffs,
    ca_update_gating_means,
    fit_em_lasso,
    soft_threshold,
    update_expert_intercept_variance,
    update_gating_variances,
)
from mogge.model import (
    DataSet,
    DegenerateComponentError,
    ExpertComponent,
    FitFailedError,
    GatingComponent,
    MoggeParams,
    Responsibilities,
    UnsupportedConfigError,
    penalized_loglik,
    posterior_responsibilities,
)
from mogge.selection import GridSpec, grid_search
from mogge.simulate import Scenario, default_scenario, sample_dataset

from _oracles import (
    ca_sweeps_residual_form,
    coordinate_ascent,
    exact_weighted_lasso_on_active_set,
    kkt_residuals_expert,
    kkt_residuals_gate,
    lasso_certified,
    penalized_gate_mean_grid,
    ridged_gram,
    weighted_lasso_reference,
)
from conftest import (
    params_inf_distance,
    random_params,
    random_tau,
    sample_from_params,
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
class TestPenaltyValidation:
    """A penalty weight that is not finite and nonnegative is rejected where
    it enters: ``v < 0`` alone lets NaN through, and a NaN or infinite
    weight then fails every start of a fit or gives a NaN objective."""

    def test_penalty_config(self, bad):
        for lam, gamma in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="nonnegative"):
                PenaltyConfig(lam=lam, gamma=gamma)

    def test_grid_spec(self, bad):
        for lambdas, gammas in (((0.0, bad), (0.0,)), ((0.0,), (bad, 1.0))):
            with pytest.raises(ValueError, match="nonnegative"):
                GridSpec(Ks=(2,), lambdas=lambdas, gammas=gammas)

    def test_penalized_loglik(self, bad):
        rng = np.random.default_rng(31)
        params = random_params(rng, K=2, p=2, diagonal=True)
        data, _ = sample_from_params(rng, params, n=5)
        for lam, gamma in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="nonnegative"):
                penalized_loglik(data, params, lam, gamma)

    def test_soft_threshold(self, bad):
        for u, eta in ((1.0, bad), (np.ones(2), np.array([1.0, bad]))):
            with pytest.raises(ValueError, match="nonnegative"):
                soft_threshold(u, eta)

    def test_layer_updates(self, bad):
        data, _ = sample_dataset(default_scenario(n=40, seed=1))
        prev = init_params(data, 2, seed=1, diagonal_gating=True)
        tau = Responsibilities(tau=np.full((data.n, 2), 0.5))
        with pytest.raises(ValueError, match="nonnegative"):
            ca_update_gating_means(data, tau, prev.gating, gamma=bad)
        with pytest.raises(ValueError, match="nonnegative"):
            ca_update_expert_coeffs(data, tau.tau[:, 0], prev.experts[0], lam=bad)


class TestSoftThreshold:
    def test_shrinks_above_threshold(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zeroes_below_threshold(self):
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert repr(soft_threshold(-0.5, 1.0)) == "0.0"  # no negative zero

    def test_identity_at_zero_threshold(self):
        for u in (-2.5, 0.0, 0.3, 17.0):
            assert soft_threshold(u, 0.0) == u

    def test_array_input(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0)
        assert out == pytest.approx(np.array([2.0, 0.0, 0.0]))

    def test_empty_arrays(self):
        # the threshold check reduced an empty array: "zero-size array to
        # reduction operation minimum which has no identity"
        out = soft_threshold(np.zeros(0), np.zeros(0))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        assert soft_threshold(np.zeros((2, 0)), 1.0).shape == (2, 0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_array_threshold(self):
        out = soft_threshold(np.array([3.0, -3.0, 0.5]), np.array([1.0, 2.0, 1.0]))
        assert np.array_equal(out, np.array([2.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), np.array([1.0, -0.1]))

    @settings(max_examples=300, deadline=None)
    @given(u=st.floats(allow_nan=False, allow_infinity=False),
           eta=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           scalar=st.sampled_from([float, np.float64]))
    def test_scalar_path_is_the_array_path(self, u, eta, scalar):
        out = soft_threshold(scalar(u), scalar(eta))
        assert type(out) is float
        assert np.float64(out).tobytes() == soft_threshold(np.array([u]), eta)[0].tobytes()
        assert math.copysign(1.0, out) == 1.0 or out < 0.0  # never -0.0

    @given(u=st.floats(allow_nan=False),
           eta=st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
           scalar=st.sampled_from([float, np.float64]))
    def test_scalar_path_rejects_negative_threshold(self, u, eta, scalar):
        with pytest.raises(ValueError):
            soft_threshold(scalar(u), scalar(eta))


def _diag_params(rng, p, K=2):
    return random_params(rng, K=K, p=p, d=1, diagonal=True)


class TestCaUpdateGatingMeans:
    def test_zero_penalty_equals_weighted_mean(self):
        rng = np.random.default_rng(0)
        data = DataSet(X=rng.normal(size=(12, 3)), Y=rng.normal(size=12))
        T = random_tau(rng, 12, 2)
        tau = Responsibilities(tau=T)
        prev = _diag_params(rng, 3).gating
        mus = ca_update_gating_means(data, tau, prev, gamma=0.0)
        for k in range(2):
            expected = T[:, k] @ data.X / T[:, k].sum()
            assert mus[k] == pytest.approx(expected, abs=1e-12)

    def test_full_shrinkage_above_max_threshold(self):
        rng = np.random.default_rng(1)
        data = DataSet(X=rng.normal(size=(10, 2)), Y=rng.normal(size=10))
        T = random_tau(rng, 10, 2)
        tau = Responsibilities(tau=T)
        prev = _diag_params(rng, 2).gating
        gamma = 0.0
        for k, g in enumerate(prev):
            colsum = np.abs(data.X.T @ T[:, k])
            gamma = max(gamma, float(np.max(colsum / g.R)))
        mus = ca_update_gating_means(data, tau, prev, gamma=gamma * 1.01)
        for mu in mus:
            assert np.all(mu == 0.0)

    def test_matches_grid_oracle_per_coordinate(self):
        rng = np.random.default_rng(2)
        data = DataSet(X=rng.normal(size=(5, 2)), Y=rng.normal(size=5))
        T = random_tau(rng, 5, 2)
        tau = Responsibilities(tau=T)
        prev = _diag_params(rng, 2).gating
        gamma = 0.8
        mus = ca_update_gating_means(data, tau, prev, gamma=gamma)
        for k, g in enumerate(prev):
            for j in range(2):
                grid_opt = penalized_gate_mean_grid(
                    data.X[:, j], T[:, k], float(g.R[j]), gamma
                )
                assert mus[k][j] == pytest.approx(grid_opt, abs=1e-4)

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(3)
        data = DataSet(X=rng.normal(size=(20, 4)), Y=rng.normal(size=20))
        T = random_tau(rng, 20, 2)
        tau = Responsibilities(tau=T)
        prev = _diag_params(rng, 4).gating
        mus = ca_update_gating_means(data, tau, prev, gamma=1.5)
        for k, g in enumerate(prev):
            res = kkt_residuals_gate(data.X, T[:, k], mus[k], g.R, 1.5)
            assert np.max(res) < 1e-6

    def test_rejects_full_covariance(self):
        rng = np.random.default_rng(4)
        data = DataSet(X=rng.normal(size=(8, 2)), Y=rng.normal(size=8))
        tau = Responsibilities(tau=random_tau(rng, 8, 2))
        prev = random_params(rng, K=2, p=2, diagonal=False).gating
        with pytest.raises(UnsupportedConfigError):
            ca_update_gating_means(data, tau, prev, gamma=1.0)

    def test_degenerate_component(self):
        rng = np.random.default_rng(5)
        data = DataSet(X=rng.normal(size=(6, 2)), Y=rng.normal(size=6))
        T = np.ones((6, 2))
        T[:, 1] = 1e-12
        T[:, 0] = 1.0 - 1e-12
        prev = _diag_params(rng, 2).gating
        with pytest.raises(DegenerateComponentError):
            ca_update_gating_means(data, Responsibilities(tau=T), prev, gamma=1.0)


class TestUpdateGatingVariances:
    def test_unweighted_single_component(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        data = DataSet(X=X, Y=rng.normal(size=30))
        tau = Responsibilities(tau=np.ones((30, 1)))
        nus = update_gating_variances(data, tau, [X.mean(axis=0)])
        assert nus[0] == pytest.approx(X.var(axis=0), rel=1e-12)

    def test_constant_column_hits_floor(self):
        X = np.column_stack([np.full(10, 2.5), np.arange(10.0)])
        data = DataSet(X=X, Y=np.zeros(10))
        tau = Responsibilities(tau=np.ones((10, 1)))
        nus = update_gating_variances(data, tau, [np.array([2.5, 4.5])])
        assert nus[0][0] == 1e-10

    def test_matches_weighted_variance_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(9, 2))
        data = DataSet(X=X, Y=rng.normal(size=9))
        T = random_tau(rng, 9, 2)
        mus = [rng.normal(size=2), rng.normal(size=2)]
        nus = update_gating_variances(data, Responsibilities(tau=T), mus)
        for k in range(2):
            s = T[:, k].sum()
            expected = np.array([
                float(np.sum(T[:, k] * (X[:, j] - mus[k][j]) ** 2)) / s
                for j in range(2)
            ])
            assert nus[k] == pytest.approx(expected, abs=1e-13)


class TestCaUpdateExpertCoeffs:
    def test_unpenalized_single_coordinate_is_wls_slope(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 1))
        y = 1.2 * X[:, 0] + 0.4 + 0.1 * rng.normal(size=15)
        data = DataSet(X=X, Y=y)
        prev = ExpertComponent(intercept=[0.4], coeffs=[[0.0]], cov=[[1.0]])
        w = np.ones(15)
        beta = ca_update_expert_coeffs(data, w, prev, lam=0.0)
        expected = float(X[:, 0] @ (y - 0.4)) / float(X[:, 0] @ X[:, 0])
        assert beta[0] == pytest.approx(expected, rel=1e-12)

    def test_null_model_fixed_point_at_large_lambda(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        data = DataSet(X=X, Y=y)
        w = random_tau(rng, 12, 2)[:, 0]
        b0 = float(np.mean(y))
        prev = ExpertComponent(intercept=[b0], coeffs=np.zeros((3, 1)), cov=[[1.0]])
        lam_max = float(np.max(np.abs(X.T @ (w * (y - b0))))) / prev.variance
        beta = ca_update_expert_coeffs(data, w, prev, lam=lam_max * 1.01)
        assert np.all(beta == 0.0)

    def test_matches_weighted_lasso_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            X = rng.normal(size=(8, 3))
            y = rng.normal(size=8)
            data = DataSet(X=X, Y=y)
            w = rng.uniform(0.05, 1.0, size=8)
            prev = ExpertComponent(
                intercept=[rng.normal()], coeffs=rng.normal(size=(3, 1)),
                cov=[[rng.uniform(0.5, 2.0)]],
            )
            lam = rng.uniform(0.1, 2.0)
            beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
            ref = weighted_lasso_reference(
                X, y, w, float(prev.intercept[0]), prev.variance, lam,
            )
            assert beta == pytest.approx(ref, abs=1e-5)

    def test_kkt_at_ca_convergence(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        data = DataSet(X=X, Y=y)
        w = rng.uniform(0.05, 1.0, size=25)
        prev = ExpertComponent(
            intercept=[0.2], coeffs=rng.normal(size=(4, 1)), cov=[[1.3]]
        )
        beta = ca_update_expert_coeffs(data, w, prev, lam=0.7)
        res = kkt_residuals_expert(
            X, y, w, beta, float(prev.intercept[0]), prev.variance, 0.7
        )
        assert np.max(res) < 1e-6

    def test_zero_penalty_reaches_wls_solution(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        data = DataSet(X=X, Y=y)
        w = rng.uniform(0.1, 1.0, size=20)
        prev = ExpertComponent(
            intercept=[0.5], coeffs=rng.normal(size=(3, 1)), cov=[[1.0]]
        )
        beta = ca_update_expert_coeffs(data, w, prev, lam=0.0)
        G = X.T @ (w[:, None] * X)
        rhs = X.T @ (w * (y - 0.5))
        assert beta == pytest.approx(np.linalg.solve(G, rhs), abs=1e-10)

    def test_single_coordinate_step_shrinks_monotonically_in_lambda(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        data = DataSet(X=X, Y=y)
        w = np.ones(10)
        prev = ExpertComponent(
            intercept=[0.0], coeffs=np.zeros((2, 1)), cov=[[1.0]]
        )
        mags = []
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0):
            beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
            mags.append(np.abs(beta))
        for lo, hi in zip(mags[1:], mags[:-1]):
            assert np.all(lo <= hi + 1e-15)

    def test_rescaling_one_column_rescales_its_coefficient(self):
        # the ridge of each diagonal entry is relative to that entry, so at
        # lambda 0 a column's scale moves only its own coefficient
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 4))
        y = X @ np.array([1.0, -0.5, 2.0, 0.3]) + 0.1 * rng.normal(size=30)
        w = rng.uniform(0.1, 1.0, size=30)
        coeffs = np.array([[1.0], [-1.0], [1.0], [1.0]])
        prev = ExpertComponent(intercept=[0.0], coeffs=coeffs, cov=[[1.0]])
        beta = ca_update_expert_coeffs(DataSet(X=X, Y=y), w, prev, lam=0.0)
        scaled = X.copy()
        scaled[:, 2] *= 1e6
        prev = ExpertComponent(intercept=[0.0], coeffs=coeffs * [[1.0], [1.0], [1e-6], [1.0]],
                               cov=[[1.0]])
        rescaled = ca_update_expert_coeffs(DataSet(X=scaled, Y=y), w, prev, lam=0.0)
        np.testing.assert_allclose(rescaled, beta * [1.0, 1.0, 1e-6, 1.0], rtol=1e-12)

    def test_zero_weighted_column_forced_to_zero(self):
        X = np.zeros((6, 2))
        X[:, 1] = np.arange(6.0)
        data = DataSet(X=X, Y=np.arange(6.0))
        prev = ExpertComponent(intercept=[0.0], coeffs=[[3.0], [0.0]], cov=[[1.0]])
        beta = ca_update_expert_coeffs(data, np.ones(6), prev, lam=0.1)
        assert beta[0] == 0.0

    def test_exact_zeros_stored(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10, 3))
        data = DataSet(X=X, Y=rng.normal(size=10))
        prev = ExpertComponent(
            intercept=[0.0], coeffs=rng.normal(size=(3, 1)), cov=[[1.0]]
        )
        beta = ca_update_expert_coeffs(data, np.ones(10), prev, lam=50.0)
        assert beta.tolist() == [0.0, 0.0, 0.0]


def _lasso_case(name):
    """Data, weights, lagged expert and lambda for the Gram-form checks."""
    rng = np.random.default_rng(40)
    n, p = (200, 40) if name == "n200-p40" else (30, 5)
    X = rng.normal(size=(n, p))
    y = X[:, :3] @ np.array([1.5, -2.0, 0.7]) + rng.normal(size=n)
    w = rng.uniform(0.05, 1.0, size=n)
    if name == "zero-weighted-column":
        w[:10] = 0.0
        X[10:, 2] = 0.0
    prev = ExpertComponent(
        intercept=[0.3], coeffs=rng.normal(size=(p, 1)), cov=[[1.7]]
    )
    lam = {"lam0": 0.0, "n200-p40": 2.0}.get(name, 5.0)
    return DataSet(X=X, Y=y), w, prev, lam


def _gram(data, w, prev):
    """The ridged Gram matrix and ``c`` of the expert update."""
    G, c = ridged_gram(data.X, w[None], data.y1, prev.intercept)
    return G[0], c[0]


def _ascent(data, w, prev, lam, sweeps, tol):
    """The reference coordinate ascent on the unridged Gram form."""
    G = data.X.T @ (w[:, None] * data.X)
    c = data.X.T @ (w * (data.y1 - float(prev.intercept[0])))
    return coordinate_ascent(G, c, float(np.sum(w)), prev.variance, lam * prev.variance,
                             prev.beta, sweeps, tol)


class TestGramFormCoordinateAscent:
    """``_oracles.coordinate_ascent``, the Gram-form ascent the library ran
    before its exact solve and a reference of ``TestActiveSet``, against
    the residual-form sweeps it once replaced."""

    @pytest.mark.parametrize("sweeps", [1, 2, 5])
    @pytest.mark.parametrize(
        "case", ["lam0", "lam-zeroes-some", "zero-weighted-column", "n200-p40"]
    )
    def test_matches_residual_form_sweeps(self, case, sweeps):
        data, w, prev, lam = _lasso_case(case)
        beta = _ascent(data, w, prev, lam, sweeps, np.finfo(float).tiny)
        ref = ca_sweeps_residual_form(
            data.X, data.y1, w, float(prev.intercept[0]), prev.variance, lam,
            prev.beta, sweeps,
        )
        np.testing.assert_allclose(beta, ref, rtol=1e-12, atol=1e-12)
        assert np.array_equal(beta == 0.0, ref == 0.0)
        if case != "lam0":
            assert 0 < np.count_nonzero(beta == 0.0) < data.p

    @pytest.mark.parametrize("case", ["lam0", "lam-zeroes-some", "n200-p40"])
    def test_stopping_rule_free_of_n(self, monkeypatch, case):
        # doubling every row doubles the loss term, so with lambda doubled
        # too it is the same lasso problem at twice the n: the exact solve
        # takes the same rounds to the same answer
        data, w, prev, lam = _lasso_case(case)
        doubled = DataSet(X=np.vstack([data.X, data.X]),
                          Y=np.concatenate([data.y1, data.y1]))
        rounds = _count_rounds(monkeypatch)
        beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
        first = len(rounds)
        beta2 = ca_update_expert_coeffs(
            doubled, np.concatenate([w, w]), prev, lam=2.0 * lam
        )
        assert len(rounds) - first == first
        np.testing.assert_allclose(beta2, beta, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "case", ["lam0", "lam-zeroes-some", "zero-weighted-column", "n200-p40"]
    )
    def test_cases_fail_the_certificate(self, monkeypatch, case):
        # the incoming support and signs of every case above do not
        # certify, so the checks of TestActiveSet on them run the rounds
        data, w, prev, lam = _lasso_case(case)
        experts = _count_active_set(monkeypatch)
        ca_update_expert_coeffs(data, w, prev, lam=lam)
        assert len(experts) == 1


def _count_active_set(monkeypatch):
    """Record the experts that go on to active-set rounds after round one."""
    calls = []
    real = em_lasso._active_set

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(em_lasso, "_active_set", counted)
    return calls


def _count_rounds(monkeypatch):
    """Count the linear solves of the expert update: the batched round one
    and one per further active-set round."""
    calls = []
    real = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestCertifiedStep:
    """When the incoming coefficients carry the support and signs of the
    minimizer, the expert update is the exact minimizer on that support,
    certified by the KKT conditions, with no further round.  The identity
    the step fills the inactive rows with is cached read-only, and gives
    the bits of a fresh ``np.eye`` in every case here."""

    @pytest.fixture(autouse=True)
    def fresh_identity(self, monkeypatch):
        # each certified step runs again with a fresh np.eye in place of
        # the cached identity, and must give the same bits
        real, calls = em_lasso._certified_step, []

        def checked(*args):
            out = real(*args)
            with monkeypatch.context() as m:
                m.setattr(em_lasso, "_identity", np.eye)
                fresh = real(*args)
            for x, y in zip(out, fresh, strict=True):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
            calls.append(1)
            return out

        monkeypatch.setattr(em_lasso, "_certified_step", checked)
        yield
        assert calls

    def test_the_cached_identity_is_read_only(self):
        eye = em_lasso._identity(5)
        with pytest.raises(ValueError):
            eye[0, 1] = 1.0
        x, certified = em_lasso._certified_step(np.diag(np.arange(1.0, 6.0))[None],
                                                np.ones((1, 5)), np.zeros(1),
                                                np.array([[1.0, 0.0, 1.0, 0.0, 0.0]]))
        assert np.array_equal(x, [[1.0, 0.0, 1.0 / 3.0, 0.0, 0.0]]) and not certified[0]
        assert em_lasso._identity(5) is eye
        assert np.array_equal(eye, np.eye(5))

    @pytest.mark.parametrize("p", [8, 40])
    def test_certified_result_is_the_active_set_solution(self, monkeypatch, p):
        rng = np.random.default_rng(50 + p)
        n = 300
        X = rng.normal(size=(n, p))
        y = 0.3 + X[:, :4] @ np.array([1.5, -2.0, 0.7, -0.4]) + rng.normal(size=n)
        w = rng.uniform(0.05, 1.0, size=n)
        lam, b0, sigma2 = 20.0, 0.3, 1.5
        cold = ExpertComponent(intercept=[b0], coeffs=rng.normal(size=(p, 1)),
                               cov=[[sigma2]])
        data = DataSet(X=X, Y=y)
        support = ca_update_expert_coeffs(data, w, cold, lam=lam)
        warm = ExpertComponent(intercept=[b0], coeffs=support[:, None], cov=[[sigma2]])
        experts = _count_active_set(monkeypatch)
        beta = ca_update_expert_coeffs(data, w, warm, lam=lam)
        assert experts == []  # certified: no further round
        ref = exact_weighted_lasso_on_active_set(X, y, w, b0, sigma2, lam, beta)
        np.testing.assert_allclose(beta, ref, rtol=1e-12, atol=1e-12)
        assert np.array_equal(beta == 0.0, ref == 0.0)
        assert 0 < np.count_nonzero(beta == 0.0) < p
        assert not np.signbit(beta[beta == 0.0]).any()  # zeros are +0.0
        assert np.max(kkt_residuals_expert(X, y, w, beta, b0, sigma2, lam)) <= 1e-10

    def test_overflowing_certificate_falls_back(self, monkeypatch):
        # a nearly collinear active pair and a huge response: the exact
        # step on the incoming signs of the unridged problem overflows to
        # +-inf with those very signs; the ridge keeps the solve finite,
        # its signs do not certify, and the rounds repair them
        n = 50
        rng = np.random.default_rng(8)
        x1 = rng.normal(size=n)
        X = np.column_stack([x1, x1 + 1e-8 * rng.normal(size=n), rng.normal(size=n)])
        y = 1e300 * (X[:, 0] - X[:, 1] + rng.normal(size=n))
        w = np.full(n, 0.5)
        signs = np.array([-1.0, 1.0, -1.0])
        G = X.T @ (w[:, None] * X)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = np.linalg.solve(G, X.T @ (w * y) - signs)
        assert not np.isfinite(exact).all()
        assert np.array_equal(np.sign(exact), signs)
        prev = ExpertComponent(intercept=[0.0], coeffs=signs[:, None], cov=[[1.0]])
        data = DataSet(X=X, Y=y)
        experts = _count_active_set(monkeypatch)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            beta = ca_update_expert_coeffs(data, w, prev, lam=1.0)
        assert len(experts) == 1  # the rounds ran
        assert np.isfinite(beta).all()
        assert lasso_certified(*_gram(data, w, prev), 1.0, beta)


class TestActiveSet:
    """The exact solve from incoming coefficients that do not certify:
    the minimizer, certified by exact comparisons off its support."""

    @pytest.mark.parametrize("p", [8, 40])
    @pytest.mark.parametrize("lam", [0.5, 5.0, 40.0])
    def test_matches_the_oracles(self, monkeypatch, p, lam):
        rng = np.random.default_rng(60 + p)
        n = 300
        X = rng.normal(size=(n, p))
        y = 0.3 + X[:, :4] @ np.array([1.5, -2.0, 0.7, -0.4]) + rng.normal(size=n)
        w = rng.uniform(0.05, 1.0, size=n)
        prev = ExpertComponent(intercept=[0.3], coeffs=rng.normal(size=(p, 1)),
                               cov=[[1.5]])
        data = DataSet(X=X, Y=y)
        experts = _count_active_set(monkeypatch)
        beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
        assert len(experts) == 1
        assert lasso_certified(*_gram(data, w, prev), lam * 1.5, beta)
        assert not np.signbit(beta[beta == 0.0]).any()
        ref = exact_weighted_lasso_on_active_set(X, y, w, 0.3, 1.5, lam, beta)
        np.testing.assert_allclose(beta, ref, rtol=1e-12, atol=1e-12)
        ascent = _ascent(data, w, prev, lam, 100000, 1e-15)
        np.testing.assert_allclose(beta, ascent, rtol=1e-9, atol=1e-12)
        assert np.array_equal(beta == 0.0, ascent == 0.0)
        if lam > 1.0:
            assert 0 < np.count_nonzero(beta == 0.0) < p

    @pytest.mark.parametrize(
        "case", ["lam0", "lam-zeroes-some", "zero-weighted-column", "n200-p40"]
    )
    def test_cases_match_the_tight_ascent(self, case):
        data, w, prev, lam = _lasso_case(case)
        beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
        assert lasso_certified(*_gram(data, w, prev), lam * prev.variance, beta)
        ascent = _ascent(data, w, prev, lam, 100000, 1e-15)
        np.testing.assert_allclose(beta, ascent, rtol=1e-9, atol=1e-12)
        assert np.array_equal(beta == 0.0, ascent == 0.0)
        if case == "zero-weighted-column":
            assert beta[2] == 0.0

    @staticmethod
    def _objective(data, w, prev, lam, beta):
        r = data.y1 - float(prev.intercept[0]) - data.X @ beta
        return 0.5 * float(r @ (w * r)) + lam * prev.variance * float(np.abs(beta).sum())

    def test_zero_penalty_on_collinear_columns(self):
        # x3 = x1 + x2 and a duplicated x4: the normal equations are
        # singular, and the ridge picks one of their solutions
        rng = np.random.default_rng(70)
        X = rng.normal(size=(40, 5))
        X[:, 2] = X[:, 0] + X[:, 1]
        X[:, 4] = X[:, 3]
        y = X[:, 0] - 2.0 * X[:, 3] + 0.1 * rng.normal(size=40)
        data, w = DataSet(X=X, Y=y), rng.uniform(0.1, 1.0, size=40)
        prev = ExpertComponent(intercept=[0.0], coeffs=rng.normal(size=(5, 1)),
                               cov=[[1.0]])
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            beta = ca_update_expert_coeffs(data, w, prev, lam=0.0)
        assert lasso_certified(*_gram(data, w, prev), 0.0, beta)
        fitted = np.linalg.lstsq(np.sqrt(w)[:, None] * X, np.sqrt(w) * y, rcond=None)[0]
        best = self._objective(data, w, prev, 0.0, fitted)
        assert self._objective(data, w, prev, 0.0, beta) == pytest.approx(best, rel=1e-10)

    def test_zero_penalty_on_a_duplicated_column_settles(self):
        # at lambda 0 the signs do not enter the problem; rounding decides
        # the sign of the duplicate's share, which must not make the
        # rounds add and drop it until their bound
        for seed in range(40):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(20, 6))
            X[:, 1] = X[:, 0]
            data = DataSet(X=X, Y=X[:, 2] + rng.normal(size=20))
            w = rng.uniform(0.1, 1.0, size=20)
            prev = ExpertComponent(intercept=[0.0], coeffs=rng.normal(size=(6, 1)),
                                   cov=[[1.0]])
            beta = ca_update_expert_coeffs(data, w, prev, lam=0.0)
            assert lasso_certified(*_gram(data, w, prev), 0.0, beta)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_fewer_observations_than_predictors(self, lam):
        # n_k <= p: five weighted rows, eight predictors
        rng = np.random.default_rng(71)
        X = rng.normal(size=(5, 8))
        y = rng.normal(size=5)
        data, w = DataSet(X=X, Y=y), rng.uniform(0.2, 1.0, size=5)
        prev = ExpertComponent(intercept=[0.1], coeffs=rng.normal(size=(8, 1)),
                               cov=[[0.5]])
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
        assert lasso_certified(*_gram(data, w, prev), lam * 0.5, beta)
        ascent = _ascent(data, w, prev, lam, 100000, 1e-15)
        assert self._objective(data, w, prev, lam, beta) <= (
            self._objective(data, w, prev, lam, ascent) + 1e-9)

    def test_zero_weight_columns(self):
        # two columns nonzero only where the weights are 0, with nonzero
        # incoming coefficients: their G_jj is 0 and they come out exactly 0
        rng = np.random.default_rng(72)
        X = rng.normal(size=(30, 4))
        w = rng.uniform(0.1, 1.0, size=30)
        w[:10] = 0.0
        X[10:, 1] = X[10:, 3] = 0.0
        data = DataSet(X=X, Y=X[:, 0] + rng.normal(size=30))
        prev = ExpertComponent(intercept=[0.0], coeffs=[[1.0], [-2.0], [0.5], [3.0]],
                               cov=[[1.0]])
        for lam in (0.0, 0.2):
            beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
            assert beta[1] == 0.0 and beta[3] == 0.0
            assert lasso_certified(*_gram(data, w, prev), lam, beta)

    def test_every_column_zero_weight(self):
        # G is 0 and so is the minimizer, whatever the ridge
        X = np.zeros((6, 2))
        X[:3] = 1.0
        w = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        data = DataSet(X=X, Y=np.arange(6.0))
        prev = ExpertComponent(intercept=[0.0], coeffs=[[1.0], [-1.0]], cov=[[1.0]])
        for lam in (0.0, 1.0):
            beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
            assert beta.tolist() == [0.0, 0.0]

    def test_non_finite_solutions(self):
        # an overflowing solve on the incoming support restarts the rounds
        # from 0; one on a support the rounds reached fails the start
        G, c = np.array([[1e-300, 0.0], [0.0, 1.0]]), np.array([1.0, 0.5])
        beta = em_lasso._active_set(G, c, 2.0, np.ones(2), np.array([np.inf, 0.5]))
        assert beta.tolist() == [0.0, 0.0]
        assert lasso_certified(G, c, 2.0, beta)
        with pytest.raises(FloatingPointError, match="not finite"):
            em_lasso._active_set(G, np.array([1e300, 0.5]), 0.0, np.zeros(2), np.zeros(2))
        # a NaN gradient off the support is never taken for a certificate
        with pytest.raises(FloatingPointError, match="not finite"):
            em_lasso._active_set(np.eye(2), np.array([1.0, np.nan]), 0.5, np.array([1.0, 0.0]),
                                 np.array([0.5, 0.0]))

    def test_an_added_coordinate_that_underflows_is_left_out(self):
        # coordinate 1 violates by the smallest subnormal, and its solution
        # underflows to exactly 0: the violation was rounding, and the
        # solution before adding it is the minimizer to the last bit
        eta = 1e-320
        G, c = np.diag([1.0, 4.0]), np.array([1.0, eta + 5e-324])
        beta = em_lasso._active_set(G, c, eta, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert beta.tolist() == [1.0, 0.0]

    # seeds of _duplicated_column_case whose rounds add a coordinate that
    # comes back 0 or of the other sign, at lambda 0.1 or 5; eight of them
    # have no more observations than predictors
    DUPLICATED = (303, 305, 348, 475, 728, 978, 1146, 1199, 1217, 1423, 1442, 1550,
                  2149, 2208, 2491, 2560, 2563, 2600)

    @staticmethod
    def _duplicated_column_case(seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(3, 12)), int(rng.integers(3, 9))
        X = rng.normal(size=(n, p))
        X[:, 1] = X[:, 0]
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        coeffs = rng.normal(size=p) * (rng.uniform(size=p) < 0.7)
        prev = ExpertComponent(intercept=[0.0], coeffs=coeffs[:, None], cov=[[1.0]])
        return DataSet(X=X, Y=y), w, prev

    @pytest.mark.parametrize("lam", [0.1, 5.0])
    def test_a_duplicated_column_with_few_observations(self, lam):
        # the ridge resolves the duplicate's share only to rounding; the
        # result is the minimizer, certified but for a rounding-sized
        # violation of the coordinate the rounds could not add
        for seed in self.DUPLICATED:
            data, w, prev = self._duplicated_column_case(seed)
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
            assert lasso_certified(*_gram(data, w, prev), lam, beta, rounding=1e-14)
            ascent = _ascent(data, w, prev, lam, 100000, 1e-15)
            best = self._objective(data, w, prev, lam, ascent)
            assert self._objective(data, w, prev, lam, beta) <= best + 1e-12 * abs(best)

    def test_round_bound_fails_the_start(self, monkeypatch):
        # the bound is a constant of the code; a start that reaches it is
        # diagnosed, never returned
        monkeypatch.setattr(em_lasso, "_ROUNDS_PER_COORDINATE", 0)
        data, _ = sample_dataset(default_scenario(n=120, seed=4))
        with pytest.raises(FitFailedError) as err:
            fit_em_lasso(data, K=2, penalty=PenaltyConfig(lam=5.0, gamma=5.0),
                         opts=FitOptions(n_starts=2, seed=1))
        assert len(err.value.diagnoses) == 2
        assert all("FloatingPointError: the expert lasso active set did not settle in 0 rounds"
                   in d for d in err.value.diagnoses)

    def test_grid_search_updates_are_certified(self, monkeypatch):
        # every expert update of a grid search, checked on the Gram matrix
        # the update forms, by exact comparisons off the support
        real, checked = em_lasso._expert_coeffs, []

        def certified(sample, T, b0, sigma2, beta, lam, out=None):
            coeffs = real(sample, T, b0, sigma2, beta, lam, out)
            G, c = ridged_gram(sample.X, T, sample.YT[0], b0)
            for i in np.ndindex(T.shape[:-1]):
                assert lasso_certified(G[i], c[i], lam * sigma2[i], coeffs[i])
                checked.append(i)
            return coeffs

        monkeypatch.setattr(em_lasso, "_expert_coeffs", certified)
        data, _ = sample_dataset(default_scenario(n=300, seed=6))
        values = (0.0, 10.0, 20.0)
        grid_search(data, GridSpec(Ks=(2,), lambdas=values, gammas=values),
                    opts=FitOptions(n_starts=3, seed=6))
        assert len(checked) > 100


class TestUpdateExpertInterceptVariance:
    def test_null_coefficients_give_mean_and_variance(self):
        rng = np.random.default_rng(15)
        y = rng.normal(size=20)
        data = DataSet(X=rng.normal(size=(20, 2)), Y=y)
        b0, s2 = update_expert_intercept_variance(
            data, np.ones(20), np.zeros(2)
        )
        assert b0 == pytest.approx(float(np.mean(y)), rel=1e-12)
        assert s2 == pytest.approx(float(np.var(y)), rel=1e-12)

    def test_noiseless_linear_data_floors_variance(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(15, 2))
        beta = np.array([2.0, -1.0])
        y = 0.7 + X @ beta
        data = DataSet(X=X, Y=y)
        b0, s2 = update_expert_intercept_variance(data, np.ones(15), beta)
        assert b0 == pytest.approx(0.7, abs=1e-12)
        assert s2 == 1e-10

    def test_matches_direct_weighted_formulas(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(9, 2))
        y = rng.normal(size=9)
        data = DataSet(X=X, Y=y)
        w = rng.uniform(0.1, 1.0, size=9)
        beta = rng.normal(size=2)
        b0, s2 = update_expert_intercept_variance(data, w, beta)
        s = float(np.sum(w))
        b0_direct = float(np.sum(w * (y - X @ beta))) / s
        s2_direct = float(np.sum(w * (y - b0_direct - X @ beta) ** 2)) / s
        assert b0 == pytest.approx(b0_direct, rel=1e-13)
        assert s2 == pytest.approx(s2_direct, rel=1e-13)

    def test_expert_updates_name_the_degenerate_component(self):
        rng = np.random.default_rng(5)
        data = DataSet(X=rng.normal(size=(6, 2)), Y=rng.normal(size=6))
        w = np.full(6, 1e-12)
        expert = _diag_params(rng, 2).experts[0]
        with pytest.raises(DegenerateComponentError) as err:
            ca_update_expert_coeffs(data, w, expert, lam=1.0)
        assert err.value.component == 1
        with pytest.raises(DegenerateComponentError) as err:
            update_expert_intercept_variance(data, w, expert.beta)
        assert err.value.component == 1


class TestFitEmLasso:
    def test_rejects_multivariate_response(self):
        rng = np.random.default_rng(18)
        data = DataSet(X=rng.normal(size=(10, 2)), Y=rng.normal(size=(10, 2)))
        with pytest.raises(UnsupportedConfigError):
            fit_em_lasso(data, K=2, penalty=PenaltyConfig(lam=1.0, gamma=1.0))

    def test_rejects_full_gating_warm_start(self):
        rng = np.random.default_rng(19)
        truth = random_params(rng, K=2, p=2, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=40)
        full = random_params(rng, K=2, p=2, diagonal=False)
        with pytest.raises(UnsupportedConfigError):
            fit_em_lasso(
                data, K=2, penalty=PenaltyConfig(lam=0.0, gamma=0.0),
                warm_start=full,
            )

    def test_zero_penalty_matches_plain_em_with_diagonal_gating(self):
        rng = np.random.default_rng(20)
        for trial in range(3):
            # identifiable instances: keep the gating means separated
            while True:
                truth = random_params(rng, K=2, p=3, diagonal=True, spread=2.0)
                if np.linalg.norm(truth.gating[0].mu - truth.gating[1].mu) > 2.5:
                    break
            data, _ = sample_from_params(rng, truth, n=100)
            opts = FitOptions(n_starts=2, seed=trial, tol=1e-14, max_iter=20000)
            a = fit_em(data, K=2, opts=opts, diagonal_gating=True)
            b = fit_em_lasso(
                data, K=2,
                penalty=PenaltyConfig(lam=0.0, gamma=0.0),
                opts=opts,
            )
            assert abs(a.objective - b.objective) / abs(a.objective) < 1e-6
            # the label order is not identifiable: compare under the best
            # component permutation
            dist = min(
                params_inf_distance(a.params, b.params.permuted(order))
                for order in ([0, 1], [1, 0])
            )
            assert dist < 1e-5

    def test_penalized_trace_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            truth = random_params(rng, K=2, p=3, diagonal=True, spread=3.0)
            data, _ = sample_from_params(rng, truth, n=60)
            fit = fit_em_lasso(
                data, K=2,
                penalty=PenaltyConfig(lam=1.0, gamma=1.0),
                opts=FitOptions(n_starts=2, seed=int(rng.integers(2 ** 31))),
            )
            assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

    def test_strong_penalty_produces_exact_zeros(self):
        rng = np.random.default_rng(22)
        truth = random_params(rng, K=2, p=4, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=80)
        fit = fit_em_lasso(
            data, K=2, penalty=PenaltyConfig(lam=60.0, gamma=60.0),
            opts=FitOptions(n_starts=2, seed=0),
        )
        betas = np.concatenate([e.beta for e in fit.params.experts])
        mus = np.concatenate([g.mu for g in fit.params.gating])
        assert np.all(betas == 0.0)
        assert np.all(mus == 0.0)

    def test_warm_start_runs_single_deterministic_run(self):
        rng = np.random.default_rng(23)
        truth = random_params(rng, K=2, p=2, diagonal=True, spread=4.0)
        data, _ = sample_from_params(rng, truth, n=60)
        init = init_params(data, K=2, seed=7, diagonal_gating=True)
        penalty = PenaltyConfig(lam=2.0, gamma=2.0)
        a = fit_em_lasso(data, K=2, penalty=penalty, warm_start=init)
        b = fit_em_lasso(data, K=2, penalty=penalty, warm_start=init)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)

    def test_kkt_certified_at_em_convergence(self):
        rng = np.random.default_rng(24)
        truth = random_params(rng, K=2, p=3, diagonal=True, spread=4.0)
        data, _ = sample_from_params(rng, truth, n=80)
        lam = gamma = 1.5
        fit = fit_em_lasso(
            data, K=2,
            penalty=PenaltyConfig(lam=lam, gamma=gamma),
            opts=FitOptions(n_starts=2, seed=3, tol=1e-10, max_iter=5000),
        )
        assert fit.converged
        # one more E-step, then a tight coordinate-ascent M-step: the
        # result must satisfy the subgradient conditions of its subproblem
        tau = posterior_responsibilities(data, fit.params)
        mus = ca_update_gating_means(
            data, tau, fit.params.gating, gamma
        )
        for k, g in enumerate(fit.params.gating):
            res = kkt_residuals_gate(data.X, tau.tau[:, k], mus[k], g.R, gamma)
            assert np.max(res) < 1e-6
            # and the refit barely moves: near the EM fixed point
            assert mus[k] == pytest.approx(g.mu, abs=1e-4)
        for k, e in enumerate(fit.params.experts):
            beta = ca_update_expert_coeffs(data, tau.tau[:, k], e, lam)
            res = kkt_residuals_expert(
                data.X, data.y1, tau.tau[:, k], beta,
                float(e.intercept[0]), e.variance, lam,
            )
            assert np.max(res) < 1e-6
            assert beta == pytest.approx(e.beta, abs=1e-4)

    def test_zero_penalty_updates_equal_mle_updates_per_step(self):
        # one M-step at zero penalty reproduces the closed forms
        rng = np.random.default_rng(25)
        truth = random_params(rng, K=2, p=3, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=50)
        params = init_params(data, K=2, seed=1, diagonal_gating=True)
        tau = posterior_responsibilities(data, params)
        T = tau.tau
        mus = ca_update_gating_means(data, tau, params.gating, gamma=0.0)
        nus = update_gating_variances(data, tau, mus)
        for k in range(2):
            s = T[:, k].sum()
            mu_mle = T[:, k] @ data.X / s
            assert mus[k] == pytest.approx(mu_mle, abs=1e-10)
            nu_mle = T[:, k] @ (data.X - mu_mle) ** 2 / s
            assert nus[k] == pytest.approx(nu_mle, abs=1e-10)
            # the incoming support certifies at zero penalty, so one call
            # solves the unpenalized weighted normal equations exactly
            beta = ca_update_expert_coeffs(data, T[:, k], params.experts[k], lam=0.0)
            b0_lag = float(params.experts[k].intercept[0])
            w = T[:, k]
            G = data.X.T @ (w[:, None] * data.X)
            rhs = data.X.T @ (w * (data.y1 - b0_lag))
            assert beta == pytest.approx(np.linalg.solve(G, rhs), abs=1e-10)


def _padded_scenario(p, n, seed):
    """The default scenario padded to p predictors with zero gating means,
    unit gating variances and zero coefficients."""
    base = default_scenario().true_params
    pad = np.zeros(p - base.p)
    truth = MoggeParams(
        gating=tuple(GatingComponent(alpha=g.alpha, mu=np.concatenate([g.mu, pad]),
                                     R=np.ones(p)) for g in base.gating),
        experts=tuple(ExpertComponent(intercept=e.intercept,
                                      coeffs=np.concatenate([e.beta, pad])[:, None],
                                      cov=e.cov) for e in base.experts),
    )
    return Scenario(true_params=truth, n=n, seed=seed)


class TestMonotoneTraces:
    """Penalized traces never fall by more than 1e-8 per step beyond the
    small instances of criterion 3: the M-step is an exact maximizer on
    most calls, and coordinate ascent only where it is not."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_row_of_a_warm_grid(self, monkeypatch, seed):
        traces = []

        def recorded(*args, **kwargs):
            start, run = real_fit(*args, **kwargs)
            traces.append(run.trace)
            return start, run

        real_fit = selection._fit_lasso
        monkeypatch.setattr(selection, "_fit_lasso", recorded)
        data, _ = sample_dataset(default_scenario(n=300, seed=seed))
        values = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
        grid_search(data, GridSpec(Ks=(2,), lambdas=values, gammas=values),
                    opts=FitOptions(n_starts=5, seed=seed))
        assert len(traces) == 36
        for trace in traces:
            assert np.all(np.diff(trace) >= -1e-8)

    def test_padded_to_p40_at_n2000(self):
        data, _ = sample_dataset(_padded_scenario(p=40, n=2000, seed=3))
        fit = fit_em_lasso(
            data, K=2, penalty=PenaltyConfig(lam=20.0, gamma=20.0),
            opts=FitOptions(n_starts=2, seed=3, max_iter=3),
        )
        assert fit.n_iter == 3
        assert any(np.any(e.beta == 0.0) for e in fit.params.experts)
        assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

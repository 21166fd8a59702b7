import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from mogge import em, model
from mogge.model import (
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
    NotPositiveDefiniteError,
    Responsibilities,
    UnsupportedConfigError,
    conditional_density,
    gaussian_logpdf,
    gating_probs,
    joint_loglik,
    penalized_loglik,
    posterior_responsibilities,
)

from _oracles import joint_loglik_mp, joint_term_mp, mvn_logpdf_direct, responsibilities_direct
from conftest import random_dataset, random_params

import mpmath as mp


def make_two_component(p=1, mu2_shift=2.0, diagonal=True):
    mu1 = np.zeros(p)
    mu2 = np.full(p, mu2_shift)
    R = np.ones(p) if diagonal else np.eye(p)
    g1 = GatingComponent(alpha=0.5, mu=mu1, R=R)
    g2 = GatingComponent(alpha=0.5, mu=mu2, R=R)
    e1 = ExpertComponent(intercept=[0.0], coeffs=np.ones((p, 1)), cov=[[1.0]])
    e2 = ExpertComponent(intercept=[1.0], coeffs=-np.ones((p, 1)), cov=[[1.0]])
    return MoggeParams(gating=(g1, g2), experts=(e1, e2))


class TestGaussianLogpdf:
    def test_standard_normal_at_mode(self):
        # -0.5*log(2*pi), 50-digit value -0.91893853320467274178
        assert gaussian_logpdf(0.0, 0.0, [1.0]) == pytest.approx(
            -0.91893853320467274178, abs=1e-14
        )

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_at_mean_identity_cov(self, m):
        v = np.linspace(-1, 1, m)
        val = gaussian_logpdf(v, v, np.eye(m))
        assert val == pytest.approx(-0.5 * m * np.log(2 * np.pi), abs=1e-12)

    def test_diag_case_frozen_value(self):
        # direct formula at 50 digits: -3.156024246969290793
        val = gaussian_logpdf([1.0, 1.0], [0.0, 0.0], [1.0, 4.0])
        assert val == pytest.approx(-3.156024246969290793, abs=1e-13)

    def test_full_case_frozen_value(self):
        # direct formula at 50 digits: -3.7096387861787075531
        cov = [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.2]]
        val = gaussian_logpdf([0.3, -0.2, 0.5], [0.1, 0.0, -0.4], cov)
        assert val == pytest.approx(-3.7096387861787075531, abs=1e-13)

    def test_matches_direct_formula_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.integers(1, 5)
            v = rng.normal(size=m)
            mean = rng.normal(size=m)
            if rng.random() < 0.5:
                cov = rng.uniform(0.2, 3.0, size=m)
            else:
                A = rng.normal(size=(m, m))
                cov = A @ A.T + 0.5 * np.eye(m)
            assert gaussian_logpdf(v, mean, cov) == pytest.approx(
                mvn_logpdf_direct(v, mean, cov), rel=1e-12, abs=1e-12
            )

    def test_diag_equals_full(self):
        d = np.array([0.7, 2.2, 1.1])
        v = np.array([0.1, -0.3, 0.9])
        assert gaussian_logpdf(v, np.zeros(3), d) == pytest.approx(
            gaussian_logpdf(v, np.zeros(3), np.diag(d)), abs=1e-12
        )

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_logpdf([0.0, 0.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_below_floor_variance_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_logpdf([0.0], [0.0], [1e-12])

    def test_asymmetric_full_matrix_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_logpdf([0.0, 0.0], [0.0, 0.0], [[1.0, 5.0], [0.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_logpdf([0.0, 1.0], [0.0], [1.0, 1.0])


@st.composite
def log_weight_rows(draw):
    """Log-weight matrices with entries in [-1e3, 1e3] and some -inf
    entries, never a whole row of them."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    M = draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    dropped = draw(arrays(bool, shape))
    dropped[:, draw(st.integers(0, shape[1] - 1))] = False
    M[dropped] = -np.inf
    return M


class TestLogNormalize:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_weight_rows())
    def test_matches_scipy_logsumexp(self, M):
        lse, W = model._log_normalize(M.T)
        W = W.T
        oracle = logsumexp(M, axis=1)
        # relative, with an absolute floor for row sums near 0
        np.testing.assert_allclose(lse, oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(W, np.exp(M - oracle[:, None]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestGatingProbs:
    def test_single_component(self):
        g = GatingComponent(alpha=1.0, mu=np.zeros(2), R=np.ones(2))
        e = ExpertComponent(intercept=[0.0], coeffs=np.zeros((2, 1)), cov=[[1.0]])
        params = MoggeParams(gating=(g,), experts=(e,))
        assert gating_probs([0.3, -0.5], params) == pytest.approx([1.0])

    def test_identical_components_split_evenly(self):
        g = GatingComponent(alpha=0.5, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=np.zeros((1, 1)), cov=[[1.0]])
        params = MoggeParams(gating=(g, g), experts=(e, e))
        assert gating_probs([0.7], params) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_equidistant_point_splits_evenly(self):
        params = make_two_component(p=1, mu2_shift=2.0)
        assert gating_probs([1.0], params) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_one_property(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            K = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            params = random_params(rng, K=K, p=p, diagonal=bool(rng.random() < 0.5))
            x = rng.normal(scale=3.0, size=p)
            probs = gating_probs(x, params)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_no_underflow_far_from_means(self):
        # raw densities underflow at this distance; the log-domain path must not
        params = make_two_component(p=1)
        probs = gating_probs([60.0], params)
        assert abs(probs.sum() - 1.0) < 1e-10


class TestConditionalDensity:
    def test_single_component_is_expert_density(self):
        g = GatingComponent(alpha=1.0, mu=np.zeros(2), R=np.ones(2))
        e = ExpertComponent(intercept=[0.5], coeffs=[[1.0], [-2.0]], cov=[[0.8]])
        params = MoggeParams(gating=(g,), experts=(e,))
        x = np.array([0.4, -0.2])
        mean = 0.5 + x @ np.array([1.0, -2.0])
        assert conditional_density([0.3], x, params) == pytest.approx(
            gaussian_logpdf([0.3], [mean], [[0.8]]), abs=1e-12
        )

    def test_two_identical_experts_collapse(self):
        g = GatingComponent(alpha=0.5, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[2.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g, g), experts=(e, e))
        single = MoggeParams(
            gating=(GatingComponent(alpha=1.0, mu=np.zeros(1), R=np.ones(1)),),
            experts=(e,),
        )
        assert conditional_density([1.0], [0.5], params) == pytest.approx(
            conditional_density([1.0], [0.5], single), abs=1e-12
        )

    def test_matches_high_precision_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            K = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            params = random_params(rng, K=K, p=p, d=d, diagonal=False)
            x = rng.normal(size=p)
            y = rng.normal(size=d)
            # conditional = joint / marginal over x, both by direct mp sums
            joint = joint_term_mp(x, y, params)
            marg = mp.mpf(0)
            from _oracles import _mp_gauss_pdf

            for g in params.gating:
                marg += mp.mpf(g.alpha) * _mp_gauss_pdf(x, g.mu, g.R)
            expected = float(mp.log(joint / marg))
            assert conditional_density(y, x, params) == pytest.approx(
                expected, rel=1e-10, abs=1e-10
            )

    def test_dimension_mismatch(self):
        params = make_two_component(p=2)
        with pytest.raises(ValueError):
            conditional_density([0.0], [0.0], params)


class TestJointLoglik:
    def test_single_term(self):
        g = GatingComponent(alpha=1.0, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g,), experts=(e,))
        data = DataSet(X=[[0.5]], Y=[[0.7]])
        expected = gaussian_logpdf([0.5], [0.0], [1.0]) + gaussian_logpdf(
            [0.7], [0.5], [[1.0]]
        )
        assert joint_loglik(data, params) == pytest.approx(expected, abs=1e-12)

    def test_duplicated_rows_double_value(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, K=2, p=2)
        data = random_dataset(rng, n=6, p=2)
        doubled = DataSet(
            X=np.vstack([data.X, data.X]), Y=np.vstack([data.Y, data.Y])
        )
        assert joint_loglik(doubled, params) == pytest.approx(
            2.0 * joint_loglik(data, params), rel=1e-14
        )

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            K = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            params = random_params(rng, K=K, p=p, diagonal=bool(rng.random() < 0.5))
            data = random_dataset(rng, n=8, p=p)
            assert joint_loglik(data, params) == pytest.approx(
                joint_loglik_mp(data, params), rel=1e-11, abs=1e-9
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            K = int(rng.integers(2, 5))
            params = random_params(rng, K=K, p=2)
            data = random_dataset(rng, n=12, p=2)
            perm = rng.permutation(K)
            assert joint_loglik(data, params.permuted(perm)) == pytest.approx(
                joint_loglik(data, params), abs=1e-10
            )

    def test_marginal_plus_conditional_equals_joint_term(self):
        # per-observation factorization f(x, y) = f(x) f(y | x)
        rng = np.random.default_rng(19)
        for _ in range(10):
            params = random_params(rng, K=2, p=2, diagonal=True)
            x = rng.normal(size=2)
            y = rng.normal(size=1)
            log_marg_x = float(
                np.logaddexp.reduce([
                    np.log(g.alpha) + gaussian_logpdf(x, g.mu, g.R)
                    for g in params.gating
                ])
            )
            joint_term = joint_loglik(DataSet(X=x[None, :], Y=y[None, :]), params)
            assert conditional_density(y, x, params) + log_marg_x == pytest.approx(
                joint_term, abs=1e-10
            )


class TestPenalizedLoglik:
    def test_zero_penalty_is_bitwise_joint(self):
        rng = np.random.default_rng(23)
        params = random_params(rng, K=2, p=3, diagonal=True)
        data = random_dataset(rng, n=10, p=3)
        assert penalized_loglik(data, params, 0.0, 0.0) == joint_loglik(data, params)

    def test_zero_parameters_have_no_penalty(self):
        g1 = GatingComponent(alpha=0.5, mu=np.zeros(2), R=np.ones(2))
        g2 = GatingComponent(alpha=0.5, mu=np.zeros(2), R=2 * np.ones(2))
        e = ExpertComponent(intercept=[1.0], coeffs=np.zeros((2, 1)), cov=[[1.0]])
        params = MoggeParams(gating=(g1, g2), experts=(e, e))
        data = DataSet(X=[[0.1, 0.2], [0.3, -0.1]], Y=[[0.5], [0.0]])
        assert penalized_loglik(data, params, 3.0, 7.0) == joint_loglik(data, params)

    def test_hand_built_penalty_arithmetic(self):
        g1 = GatingComponent(alpha=0.4, mu=[1.0, -2.0], R=np.ones(2))
        g2 = GatingComponent(alpha=0.6, mu=[0.5, 0.0], R=np.ones(2))
        e1 = ExpertComponent(intercept=[0.3], coeffs=[[2.0], [-1.0]], cov=[[1.0]])
        e2 = ExpertComponent(intercept=[-0.2], coeffs=[[0.0], [4.0]], cov=[[2.0]])
        params = MoggeParams(gating=(g1, g2), experts=(e1, e2))
        data = DataSet(X=[[0.1, 0.2], [0.3, -0.1], [0.0, 1.0]], Y=[[0.5], [0.0], [1.0]])
        # lam=1: |beta| sums to 3 + 4; gamma=2: |mu| sums to 3 + 0.5
        expected = joint_loglik(data, params) - 1.0 * 7.0 - 2.0 * 3.5
        assert penalized_loglik(data, params, 1.0, 2.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_rejects_multivariate_and_full_gating(self):
        rng = np.random.default_rng(29)
        params_d2 = random_params(rng, K=2, p=2, d=2, diagonal=True)
        data_d2 = random_dataset(rng, n=5, p=2, d=2)
        with pytest.raises(UnsupportedConfigError):
            penalized_loglik(data_d2, params_d2, 1.0, 1.0)
        params_full = random_params(rng, K=2, p=2, d=1, diagonal=False)
        data = random_dataset(rng, n=5, p=2)
        with pytest.raises(UnsupportedConfigError):
            penalized_loglik(data, params_full, 1.0, 1.0)

    def test_negative_penalty_rejected(self):
        rng = np.random.default_rng(31)
        params = random_params(rng, K=2, p=2, diagonal=True)
        data = random_dataset(rng, n=5, p=2)
        with pytest.raises(ValueError):
            penalized_loglik(data, params, -1.0, 0.0)


class TestResponsibilities:
    def test_single_component_all_ones(self):
        g = GatingComponent(alpha=1.0, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g,), experts=(e,))
        data = DataSet(X=[[0.1], [0.2], [0.3]], Y=[[0.0], [1.0], [2.0]])
        tau = posterior_responsibilities(data, params).tau
        assert tau == pytest.approx(np.ones((3, 1)))

    def test_identical_components_half(self):
        g = GatingComponent(alpha=0.5, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g, g), experts=(e, e))
        data = DataSet(X=[[0.1], [0.2]], Y=[[0.0], [1.0]])
        tau = posterior_responsibilities(data, params).tau
        assert tau == pytest.approx(0.5 * np.ones((2, 2)), abs=1e-12)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            K = int(rng.integers(1, 4))
            params = random_params(rng, K=K, p=2, diagonal=bool(rng.random() < 0.5))
            data = random_dataset(rng, n=7, p=2)
            tau = posterior_responsibilities(data, params).tau
            assert tau == pytest.approx(
                responsibilities_direct(data, params), abs=1e-10
            )

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            K = int(rng.integers(1, 5))
            params = random_params(rng, K=K, p=3)
            data = random_dataset(rng, n=15, p=3)
            tau = posterior_responsibilities(data, params).tau
            assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-10

    def test_validation_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            Responsibilities(tau=np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError):
            Responsibilities(tau=np.array([[1.2, -0.2]]))


class TestContainers:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            DataSet(X=[[1.0, np.nan]], Y=[[0.0]])
        with pytest.raises(ValueError):
            DataSet(X=[[1.0]], Y=[[0.0], [1.0]])
        d = DataSet(X=[[1.0, 2.0]], Y=[0.5])
        assert (d.n, d.p, d.d) == (1, 2, 1)
        assert d.y1 == pytest.approx([0.5])

    def test_dataset_keeps_read_only_copies(self):
        x, y = np.zeros((3, 2)), np.zeros(3)
        data = DataSet(X=x, Y=y)
        x[0, 0] = 7.0
        y[0] = 7.0
        assert data.X[0, 0] == 0.0 and data.Y[0, 0] == 0.0
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.Y[0, 0] = 1.0

    def test_mixing_weights_must_sum_to_one(self):
        g1 = GatingComponent(alpha=0.5, mu=np.zeros(1), R=np.ones(1))
        g2 = GatingComponent(alpha=0.6, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0]], cov=[[1.0]])
        with pytest.raises(ValueError):
            MoggeParams(gating=(g1, g2), experts=(e, e))

    def test_mixed_gating_layouts_rejected(self):
        g1 = GatingComponent(alpha=0.5, mu=np.zeros(2), R=np.ones(2))
        g2 = GatingComponent(alpha=0.5, mu=np.zeros(2), R=np.eye(2))
        e = ExpertComponent(intercept=[0.0], coeffs=np.zeros((2, 1)), cov=[[1.0]])
        with pytest.raises(ValueError):
            MoggeParams(gating=(g1, g2), experts=(e, e))

    def test_gating_component_rejects_below_floor(self):
        with pytest.raises(NotPositiveDefiniteError):
            GatingComponent(alpha=0.5, mu=np.zeros(1), R=np.array([1e-11]))

    def test_expert_component_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            ExpertComponent(
                intercept=[0.0, 0.0],
                coeffs=np.zeros((1, 2)),
                cov=[[1.0, 2.0], [2.0, 1.0]],
            )

    def test_permuted_roundtrip(self):
        rng = np.random.default_rng(43)
        params = random_params(rng, K=3, p=2)
        back = params.permuted([2, 0, 1]).permuted([1, 2, 0])
        for k in range(3):
            assert back.gating[k].mu == pytest.approx(params.gating[k].mu)


class TestInverseFactorMahalanobis:
    """The full-covariance quadratic form ``(x - mu)' R^-1 (x - mu)`` from
    the inverse of the Cholesky factor is as accurate as the data allows,
    also for a fitted covariance whose condition number exceeds 1e10."""

    def test_collinear_fit_matches_mpmath(self):
        from mogge import FitOptions, default_scenario, fit_em, sample_dataset

        base, _ = sample_dataset(default_scenario(n=300, seed=42))
        X = base.X.copy()
        X[:, 2] = X[:, 0] + X[:, 1]
        fit = fit_em(DataSet(X=X, Y=base.Y), K=2, opts=FitOptions(n_starts=3, seed=0))
        mp.mp.dps = 50
        for g in fit.params.gating:
            assert np.linalg.cond(g.R) >= 1e10
            chol = np.linalg.cholesky(g.R)
            diff = X - g.mu
            const, Q = model._mahalanobis(diff.T, g.R, chol)
            logdens = -0.5 * (const + Q)
            logdet = 2.0 * np.sum(np.log(np.diagonal(chol)))
            quad = -2.0 * logdens - (X.shape[1] * model.LOG_2PI + logdet)
            R_inv = mp.matrix(g.R.tolist()) ** -1
            for row, value in zip(diff, quad):
                v = mp.matrix(row.tolist())
                exact = (v.T * R_inv * v)[0]
                assert abs(mp.mpf(float(value)) - exact) <= 1e-14 * exact


def _eigh_floor(S):
    """The general path of ``em._floor_spd``: symmetrize, floor the
    eigenvalues at the variance floor, then the diagonal."""
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    vals, vecs = np.linalg.eigh(S)
    floored = vecs * np.maximum(vals, model.VARIANCE_FLOOR)[..., None, :]
    floored = floored @ np.swapaxes(vecs, -1, -2)
    d = S.shape[-1]
    floored += np.maximum(model.VARIANCE_FLOOR - np.diagonal(floored, 0, -2, -1), 0.0
                          )[..., None] * np.eye(d)
    return np.where(vals[..., :1, None] >= model.VARIANCE_FLOOR, S, floored)


class TestOneByOneClosedForms:
    """For a stack of 1 x 1 covariances the factor is a closed form with
    exactly the bits of ``cholesky``, its reciprocal has those of
    ``solve(L, I)``, ``em._floor_spd`` those of the eigenvalue floor, and
    a non-positive or NaN entry raises ``LinAlgError``."""

    @staticmethod
    def _stack(values):
        return np.asarray(values, dtype=float).reshape(-1, 2, 1, 1)

    def test_same_bits_as_lapack(self):
        rng = np.random.default_rng(23)
        exponents = np.concatenate([np.linspace(-10.0, 300.0, 300),
                                    rng.uniform(-10.0, 300.0, 300)])
        S = self._stack(10.0 ** exponents * rng.uniform(1.0, 1.0 + 1e-6, 600))
        S[0, 0] = model.VARIANCE_FLOOR
        L = model._cholesky(S)
        assert np.array_equal(L, np.linalg.cholesky(S))
        assert np.array_equal(1.0 / L, np.linalg.solve(L, np.eye(1)))
        assert np.array_equal(em._floor_spd(S), _eigh_floor(S))
        below = self._stack(-(10.0 ** rng.uniform(-300.0, 300.0, 100)))
        below = np.concatenate([below, S[:50] * 1e-12, self._stack([0.0, -0.0])])
        assert np.array_equal(em._floor_spd(below), _eigh_floor(below))

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_non_positive_raises(self, value):
        S = self._stack(np.ones(6))
        S[1, 1] = value
        with pytest.raises(np.linalg.LinAlgError):
            model._cholesky(S)


class TestFlooredCovariances:
    def test_floored_diagonals_pass_the_components_check(self):
        # the eigenvector product left about one floored matrix in thirteen
        # with a diagonal entry an ulp below the floor, and a run ending
        # there failed its result's check
        rng = np.random.default_rng(35)
        for d in (2, 3):
            Q, _ = np.linalg.qr(rng.normal(size=(2000, d, d)))
            vals = np.concatenate([rng.uniform(-1e-9, 1e-11, (2000, d - 1)),
                                   10.0 ** rng.uniform(-12.0, 2.0, (2000, 1))], axis=1)
            floored = em._floor_spd(Q * vals[:, None, :] @ np.swapaxes(Q, -1, -2))
            assert (np.diagonal(floored, 0, -2, -1) >= model.VARIANCE_FLOOR).all()
            model._check_components("expert covariance", floored, np.zeros((2000, d)))


class TestDimensionsCheckedAtTheBoundary:
    """The public functions check that the parameters' (p, d) match the
    data's, once, before any kernel runs; the E-step kernels do not."""

    MESSAGE = r"parameter dimensions \(p=2, d=1\) do not match data \(p=3, d=1\)"

    @pytest.fixture
    def params(self):
        return random_params(np.random.default_rng(31), K=2, p=2)

    @pytest.fixture
    def data(self):
        return random_dataset(np.random.default_rng(32), n=10, p=3)

    @pytest.mark.parametrize("call", [
        lambda data, params: joint_loglik(data, params),
        lambda data, params: posterior_responsibilities(data, params),
        lambda data, params: penalized_loglik(data, params, 1.0, 1.0),
        lambda data, params: conditional_density(data.Y[0], data.X[0], params),
    ], ids=["joint_loglik", "posterior_responsibilities", "penalized_loglik",
            "conditional_density"])
    def test_each_public_function_raises(self, monkeypatch, data, params, call):
        kernel = model._log_joint_matrix

        def unreached(*args, **kwargs):
            raise AssertionError("the kernel ran before the check")

        monkeypatch.setattr(model, "_log_joint_matrix", unreached)
        with pytest.raises(ValueError, match=self.MESSAGE):
            call(data, params)
        monkeypatch.setattr(model, "_log_joint_matrix", kernel)
        with pytest.raises(ValueError, match=self.MESSAGE):
            call(data, params)


class TestUnivariateExpertTerm:
    """With d = 1 the log-joint's expert term is
    ``-(log 2 pi + log sigma2 + r2 / sigma2) / 2`` of the residual squares
    ``r2``: scipy's normal log-density of the response, at every scale the
    floating-point range holds with room for squares."""

    @pytest.mark.parametrize("scale", [1e-150, 1e-50, 1e-3, 1.0, 1e3, 1e50, 1e150])
    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "full"])
    def test_matches_scipy_norm_logpdf(self, scale, diagonal):
        from scipy.stats import norm

        # the kernel's unchecked stack: variances below the floor too
        rng = np.random.default_rng(33)
        s = model._Stack.of(random_params(rng, K=3, p=2, diagonal=diagonal))
        s = s._replace(a=s.a * scale, B=s.B * scale, Sigma=s.Sigma * scale * scale)
        X = rng.normal(size=(40, 2))
        Y = rng.normal(size=40) * scale
        sample = model._Sample.of(DataSet(X=X, Y=Y))
        gate = model._log_weights(s.alpha, *model._gate_terms(sample.XT, s))
        expert = model._log_joint_matrix(sample, s) - gate
        for k in range(3):
            expected = norm.logpdf(Y, loc=s.a[k, 0] + X @ s.B[k, :, 0],
                                   scale=np.sqrt(s.Sigma[k, 0, 0]))
            np.testing.assert_allclose(expert[k], expected, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_a_variance_that_is_not_positive_raises_as_a_factorization(self, value):
        # the EM loop's E-step takes the expert variances unfactored; one
        # that is not positive fails its start as a failed Cholesky did
        rng = np.random.default_rng(34)
        data = random_dataset(rng, n=10, p=2)
        s = model._Stack.of(random_params(rng, K=2, p=2))
        s = s._replace(Sigma=s.Sigma.copy())
        s.Sigma[1, 0, 0] = value
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            model._e_step(model._Sample.of(data), s)


class TestEvaluatorsRaiseOnOverflow:
    """The public evaluators run under the fits' ``np.errstate(over="raise",
    invalid="raise")``: a point whose squares overflow raises
    ``FloatingPointError``, as it fails a fit's start, and never gives NaN,
    -inf or a misleading error about the responsibilities."""

    @pytest.fixture
    def params(self):
        gating = (GatingComponent(alpha=1.0, mu=[0.0], R=[1e300]),)
        experts = (ExpertComponent(intercept=[0.0], coeffs=[0.0], cov=[[1e300]]),)
        return MoggeParams(gating=gating, experts=experts)

    @pytest.mark.parametrize("call", [
        lambda data, params: joint_loglik(data, params),
        lambda data, params: posterior_responsibilities(data, params),
        lambda data, params: penalized_loglik(data, params, 0.0, 0.0),
        lambda data, params: conditional_density(data.Y[0], data.X[0], params),
        lambda data, params: gating_probs(data.Y[0], params),
        lambda data, params: gaussian_logpdf(data.Y[0], [0.0], [1e300]),
    ], ids=["joint_loglik", "posterior_responsibilities", "penalized_loglik",
            "conditional_density", "gating_probs", "gaussian_logpdf"])
    def test_an_overflowing_square_raises(self, params, call):
        # y = 1e155 under a variance of 1e300: the residual square overflows
        # (gating_probs and gaussian_logpdf: the same number as the point)
        data = DataSet(X=[[0.0]], Y=[1e155])
        with pytest.raises(FloatingPointError, match="overflow"):
            call(data, params)
        # 1e154 still squares to a finite number
        assert np.isfinite(joint_loglik(DataSet(X=[[0.0]], Y=[1e154]), params))


class TestVariancesMustBeFinite:
    """Every public function that takes a variance, ``GatingComponent``
    (variances or a covariance matrix), ``ExpertComponent`` and
    ``gaussian_logpdf``, rejects NaN and +-inf with ``ValueError``."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), layout=st.sampled_from(["vector", "matrix"]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_variances_are_rejected(self, m, layout, bad, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        if layout == "vector":
            cov = rng.uniform(0.5, 2.0, size=m)
        else:
            A = rng.normal(size=(m, m))
            cov = A @ A.T + np.eye(m)
        flat = cov.reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1))] = bad
        mean = rng.normal(size=m)
        calls = [lambda: GatingComponent(alpha=1.0, mu=mean, R=cov),
                 lambda: gaussian_logpdf(mean + 1.0, mean, cov)]
        if layout == "matrix":
            calls.append(lambda: ExpertComponent(intercept=np.zeros(m),
                                                 coeffs=np.ones((2, m)), cov=cov))
        elif m == 1:  # a scalar variance of a univariate expert
            calls.append(lambda: ExpertComponent(intercept=0.0, coeffs=[1.0], cov=cov[0]))
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call()

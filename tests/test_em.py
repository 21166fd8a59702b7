import numpy as np
import pytest

from mogge.em import (
    FitOptions,
    FitResult,
    fit_em,
    init_params,
    m_step_gating,
    m_step_experts,
    start_seeds,
    _partition,
)
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
from mogge.model import (
    DataSet,
    MoggeParams,
    _Stack,
    DegenerateComponentError,
    FitFailedError,
    Responsibilities,
    joint_loglik,
    posterior_responsibilities,
)

from _oracles import weighted_moments, wls_ridge_lstsq
from conftest import random_params, random_tau, sample_from_params


class TestFitOptions:
    def test_defaults(self):
        opts = FitOptions()
        assert opts.max_iter == 1000
        assert opts.tol == 1e-6
        assert opts.n_starts == 10
        assert opts.init_strategy == "random-partition"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"tol": 0.0},
            {"n_starts": 0},
            {"seed": -1},
            {"init_strategy": "nope"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FitOptions(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("n_starts", 2.5), ("max_iter", 3.5), ("seed", float("nan")),
        ("max_iter", float("inf")), ("n_starts", "2"), ("seed", np.float32(1.5)),
    ])
    def test_non_integers_rejected(self, field, value):
        # 1.5 and the rest used to construct, and the fit then raised a
        # numpy TypeError ("SeedSequence expects int ...")
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            FitOptions(**{field: value})

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_tol_must_be_finite(self, tol):
        # an infinite tol stopped every fit after one iteration, converged
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            FitOptions(tol=tol)

    def test_numpy_integers_and_integral_floats_are_ints(self):
        opts = FitOptions(max_iter=np.int64(50), n_starts=np.int32(2), seed=np.uint64(2 ** 63))
        assert opts == FitOptions(max_iter=50.0, n_starts=2, seed=2 ** 63)
        assert FitOptions(n_starts=np.float32(2.0), seed=np.float16(3.0)) == FitOptions(
            n_starts=2, seed=3)
        assert all(type(v) is int for v in (opts.max_iter, opts.n_starts, opts.seed))
        data = sample_from_params(np.random.default_rng(4),
                                  random_params(np.random.default_rng(4)), 60)[0]
        a, b = fit_em(data, K=2, opts=opts), fit_em(data, K=2, opts=FitOptions(
            max_iter=50, n_starts=2, seed=2 ** 63))
        assert a.loglik_trace.tobytes() == b.loglik_trace.tobytes()


class TestKAtTheBoundary:
    """``K`` passes through the integer check once per fit: integral floats
    and numpy integers fit as the same int, bit for bit, and anything else
    raises ``ValueError`` before a partition is drawn."""

    FITS = {
        "fit_em": lambda data, K: fit_em(data, K, FitOptions(n_starts=2, seed=3, max_iter=20)),
        "fit_em_lasso": lambda data, K: fit_em_lasso(
            data, K, PenaltyConfig(lam=1.0, gamma=1.0), FitOptions(n_starts=2, seed=3, max_iter=20)),
        "init_params": lambda data, K: init_params(data, K, seed=3),
    }

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_integral_values_fit_as_ints(self, fit):
        data = sample_from_params(np.random.default_rng(5),
                                  random_params(np.random.default_rng(5)), 60)[0]
        expected = _Stack.of(_params(self.FITS[fit](data, 2)))
        for K in (2.0, np.int64(2), np.uint8(2), np.float64(2.0), np.float32(2.0)):
            for x, y in zip(_Stack.of(_params(self.FITS[fit](data, K))), expected):
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("fit", sorted(FITS))
    @pytest.mark.parametrize("K, shown", [(2.5, "2.5"), ("2", "'2'"), (float("nan"), "nan"),
                                          (None, "None"),
                                          (np.float32(2.5), r"np\.float32\(2\.5\)")])
    def test_other_values_are_rejected(self, fit, K, shown):
        # 2.0 and 2.5 raised numpy's TypeError from np.bincount, and "2" a
        # TypeError from a comparison
        data = DataSet(X=np.arange(12.0).reshape(6, 2), Y=np.arange(6.0))
        with pytest.raises(ValueError, match=f"^K must be an integer, got {shown}$"):
            self.FITS[fit](data, K)

    @pytest.mark.parametrize("fit", sorted(FITS))
    @pytest.mark.parametrize("K", [0, -1, 0.0])
    def test_fewer_than_one_component_is_rejected(self, fit, K):
        data = DataSet(X=np.arange(12.0).reshape(6, 2), Y=np.arange(6.0))
        with pytest.raises(ValueError, match="^K must be at least 1$"):
            self.FITS[fit](data, K)

    def test_an_unknown_strategy_is_rejected(self):
        data = DataSet(X=np.arange(12.0).reshape(6, 2), Y=np.arange(6.0))
        with pytest.raises(ValueError, match="^unknown init strategy 'k-medoids'$"):
            init_params(data, 2, strategy="k-medoids")


def _params(out):
    return out if isinstance(out, MoggeParams) else out.params


class TestInitParams:
    def test_single_group_is_global_fit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = 1.0 + X @ np.array([2.0, -1.0]) + 0.1 * rng.normal(size=40)
        data = DataSet(X=X, Y=y)
        params = init_params(data, K=1, seed=3)
        assert params.gating[0].alpha == 1.0
        assert params.gating[0].mu == pytest.approx(X.mean(axis=0))
        Z = np.hstack([np.ones((40, 1)), X])
        # the ridge on the slopes only, as in every M-step
        C = np.linalg.solve(Z.T @ Z + 1e-8 * np.diag([0.0, 1.0, 1.0]), Z.T @ y[:, None])
        assert params.experts[0].intercept == pytest.approx(C[0], abs=1e-12)
        assert params.experts[0].coeffs == pytest.approx(C[1:], abs=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_the_intercept_is_not_ridged(self, K, d):
        # an unpenalized intercept centres each group's residuals, as in
        # every M-step; a ridged one leaves them the mean r a / (n_k + r)
        rng = np.random.default_rng(10 * K + d)
        X = rng.normal(size=(60, 2))
        Y = 3.0 + X @ rng.normal(size=(2, d)) + 0.1 * rng.normal(size=(60, d))
        params = init_params(DataSet(X=X, Y=Y), K, seed=5)
        labels = _partition(X, K, "random-partition", 5)
        for k, e in enumerate(params.experts):
            resid = Y[labels == k] - e.intercept - X[labels == k] @ e.coeffs
            assert (np.abs(resid.sum(axis=0)) <= 1e-12 * np.abs(resid).sum(axis=0)).all()

    def test_singleton_groups_center_on_points(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        y = np.array([0.0, 1.0, 2.0])
        data = DataSet(X=X, Y=y)
        params = init_params(data, K=3, strategy="kmeans-on-x", seed=1)
        centers = sorted(tuple(g.mu) for g in params.gating)
        expected = sorted(tuple(row) for row in X)
        assert np.allclose(centers, expected)

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        data = DataSet(X=rng.normal(size=(30, 3)), Y=rng.normal(size=30))
        a = init_params(data, K=2, seed=99)
        b = init_params(data, K=2, seed=99)
        for k in range(2):
            assert np.array_equal(a.gating[k].mu, b.gating[k].mu)
            assert np.array_equal(a.gating[k].R, b.gating[k].R)
            assert np.array_equal(a.experts[k].coeffs, b.experts[k].coeffs)

    def test_k_larger_than_n_rejected(self):
        data = DataSet(X=np.zeros((3, 1)) + np.arange(3)[:, None], Y=np.zeros(3))
        with pytest.raises(ValueError):
            init_params(data, K=4)

    def test_diagonal_layout(self):
        rng = np.random.default_rng(8)
        data = DataSet(X=rng.normal(size=(20, 3)), Y=rng.normal(size=20))
        params = init_params(data, K=2, seed=0, diagonal_gating=True)
        assert params.has_diagonal_gating


class TestMStepGating:
    def test_unweighted_single_component(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 2))
        data = DataSet(X=X, Y=rng.normal(size=25))
        tau = Responsibilities(tau=np.ones((25, 1)))
        (g,) = m_step_gating(data, tau)
        assert g.alpha == pytest.approx(1.0)
        assert g.mu == pytest.approx(X.mean(axis=0))
        cov = np.cov(X.T, bias=True) + 1e-10 * np.eye(2)
        assert g.R == pytest.approx(cov, rel=1e-12)

    def test_one_hot_reduces_to_per_cluster_moments(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(size=(10, 2)), 10.0 + rng.normal(size=(12, 2))])
        labels = np.array([0] * 10 + [1] * 12)
        data = DataSet(X=X, Y=rng.normal(size=22))
        T = np.zeros((22, 2))
        T[np.arange(22), labels] = 1.0
        comps = m_step_gating(data, Responsibilities(tau=T))
        for k, nk in ((0, 10), (1, 12)):
            Xk = X[labels == k]
            assert comps[k].alpha == pytest.approx(nk / 22)
            assert comps[k].mu == pytest.approx(Xk.mean(axis=0))
            assert comps[k].R == pytest.approx(
                np.cov(Xk.T, bias=True) + 1e-10 * np.eye(2), rel=1e-12
            )

    def test_matches_weighted_moment_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            X = rng.normal(size=(5, 2))
            data = DataSet(X=X, Y=rng.normal(size=5))
            T = random_tau(rng, 5, 2)
            comps = m_step_gating(data, Responsibilities(tau=T))
            diag = m_step_gating(data, Responsibilities(tau=T), diagonal=True)
            for k in range(2):
                mean, cov = weighted_moments(X, T[:, k])
                assert comps[k].mu == pytest.approx(mean, abs=1e-12)
                assert comps[k].R == pytest.approx(
                    cov + 1e-10 * np.eye(2), abs=1e-12
                )
                assert diag[k].R == pytest.approx(
                    np.diag(cov) + 1e-10, abs=1e-12
                )

    def test_degenerate_component_named(self):
        data = DataSet(X=np.arange(4.0)[:, None], Y=np.zeros(4))
        T = np.ones((4, 2))
        T[:, 1] = 1e-12
        T[:, 0] = 1.0 - 1e-12
        with pytest.raises(DegenerateComponentError) as err:
            m_step_gating(data, Responsibilities(tau=T))
        assert err.value.component == 2


class TestMStepExperts:
    def test_exact_linear_data(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 1))
        y = 2.0 * X[:, 0] + 1.0
        data = DataSet(X=X, Y=y)
        tau = Responsibilities(tau=np.ones((50, 1)))
        prev = init_params(data, K=1, seed=0).experts
        (e,) = m_step_experts(data, tau, prev)
        assert e.intercept == pytest.approx([1.0], abs=1e-7)
        assert e.coeffs == pytest.approx(np.array([[2.0]]), abs=1e-7)
        assert e.variance == 1e-10  # floored: residuals vanish

    def test_zero_column_gets_zero_coefficient(self):
        rng = np.random.default_rng(14)
        X = np.zeros((30, 2))
        X[:, 1] = rng.normal(size=30)
        y = 3.0 + 0.5 * X[:, 1]
        data = DataSet(X=X, Y=y)
        tau = Responsibilities(tau=np.ones((30, 1)))
        prev = init_params(data, K=1, seed=0).experts
        (e,) = m_step_experts(data, tau, prev)
        assert e.coeffs[0, 0] == 0.0
        assert e.intercept == pytest.approx([3.0], abs=1e-6)

    def test_matches_the_joint_ridge_wls_oracle(self):
        # the exact step: the weighted least squares of y on [1, x], with
        # the ridge on the coefficients only; the previous experts are
        # not read
        rng = np.random.default_rng(15)
        for _ in range(10):
            X = rng.normal(size=(6, 2))
            y = rng.normal(size=(6, 1))
            data = DataSet(X=X, Y=y)
            T = random_tau(rng, 6, 2)
            prev = tuple(
                random_params(rng, K=2, p=2).experts[k] for k in range(2)
            )
            comps = m_step_experts(data, Responsibilities(tau=T), prev)
            for k in range(2):
                w = T[:, k]
                nk = w.sum()
                fit = wls_ridge_lstsq(X, w, y, ridge=1e-8)
                a, B = fit[0], fit[1:]  # the intercept row first
                assert comps[k].intercept == pytest.approx(a, abs=1e-10)
                assert comps[k].coeffs == pytest.approx(B, abs=1e-10)
                resid = y[:, 0] - a[0] - X @ B[:, 0]
                s2 = max(float(w @ resid ** 2 / nk), 1e-10)
                assert comps[k].variance == pytest.approx(s2, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_previous_experts_are_not_read(self, d):
        # two unrelated previous expert sets give the same bits
        rng = np.random.default_rng(18)
        data = DataSet(X=rng.normal(size=(40, 3)), Y=rng.normal(size=(40, d)))
        tau = Responsibilities(tau=random_tau(rng, 40, 2))
        first, second = (
            m_step_experts(data, tau, random_params(rng, K=2, p=3, d=d).experts)
            for _ in range(2)
        )
        for a, b in zip(first, second):
            assert np.array_equal(a.intercept, b.intercept)
            assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(a.cov, b.cov)

    @pytest.mark.parametrize("d", [1, 2])
    def test_maximizes_the_expected_expert_loglik(self, d):
        # the closed form maximizes each expert's responsibility-weighted
        # Gaussian log-likelihood: no nearby intercept, coefficients or
        # covariance does better
        rng = np.random.default_rng(19)
        X = rng.normal(size=(50, 2))
        Y = X @ rng.normal(size=(2, d)) + rng.normal(size=(50, d))
        T = random_tau(rng, 50, 2)
        comps = m_step_experts(DataSet(X=X, Y=Y), Responsibilities(tau=T),
                               random_params(rng, K=2, p=2, d=d).experts)

        def expected_loglik(w, a, B, S):
            resid = Y - a - X @ B
            quad = np.einsum("ij,jk,ik->i", resid, np.linalg.inv(S), resid)
            logdet = np.linalg.slogdet(S)[1]
            return -0.5 * w @ (d * np.log(2 * np.pi) + logdet + quad)

        for k, e in enumerate(comps):
            best = expected_loglik(T[:, k], e.intercept, e.coeffs, e.cov)
            for _ in range(20):
                A = rng.normal(size=(d, d))
                near = (e.intercept + 1e-3 * rng.normal(size=d),
                        e.coeffs + 1e-3 * rng.normal(size=(2, d)),
                        e.cov + 1e-3 * A @ A.T)
                assert expected_loglik(T[:, k], *near) < best


class TestFitEm:
    def test_k1_converges_immediately_to_global_mle(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(60, 2))
        y = 0.5 + X @ np.array([1.0, -2.0]) + 0.3 * rng.normal(size=60)
        data = DataSet(X=X, Y=y)
        fit = fit_em(data, K=1, opts=FitOptions(n_starts=1, seed=5))
        assert fit.converged
        assert fit.n_iter <= 2
        # closed-form global optimum: Gaussian moments + OLS
        from mogge.model import gaussian_logpdf

        mu, S = X.mean(axis=0), np.cov(X.T, bias=True)
        Z = np.hstack([np.ones((60, 1)), X])
        C, *_ = np.linalg.lstsq(Z, y, rcond=None)
        resid = y - Z @ C
        s2 = float(resid @ resid / 60)
        best = sum(gaussian_logpdf(X[i], mu, S) for i in range(60)) + sum(
            gaussian_logpdf([y[i]], [Z[i] @ C], [[s2]]) for i in range(60)
        )
        assert fit.objective == pytest.approx(best, abs=1e-6)
        assert fit.objective <= best + 1e-9

    def test_monotone_trace_on_random_datasets(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            truth = random_params(rng, K=2, p=2, diagonal=True, spread=3.0)
            data, _ = sample_from_params(rng, truth, n=50)
            fit = fit_em(data, K=2, opts=FitOptions(n_starts=2, seed=int(rng.integers(2 ** 31))))
            steps = np.diff(fit.loglik_trace)
            assert np.all(steps >= -1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(18)
        truth = random_params(rng, K=2, p=2, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=60)
        opts = FitOptions(n_starts=3, seed=42)
        a = fit_em(data, K=2, opts=opts)
        b = fit_em(data, K=2, opts=opts)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)
        assert a.n_iter == b.n_iter
        for k in range(2):
            assert np.array_equal(a.params.gating[k].mu, b.params.gating[k].mu)
            assert np.array_equal(a.params.experts[k].coeffs, b.params.experts[k].coeffs)

    def test_permutation_leaves_objective_unchanged(self):
        rng = np.random.default_rng(19)
        truth = random_params(rng, K=2, p=2, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=40)
        fit = fit_em(data, K=2, opts=FitOptions(n_starts=2, seed=7))
        swapped = fit.params.permuted([1, 0])
        assert joint_loglik(data, swapped) == pytest.approx(
            fit.objective, abs=1e-10
        )

    def test_stationary_point(self):
        rng = np.random.default_rng(20)
        truth = random_params(rng, K=2, p=2, diagonal=True, spread=4.0)
        data, _ = sample_from_params(rng, truth, n=80)
        tol = 1e-8
        fit = fit_em(data, K=2, opts=FitOptions(n_starts=3, seed=1, tol=tol, max_iter=5000))
        assert fit.converged
        tau = posterior_responsibilities(data, fit.params)
        from mogge.model import MoggeParams

        gating = m_step_gating(data, tau)
        experts = m_step_experts(data, tau, fit.params.experts)
        after = joint_loglik(data, MoggeParams(gating=tuple(gating), experts=tuple(experts)))
        assert abs(after - fit.objective) / abs(fit.objective) < 10 * tol

    def test_trace_length_matches_n_iter(self):
        rng = np.random.default_rng(21)
        truth = random_params(rng, K=2, p=2, diagonal=True, spread=3.0)
        data, _ = sample_from_params(rng, truth, n=40)
        fit = fit_em(data, K=2, opts=FitOptions(n_starts=1, seed=2, max_iter=7))
        assert len(fit.loglik_trace) == fit.n_iter + 1
        assert fit.n_iter <= 7
        assert isinstance(fit, FitResult)

    def test_all_starts_failing_raises_with_diagnoses(self):
        # identical points make k-means unable to fill 3 clusters
        data = DataSet(X=np.ones((3, 2)), Y=np.zeros(3))
        with pytest.raises(FitFailedError) as err:
            fit_em(
                data, K=3,
                opts=FitOptions(n_starts=2, seed=0, init_strategy="kmeans-on-x"),
            )
        assert len(err.value.diagnoses) == 2

    def test_start_seeds_deterministic(self):
        assert start_seeds(123, 4) == start_seeds(123, 4)
        assert start_seeds(123, 4) != start_seeds(124, 4)

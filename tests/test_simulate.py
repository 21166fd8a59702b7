import numpy as np
import pytest

from mogge.model import ExpertComponent, GatingComponent, MoggeParams
from mogge.simulate import (
    Scenario,
    default_scenario,
    replicate_seed,
    sample_dataset,
)


class TestDefaultScenario:
    def test_dimensions(self):
        s = default_scenario()
        assert s.n == 300
        assert s.true_params.K == 2
        assert s.true_params.p == 8
        assert s.true_params.d == 1
        assert s.true_params.has_diagonal_gating

    def test_parameter_values(self):
        s = default_scenario()
        g1, g2 = s.true_params.gating
        e1, e2 = s.true_params.experts
        assert g1.alpha == g2.alpha == 0.5
        assert g1.mu.tolist() == [0.0, 1.0, -1.0, -1.5, 0.0, 0.5, 0.0, 0.0]
        assert g2.mu.tolist() == [2.0, 0.0, 1.0, -1.5, 0.0, -0.5, 0.0, 0.0]
        assert np.all(g1.R == 1.0) and np.all(g2.R == 1.0)
        assert e1.beta.tolist() == [0.0, 1.5, 0.0, 0.0, 0.0, 1.0, 0.0, -0.5]
        assert e2.beta.tolist() == [1.0, -1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5]
        assert e1.variance == e2.variance == 1.0

    def test_true_zero_patterns(self):
        s = default_scenario()
        beta1_zeros = np.where(s.true_params.experts[0].beta == 0.0)[0] + 1
        assert beta1_zeros.tolist() == [1, 3, 4, 5, 7]
        mu1_zeros = np.where(s.true_params.gating[0].mu == 0.0)[0] + 1
        assert mu1_zeros.tolist() == [1, 5, 7, 8]

    def test_intercept_conventions(self):
        zero = default_scenario()
        assert [float(e.intercept[0]) for e in zero.true_params.experts] == [0.0, 0.0]
        first = default_scenario(intercept_convention="first-entry")
        assert [float(e.intercept[0]) for e in first.true_params.experts] == [0.0, 1.0]
        # the first slot moves into the intercept, leaving a zero slope
        assert first.true_params.experts[1].beta[0] == 0.0
        with pytest.raises(ValueError):
            default_scenario(intercept_convention="nope")


class TestSampleDataset:
    def test_shapes_and_labels(self):
        data, labels = sample_dataset(default_scenario(seed=7))
        assert (data.n, data.p, data.d) == (300, 8, 1)
        assert labels.shape == (300,)
        assert set(np.unique(labels)) <= {1, 2}

    def test_determinism_and_seed_sensitivity(self):
        s = default_scenario(seed=11)
        d1, l1 = sample_dataset(s)
        d2, l2 = sample_dataset(s)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.Y, d2.Y)
        assert np.array_equal(l1, l2)
        d3, _ = sample_dataset(default_scenario(seed=12))
        assert not np.array_equal(d1.X, d3.X)

    def test_noiseless_limit_tracks_linear_predictor(self):
        beta = np.array([1.0, -2.0])
        params = MoggeParams(
            gating=(GatingComponent(alpha=1.0, mu=np.zeros(2), R=np.ones(2)),),
            experts=(ExpertComponent(
                intercept=[0.5], coeffs=beta[:, None], cov=[[1e-10]],
            ),),
        )
        data, _ = sample_dataset(Scenario(true_params=params, n=200, seed=3))
        pred = 0.5 + data.X @ beta
        assert np.max(np.abs(data.y1 - pred)) < 1e-4

    @pytest.mark.parametrize("full_gating", [False, True])
    def test_uses_the_components_factors(self, monkeypatch, full_gating):
        params = default_scenario().true_params
        if full_gating:
            params = MoggeParams(
                gating=tuple(
                    GatingComponent(alpha=g.alpha, mu=g.mu, R=np.diag(g.R) + 0.1)
                    for g in params.gating
                ),
                experts=params.experts,
            )
        calls = [0]
        original = np.linalg.cholesky

        def counted(a):
            calls[0] += 1
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        data, _ = sample_dataset(Scenario(true_params=params, n=50, seed=4))
        assert data.n == 50
        assert calls[0] == 0

    def test_label_frequencies_match_mixing_weights(self):
        n = 100_000
        _, labels = sample_dataset(default_scenario(n=n, seed=5))
        freq = np.mean(labels == 1)
        se = np.sqrt(0.25 / n)
        assert abs(freq - 0.5) <= 3 * se

    def test_component_means_match_within_clt_bounds(self):
        n = 100_000
        s = default_scenario(n=n, seed=9)
        data, labels = sample_dataset(s)
        for k in (1, 2):
            Xk = data.X[labels == k]
            se = 1.0 / np.sqrt(Xk.shape[0])  # unit variances
            mu = s.true_params.gating[k - 1].mu
            assert np.all(np.abs(Xk.mean(axis=0) - mu) <= 3 * se)

    def test_response_follows_regression(self):
        n = 100_000
        s = default_scenario(n=n, seed=13)
        data, labels = sample_dataset(s)
        for k in (1, 2):
            e = s.true_params.experts[k - 1]
            mask = labels == k
            resid = data.y1[mask] - (float(e.intercept[0]) + data.X[mask] @ e.beta)
            se = 1.0 / np.sqrt(mask.sum())
            assert abs(resid.mean()) <= 3 * se
            assert abs(resid.std() - 1.0) <= 4 * se


class TestScenario:
    def test_validation(self):
        params = default_scenario().true_params
        with pytest.raises(ValueError):
            Scenario(true_params=params, n=0, seed=0)
        with pytest.raises(ValueError):
            Scenario(true_params=params, n=10, seed=-1)
        # each was accepted, and sample_dataset raised TypeError
        for n, seed in ((2.5, 0), (10, -0.5), ("300", 0)):
            with pytest.raises(ValueError, match="must be an integer"):
                Scenario(true_params=params, n=n, seed=seed)
        scenario = Scenario(true_params=params, n=np.float64(30.0), seed=np.float64(2.0))
        assert (type(scenario.n), scenario.n, type(scenario.seed)) == (int, 30, int)

    def test_replicate_seeds_distinct_and_stable(self):
        seeds = [replicate_seed(42, i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert seeds == [replicate_seed(42, i) for i in range(10)]

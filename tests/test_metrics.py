import numpy as np
import pytest

from mogge import metrics
from mogge.metrics import (
    adjusted_rand_index,
    bayes_labels,
    best_label_permutation,
    classification_rate,
    match_components,
    sensitivity_specificity,
)
from mogge.model import (
    DataSet,
    ExpertComponent,
    GatingComponent,
    MoggeParams,
)
from mogge.simulate import default_scenario, sample_dataset

from _oracles import (
    ari_pair_counting,
    classification_rate_bruteforce,
    responsibilities_direct,
)
from conftest import random_dataset, random_params


class TestBayesLabels:
    def test_single_component(self):
        g = GatingComponent(alpha=1.0, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g,), experts=(e,))
        data = DataSet(X=[[0.0], [1.0]], Y=[[0.0], [1.0]])
        assert bayes_labels(data, params).tolist() == [1, 1]

    def test_dominant_posterior(self):
        s = default_scenario()
        params = s.true_params
        x = params.gating[0].mu
        y = [float(params.experts[0].intercept[0] + x @ params.experts[0].beta)]
        data = DataSet(X=x[None, :], Y=[y])
        assert bayes_labels(data, params).tolist() == [1]

    def test_matches_argmax_of_direct_responsibilities(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = random_params(rng, K=3, p=2)
            data = random_dataset(rng, n=12, p=2)
            expected = np.argmax(responsibilities_direct(data, params), axis=1) + 1
            assert bayes_labels(data, params).tolist() == expected.tolist()

    def test_tie_goes_to_smallest_index(self):
        g = GatingComponent(alpha=0.5, mu=np.zeros(1), R=np.ones(1))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g, g), experts=(e, e))
        data = DataSet(X=[[0.3]], Y=[[0.1]])
        assert bayes_labels(data, params).tolist() == [1]


class TestClassificationRate:
    def test_exact_match(self):
        assert classification_rate([1, 2, 1, 2], [1, 2, 1, 2], K=2) == 1.0

    def test_relabeled_match(self):
        assert classification_rate([1, 1, 2, 2], [2, 2, 1, 1], K=2) == 1.0

    def test_hand_micro_example(self):
        # identity permutation agrees on 3 of 4; the swap on 0 of 4
        assert classification_rate([1, 1, 2, 2], [1, 2, 2, 2], K=2) == 0.75

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            K = int(rng.integers(1, 5))
            n = int(rng.integers(2, 30))
            t = rng.integers(1, K + 1, size=n)
            e = rng.integers(1, K + 1, size=n)
            assert classification_rate(t, e, K) == pytest.approx(
                classification_rate_bruteforce(t, e, K)
            )

    def test_beats_chance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            t = rng.integers(1, K + 1, size=40)
            e = rng.integers(1, K + 1, size=40)
            assert classification_rate(t, e, K) >= 1.0 / K

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            K = int(rng.integers(2, 5))
            t = rng.integers(1, K + 1, size=25)
            e = rng.integers(1, K + 1, size=25)
            base = classification_rate(t, e, K)
            perm_t = rng.permutation(K) + 1
            perm_e = rng.permutation(K) + 1
            assert classification_rate(perm_t[t - 1], e, K) == pytest.approx(base)
            assert classification_rate(t, perm_e[e - 1], K) == pytest.approx(base)

    def test_no_k_cap_and_label_range(self):
        true = np.repeat(np.arange(1, 10), 2)
        # relabel[k - 1] is the estimated label of true label k
        relabel = np.array([3, 1, 4, 9, 5, 2, 6, 8, 7])
        rate, perm = best_label_permutation(true, relabel[true - 1], K=9)
        assert rate == 1.0
        assert perm == tuple(int(k) + 1 for k in np.argsort(relabel))
        with pytest.raises(ValueError):
            classification_rate([0, 1], [1, 1], K=2)
        with pytest.raises(ValueError):
            classification_rate([1, 1], [1, 3], K=2)

    def test_permutation_reported(self):
        rate, perm = best_label_permutation([1, 1, 2, 2], [2, 2, 1, 1], K=2)
        assert rate == 1.0
        assert perm == (2, 1)


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([1, 1, 2, 3], [1, 1, 2, 3]) == 1.0

    def test_relabeled(self):
        assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_hand_micro_example(self):
        # classic crossing partition: ARI = -0.5
        assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            t = rng.integers(1, 4, size=n)
            e = rng.integers(1, 4, size=n)
            assert adjusted_rand_index(t, e) == pytest.approx(
                ari_pair_counting(t, e), abs=1e-12
            )

    def test_trivial_single_cluster_pair(self):
        assert adjusted_rand_index([1, 1, 1], [2, 2, 2]) == 1.0

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(6)
        t = rng.integers(1, 4, size=1000)
        e = rng.integers(1, 4, size=1000)
        assert abs(adjusted_rand_index(t, e)) < 0.1

    def test_too_short(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1], [1])


def _reference_table(rows, cols, shape):
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


class TestCountTables:
    """The count tables of the classification rate and the ARI are the
    pair counts of an unbuffered ``np.add.at``, integers of the same dtype,
    on random labels, for one class and for classes empty on one side."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(8)
        for K in (2, 3, 5):
            for n in (2, 17, 300):
                yield K, rng.integers(1, K + 1, size=n), rng.integers(1, K + 1, size=n)
        yield 1, np.ones(7, int), np.ones(7, int)
        yield 4, np.array([1, 2, 2, 1, 2]), np.array([3, 4, 4, 4, 3])  # true 3, 4 empty
        yield 3, np.array([1, 2, 3, 3, 1, 2]), np.ones(6, int)  # est 2, 3 empty

    def test_tables_are_the_pair_counts(self, monkeypatch):
        tables = []
        count_table = metrics._count_table

        def recorded(rows, cols, shape):
            tables.append(count_table(rows, cols, shape))
            return tables[-1]

        monkeypatch.setattr(metrics, "_count_table", recorded)
        for K, t, e in self._cases():
            best_label_permutation(t, e, K)
            (counts,) = tables
            expected = _reference_table(e - 1, t - 1, (K, K))
            assert counts.dtype == expected.dtype and np.array_equal(counts, expected)
            tables.clear()
            adjusted_rand_index(t, e)
            (C,) = tables
            ti, ei = (np.unique(x, return_inverse=True)[1] for x in (t, e))
            expected = _reference_table(ti, ei, (ti.max() + 1, ei.max() + 1))
            assert C.dtype == expected.dtype and np.array_equal(C, expected)
            tables.clear()


class TestSensitivitySpecificity:
    def test_exact_recovery_scores_one(self):
        s = default_scenario()
        report = sensitivity_specificity(s.true_params, s.true_params)
        for block in report.blocks:
            assert block.s1 == 1.0
            assert block.s2 == 1.0

    def test_dense_estimate_scores_zero_sensitivity(self):
        rng = np.random.default_rng(7)
        s = default_scenario()
        dense = MoggeParams(
            gating=tuple(
                GatingComponent(alpha=g.alpha, mu=g.mu + rng.uniform(0.01, 0.02, 8),
                                R=g.R)
                for g in s.true_params.gating
            ),
            experts=tuple(
                ExpertComponent(
                    intercept=e.intercept,
                    coeffs=e.coeffs + rng.uniform(0.01, 0.02, (8, 1)),
                    cov=e.cov,
                )
                for e in s.true_params.experts
            ),
        )
        report = sensitivity_specificity(s.true_params, dense)
        for block in report.blocks:
            assert block.s1 == 0.0
            assert block.s2 == 1.0

    def test_matching_by_parameter_distance_handles_swap(self):
        s = default_scenario()
        swapped = s.true_params.permuted([1, 0])
        report = sensitivity_specificity(s.true_params, swapped)
        for block in report.blocks:
            assert block.s1 == 1.0 and block.s2 == 1.0

    def test_parameter_distance_matching_beyond_eight_components(self):
        reference = random_params(np.random.default_rng(9), K=9, p=2)
        order = [4, 0, 7, 2, 8, 1, 6, 3, 5]
        matched = match_components(reference, reference.permuted(order))
        assert matched == np.argsort(order).tolist()

    def test_matching_with_data_uses_label_permutation(self):
        s = default_scenario(seed=21)
        data, labels = sample_dataset(s)
        swapped = s.true_params.permuted([1, 0])
        report = sensitivity_specificity(
            s.true_params, swapped, data=data, true_labels=labels
        )
        for block in report.blocks:
            assert block.s1 == 1.0 and block.s2 == 1.0

    def test_block_counts_consistent(self):
        s = default_scenario()
        report = sensitivity_specificity(s.true_params, s.true_params)
        for block in report.blocks:
            assert block.n_true_zero + block.n_true_nonzero == 8
        expert1 = report.block("expert", 1)
        assert expert1.n_true_zero == 5

    def test_summary_scores_single_gate_for_two_components(self):
        s = default_scenario()
        report = sensitivity_specificity(s.true_params, s.true_params)
        summary = report.summary()
        assert set(summary) == {"expert_1", "expert_2", "gate"}
        assert summary["gate"].component == 1

    def test_summary_scores_every_gate_for_three_components(self):
        params = random_params(np.random.default_rng(4), K=3, p=2)
        report = sensitivity_specificity(params, params)
        summary = report.summary()
        assert list(summary) == ["expert_1", "expert_2", "expert_3",
                                 "gate_1", "gate_2", "gate_3"]
        for name, block in summary.items():
            kind, k = name.split("_")
            assert block is report.block(kind, int(k))

    def test_absent_score_when_no_true_zeros(self):
        g = GatingComponent(alpha=1.0, mu=np.array([1.0, 2.0]), R=np.ones(2))
        e = ExpertComponent(intercept=[0.0], coeffs=[[1.0], [2.0]], cov=[[1.0]])
        params = MoggeParams(gating=(g,), experts=(e,))
        report = sensitivity_specificity(params, params)
        for block in report.blocks:
            assert block.s1 is None
            assert block.s2 == 1.0

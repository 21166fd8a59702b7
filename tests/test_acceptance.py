"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``).  Everything
is seeded and deterministic.
"""

import json
import time

import numpy as np
import pytest

from mogge import dataio
from mogge.cli import main as cli_main
from mogge.em import FitOptions, fit_em, init_params, m_step_experts, m_step_gating
from mogge.em_lasso import (
    PenaltyConfig,
    ca_update_expert_coeffs,
    ca_update_gating_means,
    fit_em_lasso,
)
from mogge.metrics import (
    adjusted_rand_index,
    bayes_labels,
    classification_rate,
    sensitivity_specificity,
)
from mogge.model import Responsibilities, posterior_responsibilities
from mogge.selection import GridSpec, grid_search
from mogge.simulate import default_scenario, replicate_seed, sample_dataset

from _oracles import (
    exact_weighted_lasso_on_active_set,
    kkt_residuals_expert,
    kkt_residuals_gate,
    weighted_lasso_reference,
    weighted_moments,
    wls_ridge_lstsq,
)
from conftest import params_inf_distance, random_params, random_tau, sample_from_params

MASTER_SEED = 20260808
N_REPLICATES = 30


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} ({detail})")


def _separated_instance(rng, n=100, p=3, spread=2.0, gap=2.5):
    while True:
        truth = random_params(rng, K=2, p=p, diagonal=True, spread=spread)
        if np.linalg.norm(truth.gating[0].mu - truth.gating[1].mu) > gap:
            break
    data, labels = sample_from_params(rng, truth, n=n)
    return truth, data, labels


def test_criterion_1_clustering_replication():
    """30 scenario replicates, EM with 10 starts: mean classification rate
    in [95.5%, 99%] and mean ARI in [83%, 95%], in under 5 minutes."""
    t0 = time.time()
    rates, aris = [], []
    for r in range(N_REPLICATES):
        scenario = default_scenario(n=300, seed=replicate_seed(MASTER_SEED, r))
        data, labels = sample_dataset(scenario)
        fit = fit_em(data, K=2, opts=FitOptions(n_starts=10, seed=r))
        est = bayes_labels(data, fit.params)
        rates.append(classification_rate(labels, est, K=2))
        aris.append(adjusted_rand_index(labels, est))
    elapsed = time.time() - t0
    mean_rate, mean_ari = float(np.mean(rates)), float(np.mean(aris))
    ok = 0.955 <= mean_rate <= 0.99 and 0.83 <= mean_ari <= 0.95 and elapsed < 300
    _report(1, ok, f"rate {mean_rate:.4f}, ARI {mean_ari:.4f}, {elapsed:.0f}s")
    assert 0.955 <= mean_rate <= 0.99
    assert 0.83 <= mean_ari <= 0.95
    assert elapsed < 300


def test_criterion_2_sparsity_replication():
    """30 replicates, EM-Lasso + BIC over the coarsened grid
    {0,5,10,15,20,25}^2: mean S1 within 0.12 of 0.790/0.785/0.779 per
    block, mean S2 >= 0.95; plain EM scores S1=0 and S2=1 exactly.
    Under 30 minutes."""
    t0 = time.time()
    grid = GridSpec(
        Ks=(2,),
        lambdas=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
        gammas=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
    )
    targets = {"expert_1": 0.790, "expert_2": 0.785, "gate": 0.779}
    s1 = {name: [] for name in targets}
    s2 = {name: [] for name in targets}
    em_dense_exact = True
    for r in range(N_REPLICATES):
        scenario = default_scenario(n=300, seed=replicate_seed(MASTER_SEED, r))
        data, labels = sample_dataset(scenario)

        table = grid_search(data, grid, opts=FitOptions(n_starts=5, seed=r))
        report = sensitivity_specificity(
            scenario.true_params, table.best_fit.params,
            data=data, true_labels=labels,
        )
        for name, block in report.summary().items():
            s1[name].append(block.s1)
            s2[name].append(block.s2)

        em_fit_result = fit_em(data, K=2, opts=FitOptions(n_starts=10, seed=r))
        em_report = sensitivity_specificity(
            scenario.true_params, em_fit_result.params,
            data=data, true_labels=labels,
        )
        for block in em_report.summary().values():
            if block.s1 != 0.0 or block.s2 != 1.0:
                em_dense_exact = False
    elapsed = time.time() - t0
    means1 = {name: float(np.mean(vals)) for name, vals in s1.items()}
    means2 = {name: float(np.mean(vals)) for name, vals in s2.items()}
    in_band = all(abs(means1[n] - targets[n]) <= 0.12 for n in targets)
    spec_ok = all(means2[n] >= 0.95 for n in targets)
    ok = in_band and spec_ok and em_dense_exact and elapsed < 1800
    _report(
        2, ok,
        "S1 " + "/".join(f"{means1[n]:.3f}" for n in targets)
        + " vs 0.790/0.785/0.779, S2 "
        + "/".join(f"{means2[n]:.3f}" for n in targets)
        + f", EM exact {em_dense_exact}, {elapsed:.0f}s",
    )
    for name, target in targets.items():
        assert abs(means1[name] - target) <= 0.12
        assert means2[name] >= 0.95
    assert em_dense_exact
    assert elapsed < 1800


def test_criterion_3_monotonicity():
    """50 random small datasets (n=60, p=4, K=2): EM and EM-Lasso
    objective traces non-decreasing to -1e-8 per step, zero violations."""
    rng = np.random.default_rng(MASTER_SEED + 3)
    violations = 0
    checked = 0
    for i in range(50):
        truth, data, _ = _separated_instance(rng, n=60, p=4)
        em_res = fit_em(
            data, K=2, opts=FitOptions(n_starts=2, seed=i)
        )
        lam, gamma = rng.uniform(0.2, 3.0, size=2)
        lasso_res = fit_em_lasso(
            data, K=2, penalty=PenaltyConfig(lam=lam, gamma=gamma),
            opts=FitOptions(n_starts=2, seed=i),
        )
        for trace in (em_res.loglik_trace, lasso_res.loglik_trace):
            checked += len(trace) - 1
            violations += int(np.sum(np.diff(trace) < -1e-8))
    ok = violations == 0
    _report(3, ok, f"{violations} violations over {checked} steps")
    assert violations == 0


def test_criterion_4_zero_penalty_equivalence():
    """fit_em_lasso(0, 0) vs fit_em with diagonal gating from identical
    starts: objectives within 1e-6 relative, parameters within 1e-5
    max-norm (after component relabeling), on 20 instances."""
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst_obj, worst_par = 0.0, 0.0
    for i in range(20):
        _, data, _ = _separated_instance(rng, n=100, p=3, spread=1.2, gap=3.2)
        opts = FitOptions(n_starts=2, seed=i, tol=1e-14, max_iter=20000)
        a = fit_em(data, K=2, opts=opts, diagonal_gating=True)
        b = fit_em_lasso(
            data, K=2,
            penalty=PenaltyConfig(lam=0.0, gamma=0.0),
            opts=opts,
        )
        rel = abs(a.objective - b.objective) / abs(a.objective)
        dist = min(
            params_inf_distance(a.params, b.params.permuted(order))
            for order in ([0, 1], [1, 0])
        )
        worst_obj = max(worst_obj, rel)
        worst_par = max(worst_par, dist)
    ok = worst_obj < 1e-6 and worst_par < 1e-5
    _report(4, ok, f"max objective rel {worst_obj:.2e}, max param diff {worst_par:.2e}")
    assert worst_obj < 1e-6
    assert worst_par < 1e-5


def test_criterion_5_kkt_certification():
    """At EM-Lasso convergence on 20 instances, every coordinate of every
    beta_k and mu_k satisfies its subgradient condition within 1e-6.

    The converged state defines one last M-step subproblem per block; the
    gating-mean solutions are checked directly, and the expert solutions,
    of the lasso with a free unpenalized intercept, are checked both
    against the subgradient conditions of the exact active-set solve and
    for closeness to it.
    """
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst = 0.0
    worst_ca_gap = 0.0
    for i in range(20):
        _, data, _ = _separated_instance(rng, n=80, p=3)
        lam, gamma = rng.uniform(0.5, 3.0, size=2)
        fit = fit_em_lasso(
            data, K=2,
            penalty=PenaltyConfig(lam=lam, gamma=gamma),
            opts=FitOptions(n_starts=2, seed=i, tol=1e-10, max_iter=5000),
        )
        tau = posterior_responsibilities(data, fit.params)
        mus = ca_update_gating_means(
            data, tau, fit.params.gating, gamma
        )
        for k, g in enumerate(fit.params.gating):
            res = kkt_residuals_gate(data.X, tau.tau[:, k], mus[k], g.R, gamma)
            worst = max(worst, float(np.max(res)))
        for k, e in enumerate(fit.params.experts):
            w = tau.tau[:, k]
            beta = ca_update_expert_coeffs(data, w, e, lam)
            exact = exact_weighted_lasso_on_active_set(
                data.X, data.y1, w, e.variance, lam, beta
            )
            assert exact is not None  # sign pattern is stable
            worst_ca_gap = max(worst_ca_gap, float(np.max(np.abs(beta - exact))))
            res = kkt_residuals_expert(data.X, data.y1, w, exact, e.variance, lam)
            worst = max(worst, float(np.max(res)))
    ok = worst < 1e-6 and worst_ca_gap < 1e-6
    _report(
        5, ok,
        f"max subgradient residual {worst:.2e}, CA vs exact solve {worst_ca_gap:.2e}",
    )
    assert worst < 1e-6
    assert worst_ca_gap < 1e-6


def test_criterion_6_oracle_equivalence():
    """The expert lasso update matches an independent solver of the
    weighted lasso with a free unpenalized intercept within 1e-5 on 20
    instances; closed-form M-steps match weighted-moment
    and WLS oracles within 1e-10 on 20 instances."""
    rng = np.random.default_rng(MASTER_SEED + 6)
    worst_lasso = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 51))
        p = int(rng.integers(2, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        from mogge.model import DataSet, ExpertComponent

        data = DataSet(X=X, Y=y)
        w = rng.uniform(0.05, 1.0, size=n)
        prev = ExpertComponent(
            intercept=[rng.normal()], coeffs=rng.normal(size=(p, 1)),
            cov=[[rng.uniform(0.5, 2.0)]],
        )
        lam = rng.uniform(0.1, 2.0)
        beta = ca_update_expert_coeffs(data, w, prev, lam=lam)
        ref = weighted_lasso_reference(X, y, w, prev.variance, lam)
        worst_lasso = max(worst_lasso, float(np.max(np.abs(beta - ref))))

    worst_mstep = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 20))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=(n, 1))
        from mogge.model import DataSet

        data = DataSet(X=X, Y=y)
        T = random_tau(rng, n, 2)
        tau = Responsibilities(tau=T)
        prev = tuple(random_params(rng, K=2, p=p).experts)
        gates = m_step_gating(data, tau)
        experts = m_step_experts(data, tau, prev)
        for k in range(2):
            wk = T[:, k]
            nk = wk.sum()
            mean, cov = weighted_moments(X, wk)
            worst_mstep = max(
                worst_mstep,
                float(np.max(np.abs(gates[k].mu - mean))),
                float(np.max(np.abs(gates[k].R - (cov + 1e-10 * np.eye(p))))),
            )
            fit = wls_ridge_lstsq(X, wk, y, ridge=1e-8)
            a, B = fit[0], fit[1:]  # the intercept row first
            resid = y[:, 0] - a[0] - X @ B[:, 0]
            s2 = max(float(wk @ resid ** 2 / nk), 1e-10)
            worst_mstep = max(
                worst_mstep,
                float(np.abs(experts[k].intercept[0] - a[0])),
                float(np.max(np.abs(experts[k].coeffs - B))),
                float(np.abs(experts[k].variance - s2)),
            )
    ok = worst_lasso < 1e-5 and worst_mstep < 1e-10
    _report(6, ok, f"lasso vs reference {worst_lasso:.2e}, m-steps vs oracles {worst_mstep:.2e}")
    assert worst_lasso < 1e-5
    assert worst_mstep < 1e-10


def test_criterion_7_metric_correctness():
    """Hand-computed micro-examples match exactly; both metrics are
    invariant under relabeling over 1000 randomized trials."""
    micro_ok = (
        classification_rate([1, 1, 2, 2], [1, 2, 2, 2], K=2) == 0.75
        and classification_rate([1, 1, 2, 2], [2, 2, 1, 1], K=2) == 1.0
        and adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)
        and adjusted_rand_index([1, 1, 2, 3], [1, 1, 2, 3]) == 1.0
    )
    rng = np.random.default_rng(MASTER_SEED + 7)
    invariant = True
    for _ in range(1000):
        K = int(rng.integers(2, 5))
        n = int(rng.integers(4, 30))
        t = rng.integers(1, K + 1, size=n)
        e = rng.integers(1, K + 1, size=n)
        perm_t = rng.permutation(K) + 1
        perm_e = rng.permutation(K) + 1
        t2, e2 = perm_t[t - 1], perm_e[e - 1]
        if classification_rate(t, e, K) != classification_rate(t2, e2, K):
            invariant = False
            break
        if abs(adjusted_rand_index(t, e) - adjusted_rand_index(t2, e2)) > 1e-12:
            invariant = False
            break
    ok = micro_ok and invariant
    _report(7, ok, f"micro-examples {micro_ok}, invariance over 1000 trials {invariant}")
    assert micro_ok
    assert invariant


def test_criterion_8_lasso_path(tmp_path):
    """The path command's penalized blocks are exactly zero at the largest
    penalty and reproduce the unpenalized estimates at penalty zero."""
    scenario = default_scenario(n=300, seed=replicate_seed(MASTER_SEED, 99))
    data, labels = sample_dataset(scenario)
    data_path = tmp_path / "data.csv"
    dataio.write_dataset_csv(data_path, data, labels)
    rc = cli_main([
        "lasso-path", "--data", str(data_path), "--k", "2",
        "--penalties", "0,5,10,15,20,25,400",
        "--n-starts", "5", "--seed", "9", "--tol", "1e-8",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    rows = dataio.read_path_csv(tmp_path / "path.csv")
    penalized = [r for r in rows if r["block"] in ("gate_mean", "expert_coeff")]
    top = [r for r in penalized if r["lambda"] == 400.0]
    zero_at_top = bool(top) and all(r["estimate"] == 0.0 for r in top)
    at_zero = [r for r in penalized if r["lambda"] == 0.0]
    dense_at_zero = bool(at_zero) and all(r["estimate"] != 0.0 for r in at_zero)

    # independent unpenalized fit (cold multi-start, same seed and tol)
    cold = fit_em_lasso(
        data, 2, PenaltyConfig(lam=0.0, gamma=0.0),
        FitOptions(n_starts=5, seed=9, tol=1e-8),
    )
    points = json.loads((tmp_path / "path_params.json").read_text())
    path0 = dataio.params_from_dict(
        [pt for pt in points if pt["lambda"] == 0.0][0]["params"]
    )
    diffs = []
    for order in ([0, 1], [1, 0]):
        pp = path0.permuted(order)
        diffs.append(max(
            max(float(np.max(np.abs(pp.gating[k].mu - cold.params.gating[k].mu)))
                for k in range(2)),
            max(float(np.max(np.abs(pp.experts[k].beta - cold.params.experts[k].beta)))
                for k in range(2)),
        ))
    matched = min(diffs)
    order = [0, 1] if diffs[0] <= diffs[1] else [1, 0]
    same_labels = np.array_equal(
        bayes_labels(data, path0.permuted(order)), bayes_labels(data, cold.params)
    )
    ok = zero_at_top and dense_at_zero and matched < 1e-2 and same_labels
    _report(
        8, ok,
        f"zero at top {zero_at_top}, dense at 0 {dense_at_zero}, "
        f"endpoint diff {matched:.2e}, labels agree {same_labels}",
    )
    assert zero_at_top
    assert dense_at_zero
    assert matched < 1e-2
    assert same_labels

"""Layer micro-timings: eight public layer functions on fixed inputs.

Two sizes: ``small`` is the default scenario (n=300, p=8); ``large`` is
the same scenario padded to p=40 with zeros, n=20000.  Inputs come from
fixed seeds, not the workload seed, so every run times identical work.
The "previous" parameters handed to the M-step functions are a
random-partition initialisation, as in the first EM iteration of a fit.
Each function is called in blocks until a block lasts ``BLOCK_S``; the
result is the median seconds per call over ``BLOCKS`` blocks.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import mogge
import mogge.dataio
from workloads import padded_truth

SIZES = {"small": (300, 8, 10.0), "large": (20000, 40, 80.0)}  # n, p, penalty
DATA_SEED = 20190912
BLOCKS = 3
BLOCK_S = 0.15


def _per_call(fn) -> float:
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= BLOCK_S or calls >= 1 << 16:
            break
        calls *= 2
    blocks = [elapsed / calls]
    for _ in range(BLOCKS - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls)
    return float(np.median(blocks))


def layer_timings(workdir: Path) -> dict[str, float]:
    """``layer.<module>.<fn>.<size>.s_per_call`` for both sizes."""
    out = {}
    for size, (n, p, penalty) in SIZES.items():
        scenario = mogge.Scenario(true_params=padded_truth(p), n=n, seed=DATA_SEED)
        data, labels = mogge.sample_dataset(scenario)
        path = workdir / f"micro_{size}.csv"
        mogge.dataio.write_dataset_csv(path, data, labels)
        truth = scenario.true_params
        prev = mogge.init_params(data, 2, seed=0, diagonal_gating=True)
        tau = mogge.posterior_responsibilities(data, truth)
        w = tau.tau[:, 0]
        gating, experts = truth.gating, truth.experts

        def build():
            return mogge.MoggeParams(
                gating=tuple(mogge.GatingComponent(alpha=g.alpha, mu=g.mu, R=g.R)
                             for g in gating),
                experts=tuple(mogge.ExpertComponent(intercept=e.intercept,
                                                    coeffs=e.coeffs, cov=e.cov)
                              for e in experts),
            )

        cases = {
            "model.posterior_responsibilities":
                lambda: mogge.posterior_responsibilities(data, truth),
            "model.joint_loglik": lambda: mogge.joint_loglik(data, truth),
            "em.m_step_gating": lambda: mogge.m_step_gating(data, tau),
            "em.m_step_experts": lambda: mogge.m_step_experts(data, tau, prev.experts),
            "em_lasso.ca_update_gating_means":
                lambda: mogge.ca_update_gating_means(data, tau, prev.gating, penalty),
            "em_lasso.ca_update_expert_coeffs":
                lambda: mogge.ca_update_expert_coeffs(data, w, prev.experts[0], penalty),
            "model.MoggeParams": build,
            "dataio.read_dataset_csv": lambda: mogge.dataio.read_dataset_csv(path),
        }
        for name, fn in cases.items():
            out[f"layer.{name}.{size}.s_per_call"] = _per_call(fn)
        path.unlink()
    return out

"""The EM loop runs kernels only: input checks stay at the public boundary.

Inside :func:`mogge.em._run_em` no function of ``mogge.__all__`` runs and
no penalty check (``model._check_penalty``): the lasso M-step thresholds
its gating means with the kernel ``em_lasso._soft_threshold``, not the
checked ``soft_threshold``, and 1 x 1 expert densities take their own
branch of ``model._log_gauss_rows``.  Both kernels give the bits of the
paths they replaced, proven by full-bit digests of whole fits."""

import inspect
import sys
from dataclasses import replace

import numpy as np
import pytest

import mogge
from mogge import em, em_lasso, model
from mogge.em import FitOptions, fit_em
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
from mogge.model import LOG_2PI, GatingComponent, MoggeParams, _cholesky, _log_gauss_rows
from mogge.selection import GridSpec, _chain, grid_search
from mogge.simulate import default_scenario, sample_dataset

from _oracles import bit_digest

GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)  # the paper's 6 x 6 penalty grid


def _routed_gating_means(X, T, nk, R_prev, gamma):
    """The gating means through the checked public ``soft_threshold``, the
    path the lasso M-step took before it called the kernel."""
    return em_lasso.soft_threshold(T @ X, gamma * R_prev) / nk[..., None]


def _guard(monkeypatch) -> tuple[list, list]:
    """Wrap every function of ``mogge.__all__`` and ``_check_penalty``,
    wherever a mogge module holds them, and ``em._run_em``; returns the
    list of names called while a run iterates and the list of runs."""
    calls, runs, depth = [], [], [0]
    watched = {getattr(mogge, name): name for name in mogge.__all__
               if inspect.isfunction(getattr(mogge, name))}
    watched[model._check_penalty] = "_check_penalty"

    def wrap(f, name):
        def wrapper(*args, **kwargs):
            if depth[0]:
                calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "mogge"]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in watched:
                monkeypatch.setattr(module, attr, wrap(value, watched[value]))
    real_run = em._run_em

    def run_em(*args, **kwargs):
        runs.append(1)
        depth[0] += 1
        try:
            return real_run(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(em, "_run_em", run_em)
    return calls, runs


def _every_fitter(data):
    """``fit_em`` (full, diagonal), ``fit_em_lasso`` cold and warm, a grid
    search and a refitting penalty chain on ``data``."""
    opts = FitOptions(n_starts=3, seed=1)
    fit_em(data, 2, opts)
    fit_em(data, 2, opts, diagonal_gating=True)
    cold = fit_em_lasso(data, 2, PenaltyConfig(lam=5.0, gamma=3.0), opts)
    fit_em_lasso(data, 2, PenaltyConfig(lam=2.0, gamma=1.0), opts, warm_start=cold.params)
    grid_search(data, GridSpec(Ks=(2,), lambdas=(0.0, 10.0), gammas=(0.0, 10.0)), opts)
    list(_chain(data, 2, [(10.0, 10.0), (0.0, 0.0)], opts, warm=True, refit=True))


@pytest.fixture(scope="module")
def data():
    return sample_dataset(default_scenario(n=120, seed=3))[0]


class TestOnlyKernelsInTheLoop:
    def test_no_public_function_or_penalty_check_inside_a_run(self, monkeypatch, data):
        calls, runs = _guard(monkeypatch)
        _every_fitter(data)
        assert len(runs) >= 6
        assert calls == []

    def test_the_guard_sees_the_public_soft_threshold(self, monkeypatch, data):
        # the lasso M-step as it was: one soft_threshold call, and its
        # check, per M-step
        calls, runs = _guard(monkeypatch)
        monkeypatch.setattr(em_lasso, "_gating_means", _routed_gating_means)
        fit = fit_em_lasso(data, 2, PenaltyConfig(lam=5.0, gamma=3.0), FitOptions(n_starts=1))
        assert calls == ["soft_threshold", "_check_penalty"] * fit.n_iter


@pytest.fixture(scope="module")
def inputs():
    """Three default-scenario inputs at the benchmark's size."""
    return [sample_dataset(default_scenario(n=300, seed=seed))[0] for seed in (11, 12, 13)]


def _lasso_outcomes(datasets) -> list:
    """Per input the 6 x 6 grid search (5 starts), and ``fit_em_lasso``
    cold and warm-started from the cold fit."""
    out = []
    for i, data in enumerate(datasets):
        opts = FitOptions(n_starts=5, seed=i)
        out.append(grid_search(data, GridSpec(Ks=(2,), lambdas=GRID, gammas=GRID), opts))
        cold = fit_em_lasso(data, 2, PenaltyConfig(lam=5.0, gamma=3.0), opts)
        out += [cold, fit_em_lasso(data, 2, PenaltyConfig(lam=2.0, gamma=1.0), opts,
                                   warm_start=cold.params)]
    return out


class TestSameBits:
    def test_the_kernel_gives_the_bits_of_the_public_soft_threshold(self, monkeypatch,
                                                                     inputs):
        kernel = bit_digest(*_lasso_outcomes(inputs))
        routed = []
        monkeypatch.setattr(em_lasso, "_gating_means",
                            lambda *args: routed.append(1) or _routed_gating_means(*args))
        assert bit_digest(*_lasso_outcomes(inputs)) == kernel
        assert len(routed) > 100

    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 4)])
    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e150])
    def test_one_by_one_densities_give_the_bits_of_the_general_formula(self, lead, scale):
        rng = np.random.default_rng(len(lead) + lead[-1])
        cov = rng.uniform(0.01, 100.0, size=(*lead, 1, 1)) * scale * scale
        diff = rng.normal(size=(*lead, 1, 17)) * scale
        chol = _cholesky(cov)
        # the general branch at m = 1: sums over the length-one axes
        Z = np.multiply(1.0 / chol, diff)
        Z *= Z
        logdet = 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(axis=-1)
        general = -0.5 * ((1 * LOG_2PI + logdet)[..., None] + Z.sum(axis=-2))
        out = np.full_like(diff, np.nan)
        for got in (_log_gauss_rows(diff.copy(), cov, chol),
                    _log_gauss_rows(diff.copy(), cov, chol, out)):
            assert got.shape == (*lead, 17)
            assert got.tobytes() == general.tobytes()

    def test_the_digest_sees_the_last_bit(self, inputs):
        fit = fit_em_lasso(inputs[0], 2, PenaltyConfig(lam=5.0, gamma=3.0),
                           FitOptions(n_starts=2))
        g, *rest = fit.params.gating
        g = GatingComponent(alpha=g.alpha, mu=g.mu, R=np.nextafter(g.R, np.inf))
        moved = replace(fit, params=MoggeParams((g, *rest), fit.params.experts))
        assert bit_digest(fit) == bit_digest(fit) != bit_digest(moved)

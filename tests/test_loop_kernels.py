"""The EM loop runs kernels only: input checks stay at the public boundary.

Inside :func:`mogge.em._run_em` no function of ``mogge.__all__`` runs and
no penalty check (``model._check_penalty``): the lasso M-step thresholds
its gating means with the kernel ``em_lasso._soft_threshold``, not the
checked ``soft_threshold``, which gives the bits of the path it replaced,
proven by full-bit digests of whole fits.  The Gaussian kernels keep one
path for every size: ``model._mahalanobis`` one reduction for full
covariances, 1 x 1 ones included, and ``em._floor_spd`` the eigenvalue
floor for 1 x 1 stacks too, with the bits of the special cases they
replaced, kept as references in ``_oracles``."""

import inspect
import sys
from dataclasses import replace

import numpy as np
import pytest

import mogge
from mogge import em, em_lasso, model
from mogge.em import FitOptions, fit_em
from mogge.em_lasso import PenaltyConfig, fit_em_lasso
from mogge.model import LOG_2PI, GatingComponent, MoggeParams, _cholesky, _mahalanobis
from mogge.selection import GridSpec, _chain, grid_search
from mogge.simulate import default_scenario, sample_dataset

from _oracles import bit_digest, floor_one_by_one, mahalanobis_three_branch

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
        const, Q = _mahalanobis(diff.copy(), cov, chol)
        got = -0.5 * (const[..., None] + Q)
        assert got.shape == (*lead, 17)
        assert got.tobytes() == general.tobytes()
        # and through a buffer for the whitened deviations
        const, Q = _mahalanobis(diff.copy(), cov, chol, np.full_like(diff, np.nan))
        assert (-0.5 * (const[..., None] + Q)).tobytes() == general.tobytes()

    @staticmethod
    def _gaussians(p, lead, n, scale):
        """Deviations (*lead, p, n), full covariances and variances, with
        entries scaled by ``scale`` and the covariances by its square."""
        rng = np.random.default_rng([p, n, len(lead)])
        A = rng.normal(size=(*lead, p, p))
        cov = (A @ np.swapaxes(A, -1, -2) + p * np.eye(p)) * (scale * scale)
        variances = rng.uniform(0.01, 100.0, size=(*lead, p)) * (scale * scale)
        return rng.normal(size=(*lead, p, n)) * scale, cov, variances

    @pytest.mark.parametrize("p", [1, 2, 8, 40])
    @pytest.mark.parametrize("lead, n", [((), 2), ((), 20000), ((3,), 20000), ((10, 2), 300)])
    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e150])
    def test_mahalanobis_gives_the_bits_of_its_three_branches(self, p, lead, n, scale):
        diff, cov, variances = self._gaussians(p, lead, n, scale)
        for cov_, chol in ((cov, _cholesky(cov)), (variances, None)):
            expected = mahalanobis_three_branch(diff.copy(), cov_, chol)
            for out in (None, np.full_like(diff, np.nan)):
                got = model._mahalanobis(diff.copy(), cov_, chol, out)
                assert got[1].shape == (*lead, n)
                for x, y in zip(got, expected, strict=True):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        squared = diff * diff  # the diagonal case given its first pass
        assert all(x.tobytes() == y.tobytes() for x, y in zip(
            model._mahalanobis(squared.copy(), variances, None, None, True),
            mahalanobis_three_branch(squared.copy(), variances, None, None, True)))

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("lead", [(), (3,), (10, 2)])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_one_point_sums_within_the_reordering_bound(self, p, lead, scale):
        # with one column the reduction over m runs along contiguous terms,
        # which einsum adds in another order than numpy's sum did: the two
        # sums of the same p non-negative squares differ by at most
        # (p - 1) eps times the sum; the constants keep their bits
        diff, cov, _ = self._gaussians(p, lead, 1, scale)
        chol = _cholesky(cov)
        const, Q = model._mahalanobis(diff.copy(), cov, chol)
        const_ref, Q_ref = mahalanobis_three_branch(diff.copy(), cov, chol)
        assert const.tobytes() == const_ref.tobytes()
        assert (np.abs(Q - Q_ref) <= (p - 1) * np.finfo(float).eps * Q_ref).all()

    @pytest.mark.parametrize("lead", [(), (3,), (10, 2)])
    def test_one_by_one_floor_gives_the_bits_of_the_closed_form(self, lead):
        rng = np.random.default_rng(len(lead))
        floor = model.VARIANCE_FLOOR
        values = np.concatenate([
            10.0 ** rng.uniform(-300.0, 300.0, 400), -(10.0 ** rng.uniform(-300.0, 300.0, 100)),
            [0.0, -0.0, floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0)]])
        size = int(np.prod(lead))
        for lo in range(0, len(values), size):
            chunk = np.resize(values[lo:lo + size], size)
            S = chunk.reshape(*lead, 1, 1)
            got, expected = em._floor_spd(S), floor_one_by_one(S)
            assert got.shape == S.shape and got.tobytes() == expected.tobytes()

    def test_the_digest_sees_the_last_bit(self, inputs):
        fit = fit_em_lasso(inputs[0], 2, PenaltyConfig(lam=5.0, gamma=3.0),
                           FitOptions(n_starts=2))
        g, *rest = fit.params.gating
        g = GatingComponent(alpha=g.alpha, mu=g.mu, R=np.nextafter(g.R, np.inf))
        moved = replace(fit, params=MoggeParams((g, *rest), fit.params.experts))
        assert bit_digest(fit) == bit_digest(fit) != bit_digest(moved)

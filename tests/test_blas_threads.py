"""Same bytes at any BLAS thread count.

numpy sends a stacked (1, n) @ (n, 1) product to BLAS ``ddot``, and
OpenBLAS splits that sum across threads once n passes about 10,000, so
its bits depend on the thread count.  The fits sum such products by
numpy's own loops instead (``model._dot``): fits at n = 20000, among them
a K = 1 fit and one with three diagonal-gating starts, so that the seeded
starts form every product shape they have, give the same full-bit
digests at one BLAS thread and at two.  Each run is its own
process, because OpenBLAS reads its thread count when it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import numpy as np
from mogge import DataSet, FitOptions, PenaltyConfig, fit_em, fit_em_lasso
from _oracles import bit_digest

rng = np.random.default_rng(20000)
X = rng.normal(size=(20000, 3)) + 3.0 * (rng.random(20000) < 0.5)[:, None]
data = DataSet(X=X, Y=X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=20000))
opts = FitOptions(n_starts=2, seed=1, max_iter=6)
print(bit_digest(fit_em(data, 2, opts)))
print(bit_digest(fit_em_lasso(data, 2, PenaltyConfig(lam=5.0, gamma=2.0), opts)))
# the seeded starts' products at K = 1 (a one-row W) and for three diagonal starts
print(bit_digest(fit_em(data, 1, opts)))
print(bit_digest(fit_em(data, 2, FitOptions(n_starts=3, seed=2, max_iter=6), diagonal_gating=True)))
"""


def _digests(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    path = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_fits_at_n_20000_give_the_same_bytes_at_one_and_two_blas_threads():
    one, two = _digests(1), _digests(2)
    assert len(one) == 4
    assert one == two

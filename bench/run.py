#!/usr/bin/env python3
"""mogge benchmark: one closed-loop client, one process, one op at a time.

Run from the root of a source checkout:

    python3 bench/run.py --workload em_replicates --seed 1 --seconds 30 --trace 0

Workloads (``bench/workloads.py``): ``em_replicates``,
``select_replicates`` and ``lasso_large``.  The seed makes the inputs;
the library sees only the generated inputs.  The package is imported
from ``src/`` of the checkout, never from an installed copy, and the run
fails without a result when ``src/mogge`` is missing.

``--trace 0`` prints the end-to-end metrics; op times are gated in units
of a reference kernel timed around each op (:class:`ReferenceKernel`).
``--trace 1`` alternates untraced and traced ops on the same input,
wraps mogge's public layer functions (``bench/spans.py``) for the traced
ones, and prints the per-layer metrics: per-op call counts and self
times, coordinate-ascent sweeps, set-up layer times, layer micro-timings
(``bench/micro.py``) and the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object.  A full record
(environment, fingerprints, every metric) is written to ``.bench_out/``
in the working directory.  ``bench/README.md`` defines every metric.

BLAS runs single-threaded: on a 2-core machine, OpenBLAS at its default
thread count made an n=300 ``fit_em`` about 40x slower while another
process used the second core, which made the timings unusable.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import mogge, mogge.dataio; "
    "print(time.perf_counter() - t)"
)
# Quality acceptance bands (acceptance criteria 1 and 2), reported only.
BANDS = {
    "ccr_mean": (0.955, 0.99),
    "ari_mean": (0.83, 0.95),
    "zero_spec_mean": (0.95, 1.0),
}
S1_TARGETS = {"expert_1": 0.790, "expert_2": 0.785, "gate": 0.779}
S1_BAND = 0.12
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_import() -> float:
    """Seconds to import mogge in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": BLAS_THREADS,
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import numpy as np

    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """Highest of p75/p90/p95/p99/p99.9 with at least ten ops beyond it."""
    best = None
    for q in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(values) * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            best = (q, percentile(values, q))
    return best


class ReferenceKernel:
    """Fixed numpy work that does not touch mogge, timed around every op.

    On a shared machine the speed of identical work drifts by up to 2x
    over tens of seconds.  Dividing each op's time by the mean of the
    kernel's times just before and just after it cancels most of that
    drift.  On a 2-core machine, over 150 s of one repeated op, the
    spread (IQR over median) of the medians of 40 consecutive
    em_replicates ops was 35% in raw seconds and 3% as a ratio; for 15
    consecutive lasso_large ops it was 16% raw and 3% as a ratio.  The
    kernel mirrors both kinds of work: small-array calls as in the n=300
    fits, and contiguous and column-wise products on an n=20000, p=40
    matrix as in lasso_large's coordinate sweeps.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._xs, self._vs = rng.standard_normal((300, 8)), rng.standard_normal(8)
        self._xl, self._vl = rng.standard_normal((20000, 40)), rng.standard_normal(40)
        self._wl = rng.standard_normal(20000)

    def __call__(self) -> float:
        np, xl = self._np, self._xl
        t0 = time.perf_counter()
        for _ in range(900):
            np.sum(np.exp(-0.5 * (self._xs @ self._vs) ** 2))
        for _ in range(8):
            np.sum((xl @ self._vl) ** 2)
        r = self._wl.copy()
        for j in range(xl.shape[1]):
            r += 1e-9 * (xl[:, j] @ (self._wl * r)) * xl[:, j]
        return time.perf_counter() - t0


def run_setup(wl_cls, seed: int, workdir: Path):
    """Set up ``SETUP_REPEATS`` times; returns the last workload, the
    median set-up seconds and the median per-layer set-up seconds."""
    totals, layers, wl = [], [], None
    for _ in range(SETUP_REPEATS):
        import_s = time_import()
        t0 = time.perf_counter()
        wl = wl_cls(seed)
        wl.setup(workdir)
        totals.append(import_s + time.perf_counter() - t0)
        layers.append(wl.layer_s)
    layer_med = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    return wl, statistics.median(totals), layer_med


def measure(wl, seconds: float, tracer=None):
    """Closed loop over the workload's inputs until ``seconds`` have passed
    (untraced: and every input has run once).  With a tracer, each input
    runs untraced and then traced."""
    n_in = len(wl.inputs)
    ref = ReferenceKernel()
    state = {"attempted": 0, "failed": 0, "problems": [], "first": {},
             "quality": {}, "times": [], "ratios": [], "ref_times": [],
             "traced_times": [], "traced_ratios": []}

    def one(i, traced):
        state["attempted"] += 1
        try:
            ref_before = ref()
            if traced:
                tracer.install()
                try:
                    with tracer.op(state["attempted"]) as span:
                        out = wl.op(i)
                finally:
                    tracer.uninstall()
                dt = span.seconds
            else:
                t0 = time.perf_counter()
                out = wl.op(i)
                dt = time.perf_counter() - t0
            ref_s = 0.5 * (ref_before + ref())
            problems = wl.check(i, out)
            fp = wl.fingerprint(i, out)
        except Exception as exc:  # an op that raises counts as failed
            state["failed"] += 1
            state["problems"].append(f"input {i}: {type(exc).__name__}: {exc}")
            return
        if i in state["first"] and state["first"][i] != fp:
            problems.append("result differs from an earlier op on the same input")
        if problems:
            state["failed"] += 1
            state["problems"].append(f"input {i}: " + "; ".join(problems))
            return
        prefix = "traced_" if traced else ""
        state[prefix + "times"].append(dt)
        state[prefix + "ratios"].append(dt / ref_s)
        if not traced:
            state["ref_times"].append(ref_s)
        if i not in state["first"]:
            state["first"][i] = fp
            state["quality"][i] = wl.quality(i, out)

    t_start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and (tracer is not None or k >= n_in):
            break
        one(k % n_in, traced=False)
        if tracer is not None:
            one(k % n_in, traced=True)
        k += 1
    state["wall_s"] = time.perf_counter() - t_start
    return state


def end_to_end(state, setup_s: float):
    """The gated end-to-end metrics, and report-only figures.

    ``op_ref_p50`` is the median op time in units of the reference
    kernel (see :class:`ReferenceKernel`).  Report-only: ``op_s_p50`` in
    raw seconds, which drifts with the machine's load; ``ref_s_p50``, the
    kernel's own time; ``ops_per_s``, the reciprocal mean op time of the
    one closed-loop client; ``ari_mean``, which swings with the roughly
    one select_replicates replicate in five whose selected fit does not
    separate the components (15% seed-to-seed spread with seeded
    datasets); ``zero_sens_mean``, 0 by construction for plain EM; and
    the tail percentile, which exists only when a run has the ops.
    """
    times = state["times"]
    q = [state["quality"][i] for i in sorted(state["quality"])]

    def mean(key):
        return sum(d[key] for d in q) / len(q)

    m = {
        "setup_s": (setup_s, "s"),
        "op_ref_p50": (statistics.median(state["ratios"]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ccr_mean": (mean("ccr"), "frac"),
        "zero_spec_mean": (mean("s2"), "frac"),
    }
    extra = {
        "op_s_p50": (statistics.median(times), "s"),
        "ref_s_p50": (statistics.median(state["ref_times"]), "s"),
        "ops_per_s": (len(times) / state["wall_s"], "1/s"),
        "ari_mean": (mean("ari"), "frac"),
        "zero_sens_mean": (mean("s1"), "frac"),
        "ops": (len(times), "count"),
        "inputs_scored": (len(q), "count"),
    }
    t = tail(times)
    if t is not None:
        extra[f"op_s_p{t[0]:g}"] = (t[1], "s")
    return m, extra


def per_layer(state, summary, layer_setup, micro) -> dict:
    from spans import SPANNED

    n = summary["n_ops"]
    calls, self_s = summary["calls"], summary["self_s"]
    m = {}
    for mod, fn in SPANNED:
        key = f"{mod}.{fn}"
        m[f"{key}.calls"] = (calls.get(key, 0) / n, "calls/op")
        m[f"{key}.self_s"] = (self_s.get(key, 0.0) / n, "s/op")
    m["em_lasso.soft_threshold.calls"] = (summary["soft_threshold_calls"] / n, "calls/op")
    ca = summary["ca_calls"]
    m["em_lasso.ca_update_expert_coeffs.sweeps_mean"] = (
        summary["ca_sweeps_total"] / ca if ca else 0.0, "sweeps")
    m["em_lasso.ca_update_expert_coeffs.cap_hit_frac"] = (
        summary["ca_cap_hits"] / ca if ca else 0.0, "frac")
    m["em.iters"] = (calls.get("em.m_step_gating", 0) / n, "iters/op")
    m["em_lasso.iters"] = (calls.get("em_lasso.ca_update_gating_means", 0) / n, "iters/op")
    for key, rows in (("cold", summary["cold_rows"]), ("warm", summary["warm_rows"])):
        m[f"selection.{key}_row_s"] = (sum(rows) / len(rows) if rows else 0.0, "s/row")
    for key, value in layer_setup.items():
        m[key] = (value, "s")
    for key, value in micro.items():
        m[key] = (value, "s")
    m["trace.op_s_p50"] = (statistics.median(state["traced_times"]), "s")
    m["trace.overhead_frac"] = (statistics.median(state["traced_ratios"])
                                / statistics.median(state["ratios"]) - 1.0, "frac")
    m["trace.unspanned_s"] = (self_s.get("op", 0.0) / n, "s/op")
    return m


def report_quality(shown, q):
    """Quality means beside the acceptance bands; reported, not gated."""
    for key, (lo, hi) in BANDS.items():
        v = shown[key][0]
        flag = "in" if lo <= v <= hi else "OUT OF"
        print(f"# quality {key} = {v:.4f} ({flag} band [{lo}, {hi}])")
    for name, target in S1_TARGETS.items():
        v = sum(d[f"s1_{name}"] for d in q) / len(q)
        flag = "in" if abs(v - target) <= S1_BAND else "OUT OF"
        print(f"# quality S1 {name} = {v:.4f} ({flag} band {target} +/- {S1_BAND}; "
              "plain EM scores 0 by construction)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mogge" / "__init__.py").is_file():
        print(f"error: no mogge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mogge
    if Path(mogge.__file__).resolve().parent != (SRC / "mogge").resolve():
        print(f"error: imported mogge from {mogge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s, layer_setup = run_setup(WORKLOADS[args.workload], args.seed, work)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(mogge)
        state = measure(wl, args.seconds, tracer)
        micro = {}
        if args.trace:
            from micro import layer_timings
            micro = layer_timings(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in state["problems"]:
        print(f"# FAILED {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "fingerprint": {str(i): {**fp, **state["quality"][i]}
                        for i, fp in sorted(state["first"].items())},
        "problems": state["problems"],
        "failed_frac": state["failed"] / state["attempted"],
        "op_times": state["times"],
        "ref_times": state["ref_times"],
        "traced_op_times": state["traced_times"],
    }
    if args.trace:
        summary = tracer.summary()
        metrics = per_layer(state, summary, layer_setup, micro)
        print(f"# trace: {summary['n_ops']} traced ops; span self times sum to "
              f"{sum(summary['self_s'].values()):.6f} s against op time "
              f"{summary['op_total_s']:.6f} s (unspanned remainder "
              f"{summary['self_s'].get('op', 0.0):.6f} s included)")
        shown = metrics
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    else:
        metrics, extra = end_to_end(state, setup_s)
        shown = {**metrics, **extra}
        record["end_to_end"] = {k: v for k, (v, _) in shown.items()}
    print(f"# {args.workload} failed_frac = {record['failed_frac']:.6g} frac")
    for key, (value, unit) in shown.items():
        print(f"# {args.workload} {key} = {value:.6g} {unit}")
    if not args.trace:
        report_quality(shown, list(state["quality"].values()))

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

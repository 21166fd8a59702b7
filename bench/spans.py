"""In-memory span tracing of mogge's public layer functions.

The tracer replaces each traced function at every module-level name that
refers to it (``mogge.em.posterior_responsibilities``,
``mogge.metrics.posterior_responsibilities``, ``mogge.fit_em`` ...), so
the fitting loops, which look those names up at call time, call the
wrapper.  Nothing in ``src/`` is edited; :meth:`Tracer.uninstall` puts
the original objects back.

Each wrapped call records a span ``[name, start, end, parent, op_id,
nested_soft, info]``.  ``soft_threshold`` is counted, not spanned: it is
called tens of thousands of times per grid search, and a span per call
would dominate what it measures.  Its calls are credited to the
enclosing span (``nested_soft``), which is how coordinate-ascent sweeps
are derived from outside the library: every sweep of
``ca_update_expert_coeffs`` soft-thresholds each of the p coordinates
once (coordinates whose weighted column norm is exactly zero skip the
call; the benchmark data has none), so ``sweeps = nested_soft / p``, and
a call hit the sweep cap when ``sweeps >= ca_max_iter``.  That also
flags a call that converged on exactly its last allowed sweep.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

# (module, function); the span name is "<module>.<function>".
SPANNED = (
    ("model", "posterior_responsibilities"),
    ("model", "joint_loglik"),
    ("model", "penalized_loglik"),
    ("em", "fit_em"),
    ("em", "init_params"),
    ("em", "m_step_gating"),
    ("em", "m_step_experts"),
    ("em_lasso", "fit_em_lasso"),
    ("em_lasso", "ca_update_gating_means"),
    ("em_lasso", "ca_update_expert_coeffs"),
    ("em_lasso", "update_gating_variances"),
    ("em_lasso", "update_expert_intercept_variance"),
    ("selection", "grid_search"),
    ("selection", "count_df"),
    ("metrics", "bayes_labels"),
    ("metrics", "classification_rate"),
    ("metrics", "adjusted_rand_index"),
    ("metrics", "sensitivity_specificity"),
)
COUNTED = (("em_lasso", "soft_threshold"),)

PATCHED_MODULES = ("model", "em", "em_lasso", "selection", "simulate",
                   "metrics", "dataio")

NAME, START, END, PARENT, OP, SOFT, INFO = range(7)

_CA_EXPERT = "em_lasso.ca_update_expert_coeffs"
_FIT_LASSO = "em_lasso.fit_em_lasso"


class Tracer:
    """Installs wrappers, collects spans, and aggregates them per op."""

    def __init__(self, mogge_pkg):
        self._pkg = mogge_pkg
        self._modules = [mogge_pkg] + [
            getattr(mogge_pkg, m) for m in PATCHED_MODULES
            if hasattr(mogge_pkg, m)
        ]
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.soft_calls = 0
        ca = mogge_pkg.em_lasso.ca_update_expert_coeffs
        self._ca_max_iter_default = (
            inspect.signature(ca).parameters["ca_max_iter"].default
        )

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, fn in SPANNED:
            orig = getattr(getattr(self._pkg, mod), fn)
            wrappers[id(orig)] = (orig, self._span_wrapper(f"{mod}.{fn}", orig))
        for mod, fn in COUNTED:
            orig = getattr(getattr(self._pkg, mod), fn)
            wrappers[id(orig)] = (orig, self._count_wrapper(orig))
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        ca_default = self._ca_max_iter_default

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            op = spans[stack[0]][OP] if stack else None
            info = None
            if name == _CA_EXPERT:
                info = (args[0].p, kwargs.get("ca_max_iter", ca_default))
            elif name == _FIT_LASSO:
                info = kwargs.get("warm_start") is not None
            rec = [name, 0.0, 0.0, parent, op, 0, info]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.soft_calls += 1
            if stack:
                spans[stack[-1]][SOFT] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- op boundaries ------------------------------------------------------

    def op(self, op_id):
        """Context manager: a root span ``op`` that all layer spans of one
        operation nest under."""
        return _OpSpan(self, op_id)

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Totals over every recorded op, keyed for the per-layer report.

        Self time of a span is its duration minus the durations of its
        direct children; the op root's self time is the unspanned part of
        the op, so the self times of all spans of an op sum to its
        duration.
        """
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls = Counter()
        self_s = defaultdict(float)
        ops = [i for i, rec in enumerate(self.spans) if rec[NAME] == "op"]
        op_total = sum(self.spans[i][END] - self.spans[i][START] for i in ops)
        sweeps, cap_hits, ca_calls = 0.0, 0, 0
        cold, warm = [], []
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            calls[rec[NAME]] += 1
            self_s[rec[NAME]] += dur - child[i]
            if rec[NAME] == _CA_EXPERT:
                p, cap = rec[INFO]
                s = rec[SOFT] / p
                sweeps += s
                cap_hits += s >= cap
                ca_calls += 1
            elif rec[NAME] == _FIT_LASSO and rec[PARENT] >= 0 \
                    and self.spans[rec[PARENT]][NAME] == "selection.grid_search":
                (warm if rec[INFO] else cold).append(dur)
        return {
            "n_ops": len(ops),
            "op_total_s": op_total,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "soft_threshold_calls": self.soft_calls,
            "ca_sweeps_total": sweeps,
            "ca_cap_hits": cap_hits,
            "ca_calls": ca_calls,
            "cold_rows": cold,
            "warm_rows": warm,
        }


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id):
        self._t = tracer
        self._rec = ["op", 0.0, 0.0, -1, op_id, 0, None]

    def __enter__(self):
        t = self._t
        if t._stack:
            raise RuntimeError("op spans do not nest")
        t.spans.append(self._rec)
        t._stack.append(len(t.spans) - 1)
        self._rec[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._rec[END] = time.perf_counter()
        self._t._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self._rec[END] - self._rec[START]

"""Span tracing of caloron's public functions, installed from outside the package.

Tracer.install() replaces each traced function, in every module or class
that binds it, with a wrapper that records a span [name, start, end,
parent, op] in memory; uninstall() puts the originals back.  The coeff
callable handed to monodromy.transfer is wrapped too: its evaluations are
leaf children of the transfer span, kept there as a count and a total time
rather than as one span each, so memory stays bounded (an op makes ~10^4
of them).
"""

import time

import caloron
from caloron import cli, connection, greens, monodromy, nahm, oracle

# (home, attribute, span name); a function is patched wherever it is bound
TRACED = (
    (monodromy, "transfer", "monodromy.transfer"),
    (monodromy, "interval_transfers_first_order", "monodromy.interval_transfers"),
    (monodromy, "interval_transfers_second_order", "monodromy.interval_transfers"),
    (monodromy, "regularity", "monodromy.regularity"),
    (greens, "boundary_greens", "greens.boundary_greens"),
    (greens, "boundary_sandwich", "greens.boundary_sandwich"),
    (greens.GreensEvaluator, "boundary", "greens.boundary"),
    (greens.GreensEvaluator, "interval_transfers", "greens.interval_transfers"),
    (greens.GreensEvaluator, "loop_solution", "greens.loop_solution"),
    (connection, "gauge_potential", "connection.gauge_potential"),
    (connection, "hermitian_sqrt", "connection.hermitian_sqrt"),
    (connection, "curvature", "connection.curvature"),
    (oracle, "zero_modes", "oracle.zero_modes"),
    (cli, "main", "cli.main"),
    (nahm, "from_dict", "nahm.from_dict"),
)
MODULES = (caloron, cli, connection, greens, monodromy, nahm, oracle)

# span fields
NAME, START, END, PARENT, OP, EVALS, EVAL_S = range(7)


class Tracer:
    """In-memory span recorder; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
        return traced

    def _wrap_transfer(self, fn):
        def traced(coeff, *args, **kwargs):
            span = self._open("monodromy.transfer")

            def counted(s):
                start = time.perf_counter()
                out = coeff(s)
                span[EVAL_S] += time.perf_counter() - start
                span[EVALS] += 1
                return out

            span[START] = time.perf_counter()
            try:
                return fn(counted, *args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        for home, attr, name in TRACED:
            original = getattr(home, attr)
            wrapper = (self._wrap_transfer(original) if name == "monodromy.transfer"
                       else self._wrap(name, original))
            owners = [home] if isinstance(home, type) else [
                m for m in MODULES if getattr(m, attr, None) is original]
            for owner in owners:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, ops):
    """Per-op counts and self times by span name, plus derived ratios.

    Self time is a span's duration minus the time its child spans cover
    (children of one thread nest, so that is the sum of their durations);
    coeff evaluations are the transfer span's leaf children.
    """
    child_s = [0.0] * len(spans)
    fresh = set()     # spans that ran monodromy.interval_transfers below them
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
            if span[NAME] == "monodromy.interval_transfers":
                fresh.add(span[PARENT])
    calls, self_s = {}, {}
    evals = eval_s = 0.0
    misses = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = (self_s.get(name, 0.0) + span[END] - span[START]
                        - child_s[i] - span[EVAL_S])
        evals += span[EVALS]
        eval_s += span[EVAL_S]
        if name == "greens.interval_transfers" and i in fresh:
            misses += 1
    lookups = calls.get("greens.interval_transfers", 0)

    def c(name):
        return calls.get(name, 0) / ops

    def s(name):
        return self_s.get(name, 0.0) / ops

    transfers = calls.get("monodromy.transfer", 0)
    return {
        "monodromy.coeff.evals_per_op": (evals / ops, "count"),
        "monodromy.coeff.self_s_per_op": (eval_s / ops, "s"),
        "monodromy.coeff.evals_per_transfer": (evals / transfers if transfers else 0.0, "count"),
        "monodromy.transfer.calls_per_op": (c("monodromy.transfer"), "count"),
        "monodromy.transfer.self_s_per_op": (s("monodromy.transfer"), "s"),
        "monodromy.interval_transfers.calls_per_op": (c("monodromy.interval_transfers"), "count"),
        "greens.boundary.calls_per_op": (c("greens.boundary"), "count"),
        "greens.boundary.self_s_per_op": (s("greens.boundary"), "s"),
        "greens.interval_transfers.hit_ratio": ((lookups - misses) / lookups if lookups else 0.0, "ratio"),
        "greens.loop_solution.calls_per_op": (c("greens.loop_solution"), "count"),
        "greens.loop_solution.self_s_per_op": (s("greens.loop_solution"), "s"),
        "greens.boundary_sandwich.calls_per_op": (c("greens.boundary_sandwich"), "count"),
        "greens.boundary_sandwich.self_s_per_op": (s("greens.boundary_sandwich"), "s"),
        "connection.gauge_potential.calls_per_op": (c("connection.gauge_potential"), "count"),
        "connection.gauge_potential.self_s_per_op": (s("connection.gauge_potential"), "s"),
        "connection.hermitian_sqrt.calls_per_op": (c("connection.hermitian_sqrt"), "count"),
        "connection.hermitian_sqrt.self_s_per_op": (s("connection.hermitian_sqrt"), "s"),
        "connection.curvature.self_s_per_op": (s("connection.curvature"), "s"),
        "oracle.zero_modes.self_s_per_op": (s("oracle.zero_modes"), "s"),
        "cli.main.self_s_per_op": (s("cli.main"), "s"),
        "nahm.from_dict.calls_per_op": (c("nahm.from_dict"), "count"),
    }

"""One workload process: set-up, then the closed-loop timed phase.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) names the workload, its generated config
file, its inputs and references, the phase length and the mode:

* setup   import caloron, load the config, run one warm-up op, exit
* timed   the same set-up, then ops one after another until the phase ends
* traced  the same set-up, then pairs of the same op untraced and traced

The timer of the set-up starts before `import caloron`.  The result is one
JSON line on stdout.
"""

import contextlib
import io
import json
import resource
import sys
import time

# repeats of a point are moved by this much per repeat, so that no two ops
# share an exact input; A moves by ~1e-9, 1e-5 of its budget
REPEAT_SHIFT = 1e-9


class PointOps:
    """Ops at the seed's points, cycled; repeats shifted by REPEAT_SHIFT."""

    def __init__(self, plan, data):
        import numpy as np
        self.np, self.data = np, data
        self.points = [np.array(t) for t in plan["points"]]
        self.cycle = len(self.points)
        self.budget = plan["budget"]

    def point(self, i):
        p = i % len(self.points)
        return p, self.points[p] + (i // len(self.points)) * REPEAT_SHIFT

    def warm_up(self):
        # index -1: the last point, shifted by -REPEAT_SHIFT
        self.call(-1)


class PotentialOps(PointOps):
    """gauge_potential at the seed's points, checked against classical A."""

    def __init__(self, plan, data):
        super().__init__(plan, data)
        from caloron import connection
        self.connection = connection
        ref = self.np.asarray(plan["reference"], dtype=float)
        self.ref = ref[..., 0] + 1j * ref[..., 1]

    def call(self, i):
        return self.connection.gauge_potential(self.data, self.point(i)[1]).A

    def judge(self, i, A):
        err = float(self.np.max(self.np.abs(A - self.ref[self.point(i)[0]])))
        return err < self.budget, err / self.budget

    @staticmethod
    def fingerprint(A):
        return A.tobytes()


class ZeroModeOps(PointOps):
    """oracle.zero_modes at the same points, checked by the Gram identity."""

    def __init__(self, plan, data):
        super().__init__(plan, data)
        from caloron import oracle
        self.oracle = oracle

    def call(self, i):
        return self.oracle.zero_modes(self.data, self.point(i)[1])

    def judge(self, i, zm):
        return zm.gram_defect < self.budget, zm.gram_defect / self.budget

    @staticmethod
    def fingerprint(zm):
        return zm.gram.tobytes() + zm.chi.tobytes()


class ScanOps:
    """In-process `caloron selfdual-scan --jobs 1` calls, one grid point each."""

    cycle = 1

    def __init__(self, plan, data):
        from caloron import cli
        self.cli = cli
        self.config = plan["config"]
        self.grids = plan["grids"]
        self.budget = plan["budget"]
        self.orientation = None

    def call(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["selfdual-scan", "--config", self.config,
                                  "--grid", self.grids[i % len(self.grids)],
                                  "--jobs", "1"])
        return code, out.getvalue()

    def judge(self, i, result):
        code, text = result
        if code != 0:
            return False, None
        (row,) = json.loads(text)["rows"]
        if row["status"] != "ok":
            return False, None
        if self.orientation is None:
            self.orientation = row["orientation"]
        frac = row["residual"] / self.budget
        return frac < 1.0 and row["orientation"] == self.orientation, frac

    @staticmethod
    def fingerprint(result):
        return result[1].encode()

    def warm_up(self):
        self.call(-1)


OPS = {"potential_const": PotentialOps, "potential_poly": PotentialOps,
       "zero_modes": ZeroModeOps, "scan_selfdual": ScanOps}


def attempt(ops, i, errors):
    """Run op i; returns (latency, output or None, (passed, error / budget)).
    The latency is as measured, with no sampler running."""
    start = time.perf_counter()
    try:
        out = ops.call(i)
    except errors as exc:
        latency = time.perf_counter() - start
        print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return latency, None, (False, None)
    latency = time.perf_counter() - start
    return latency, out, ops.judge(i, out)


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    setup_start = time.perf_counter()
    import caloron
    from caloron import cli, connection, nahm, oracle  # noqa: F401  (part of set-up)
    import hostspeed  # after caloron, which has imported numpy as part of set-up
    sampler = hostspeed.Sampler()
    setup = sampler.mark(at=setup_start)
    sampler.start()
    ops = OPS[plan["workload"]](plan, nahm.load(plan["config"]))
    ops.warm_up()
    setup = sampler.span(setup)
    result = {"setup_s": setup[2]}
    if plan["mode"] == "setup":
        sampler.stop()
        result["setup_ref_s"] = sampler.at_reference(setup)
        print(json.dumps(result))
        return 0

    latencies, verdicts = [], []
    errors = caloron.CaloronError
    seconds = plan["seconds"]
    if plan["mode"] == "timed":
        spans = []
        start = time.perf_counter()
        i = 0
        while True:
            mark = sampler.mark()
            verdicts.append(attempt(ops, i, errors)[2])
            spans.append(sampler.span(mark))
            i += 1
            # whole cycles of points only, so that each weighs the same in
            # the median
            if time.perf_counter() - start >= seconds and i % ops.cycle == 0:
                break
        result["wall_s"] = time.perf_counter() - start
        sampler.stop()
        latencies = [span[2] for span in spans]
        result["setup_ref_s"] = sampler.at_reference(setup)
        result["ref_latencies_s"] = [sampler.at_reference(span) for span in spans]
        result["kernel_s"] = [k for _, k in sampler.samples]
    else:
        # the traced loop runs without the sampler: its handler would land
        # inside the spans
        sampler.stop()
        result["setup_ref_s"] = sampler.at_reference(setup)
        import tracing
        tracer = tracing.Tracer()
        plain_s = traced_s = 0.0
        mismatches = 0
        start = time.perf_counter()
        i = 0
        while True:
            outs, judged_by = {}, {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = i
                    tracer.install()
                    try:
                        latency, out, judged = attempt(ops, i, errors)
                    finally:
                        tracer.uninstall()
                    traced_s += latency
                else:
                    latency, out, judged = attempt(ops, i, errors)
                    plain_s += latency
                outs[traced], judged_by[traced] = out, judged
            if outs[False] is not None and outs[True] is not None and \
                    ops.fingerprint(outs[False]) != ops.fingerprint(outs[True]):
                mismatches += 1
                judged_by[True] = (False, None)
            verdicts.extend([judged_by[False], judged_by[True]])
            i += 1
            if time.perf_counter() - start >= seconds:
                break
        layers = tracing.layer_metrics(tracer.spans, i)
        layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        result["layers"] = layers
        result["trace_mismatches"] = mismatches
        result["traced_ops"] = i
    result["latencies_s"] = latencies
    result["verdicts"] = verdicts
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Benchmark of the Nahm-transform pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md for why each exists): potential_const,
potential_poly, scan_selfdual, zero_modes.  Each is one caller issuing the
next op only after the previous one returned (closed loop), in fresh
interpreters started by this script (worker.py).  With --trace 0 the run
prints the end-to-end metrics, its times scaled to a reference host speed
(hostspeed.py); with --trace 1 the per-layer ones.  The last
line of stdout is the result object; the line before it records the
environment and the sample counts.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("potential_const", "potential_poly", "scan_selfdual", "zero_modes")
SETUPS = 3          # fresh interpreters whose set-up is timed; the last one runs the ops
TAIL_BEYOND = 10    # op_tail_s: highest percentile with this many samples beyond it

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
RUN_PID = os.getpid()

# all matrices are at most 8 x 8: BLAS threads would only add noise
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build_plan(args, work):
    """Generate the workload's inputs and config; returns the worker plan."""
    import inputs  # imports numpy: only after THREAD_ENV is set

    def write(name, cfg):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    plan = {"workload": args.workload, "src": SRC, "seconds": args.seconds}
    if args.workload == "scan_selfdual":
        cfg, grids = inputs.scan_inputs(args.seed)
        plan.update(config=write("reference.json", cfg), grids=grids,
                    budget=inputs.RESIDUAL_BUDGET)
        return plan
    cfg, points, poly = inputs.potential_inputs(args.seed)
    plan["points"] = points
    if args.workload == "zero_modes":
        plan.update(config=write("const.json", cfg), budget=inputs.GRAM_BUDGET)
        return plan
    ref = inputs.reference_potentials(args.seed, cfg, points, die_with_parent)
    plan["reference"] = inputs.to_pairs(ref)
    plan["budget"] = inputs.A_BUDGET
    plan["config"] = (write("poly.json", poly) if args.workload == "potential_poly"
                      else write("const.json", cfg))
    return plan


def die_with_parent(parent=RUN_PID):
    """preexec_fn of every child: the kernel kills the child if run.py dies
    first, so no child outlives the run even when run.py is killed with
    SIGKILL; a child whose parent is already gone exits at once."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


def run_worker(plan, work, mode, timeout):
    path = os.path.join(work, f"plan-{mode}.json")
    with open(path, "w") as fh:
        json.dump(dict(plan, mode=mode), fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path],
                          stdout=subprocess.PIPE, text=True, timeout=timeout,
                          preexec_fn=die_with_parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, floored at the median: with 2 * TAIL_BEYOND samples or fewer
    no percentile above p50 has that many beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"], "seed": seed}


def _terminate(signum, frame):
    # unwinds through subprocess.run and the finally blocks, which kill and
    # wait for every child before the work directory is removed
    raise SystemExit(128 + signum)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "caloron", "__init__.py")):
        print(f"error: no caloron package under {SRC}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _terminate)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    work = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        plan = build_plan(args, work)
        budget = args.seconds + 90.0
        if args.trace:
            timed = run_worker(plan, work, "traced", budget)
            setups = [timed]
        else:
            setups = [run_worker(plan, work, "setup", 60.0) for _ in range(SETUPS - 1)]
            timed = run_worker(plan, work, "timed", budget)
            setups.append(timed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = timed["verdicts"]
    attempted = len(verdicts)
    failed = sum(1 for ok, _ in verdicts if not ok)
    fracs = [frac for _, frac in verdicts if frac is not None]
    err_frac = max(fracs) if fracs else 0.0
    info = {"workload": args.workload, "environment": environment(args.seed),
            "seconds": args.seconds,
            "setup_samples_s": [w["setup_s"] for w in setups],
            "setup_samples_ref_s": [w["setup_ref_s"] for w in setups],
            "fail_ratio": failed / attempted, "err_budget_frac": err_frac}
    if args.trace:
        metrics = {name: metric(v, u) for name, (v, u) in timed["layers"].items()}
        metrics["fail_ratio"] = metric(failed / attempted, "ratio")
        metrics["err_budget_frac"] = metric(err_frac, "ratio")
        info.update(traced_ops=timed["traced_ops"],
                    trace_mismatches=timed["trace_mismatches"])
        correct = failed == 0 and timed["trace_mismatches"] == 0
    else:
        # every time metric is at the reference host speed (hostspeed.py);
        # the info line keeps the times as measured beside them
        latencies = timed["ref_latencies_s"]
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": metric(statistics.median(info["setup_samples_ref_s"]), "s"),
            "ops_per_s": metric((attempted - failed) / sum(latencies), "1/s"),
            "op_p50_s": metric(statistics.median(latencies), "s"),
            "op_tail_s": metric(tail_s, "s"),
            "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
        }
        kernel = timed["kernel_s"]
        info.update(op_samples=len(latencies), op_tail_percentile=tail_pct,
                    wall_s=timed["wall_s"],
                    measured={"op_p50_s": statistics.median(timed["latencies_s"]),
                              "ops_per_s": (attempted - failed) / timed["wall_s"],
                              "setup_s": statistics.median(info["setup_samples_s"])},
                    host_kernel_s={"samples": len(kernel),
                                   "min": min(kernel), "median": statistics.median(kernel),
                                   "max": max(kernel)},
                    latencies_s=timed["latencies_s"], ref_latencies_s=latencies)
        correct = failed == 0
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Commands operate on a JSON config file holding the Nahm data:

* ``validate``       schema and consistency checks (``--strict`` adds the
                     Nahm-equation and matching-condition residuals)
* ``regularity``     spectral gaps of the first-order monodromies at t
* ``connection``     gauge potential A_mu at a point t
* ``selfdual-scan``  curvature self-duality residual over a t-grid
* ``oracle-compare`` boundary Green's blocks vs the dense-grid oracle

Data goes to stdout (or ``--output``); diagnostics go to stderr.  Exit
codes: 0 success, 1 parse/usage failure, 2 strict validation failure,
3 integrator failure, 4 irregular point.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from . import connection, greens, monodromy, nahm, oracle
from .errors import (CaloronError, ConfigError, IntegrationError,
                     IrregularPointError, PositivityError)

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRICT = 2
EXIT_INTEGRATOR = 3
EXIT_IRREGULAR = 4

_STRICT_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors (not 2).

    Long options must be spelled out: with abbreviations, the removed
    `--h` would silently read as `--help`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(values, what):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what}: expected finite reals")
    return values


def _parse_t(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four comma-separated reals")
    return _finite([float(p) for p in parts], "t")


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_real(text):
    try:
        if 0.0 < float(text) < np.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive finite real, got {text!r}")


def _parse_grid(text):
    """Grid string 'axis=start:stop:count,...' -> four value arrays.

    Axes are t0..t3; an axis may also be fixed as 'axis=value'; axes not
    mentioned default to the single value 0, and an axis given twice is an
    error.
    """
    names = [f"t{i}" for i in range(4)]
    axes = {}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise ValueError(f"bad grid component {item!r}")
            name, _, rng = item.partition("=")
            name = name.strip()
            if name not in names:
                raise ValueError(f"unknown grid axis {name!r}")
            if name in axes:
                raise ValueError(f"grid axis {name} given more than once")
            fields = rng.split(":")
            if len(fields) == 1:
                values = [float(fields[0])]
            elif len(fields) == 3:
                start, stop, count = float(fields[0]), float(fields[1]), int(fields[2])
                if count < 1:
                    raise ValueError(f"grid axis {name}: count must be >= 1")
                with np.errstate(over="ignore", invalid="ignore"):
                    values = np.linspace(start, stop, count)
            else:
                raise ValueError(f"bad grid component {item!r}")
            axes[name] = _finite(values, f"grid axis {name}")
    return [axes.get(name, np.array([0.0])) for name in names]


def _check_output(path):
    """Fail before any work if --output cannot be written; leave no new file."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write --output: {exc}") from None
    if not existed:
        os.remove(path)


def _emit(args, text):
    if getattr(args, "output", None):
        try:
            fh = open(args.output, "w")
        except OSError as exc:
            raise ValueError(f"cannot write --output: {exc}") from None
        with fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_validate(args):
    data = nahm.load(args.config)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "valid": True,
        "k": data.k,
        "n": data.n,
        "N": data.total_width,
        "description": data.description,
    }
    if args.strict:
        worst_nahm = 0.0
        for i in range(data.n):
            for u in np.linspace(-0.9, 0.9, 9):
                worst_nahm = max(worst_nahm, float(np.max(np.abs(
                    nahm.interval_residual(data, i, u)))))
        worst_match = 0.0
        for alpha in range(data.n):
            worst_match = max(worst_match, float(np.max(np.abs(
                nahm.matching_residual(data, alpha)))))
        doc["nahm_residual"] = worst_nahm
        doc["matching_residual"] = worst_match
        if worst_nahm > _STRICT_TOL or worst_match > _STRICT_TOL:
            doc["valid"] = False
            _emit(args, json.dumps(doc, indent=2))
            print(f"strict validation failed: nahm residual {worst_nahm:.3e}, "
                  f"matching residual {worst_match:.3e}", file=sys.stderr)
            return EXIT_STRICT
    _emit(args, json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_regularity(args):
    data = nahm.load(args.config)
    t = _parse_t(args.t)
    rep = monodromy.regularity(data, t, tol=args.ode_tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "t": [float(x) for x in t],
        "gap_ddag": rep.gap_ddag,
        "gap_d": rep.gap_d,
        "is_regular": rep.is_regular,
        "threshold": rep.threshold,
    }
    _emit(args, json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_connection(args):
    data = nahm.load(args.config)
    t = _parse_t(args.t)
    pot = connection.gauge_potential(data, t, tol=args.ode_tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "t": [float(x) for x in t],
        "ode_tol": args.ode_tol,
        "A": nahm.to_pairs(pot.A),
        "chi_min_eigenvalue": pot.chi_min_eigenvalue,
        "antihermiticity_defect": pot.antiherm_defect,
    }
    _emit(args, json.dumps(doc, indent=2))
    return EXIT_OK


def _scan_row_full(payload):
    """Worker: residual, orientation and action density at one grid point;
    payload is (NahmData, point, ODE tolerance)."""
    data, tvals, tol = payload
    t = np.array(tvals)
    row = {"t0": tvals[0], "t1": tvals[1], "t2": tvals[2], "t3": tvals[3]}
    try:
        curv = connection.curvature(data, t, tol=tol)
        rep = connection.selfdual_residual(data, t, curv=curv)
        row.update(residual=rep.residual, orientation=rep.orientation,
                   action_density=curv.action_density(), status="ok")
    except (IrregularPointError, PositivityError):
        row.update(residual=None, orientation=None, action_density=None,
                   status="irregular")
    except IntegrationError:
        row.update(residual=None, orientation=None, action_density=None,
                   status="integrator_failure")
    return row


def cmd_selfdual_scan(args):
    data = nahm.load(args.config)
    axes = _parse_grid(args.grid)
    points = [(float(a), float(b), float(c), float(d))
              for a in axes[0] for b in axes[1] for c in axes[2] for d in axes[3]]
    payloads = [(data, p, args.ode_tol) for p in points]
    # the pool starts all its workers at once: no more than there are rows
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_row_full, payloads))
    else:
        rows = [_scan_row_full(p) for p in payloads]
    if args.format == "csv":
        buf = io.StringIO()
        fields = ["t0", "t1", "t2", "t3", "residual", "orientation",
                  "action_density", "status"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("residual", "action_density"):
                if out[key] is not None:
                    out[key] = repr(out[key])
            writer.writerow(out)
        _emit(args, buf.getvalue())
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "ode_tol": args.ode_tol,
            "rows": rows,
        }
        _emit(args, json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_oracle_compare(args):
    data = nahm.load(args.config)
    t = _parse_t(args.t)
    bg = greens.boundary_greens(data, t, tol=args.ode_tol)
    dense = oracle.dense_greens(data, t, args.N)
    f_diff = float(np.max(np.abs(bg.F - dense.F)))
    gp = connection.gauge_potential(data, t, tol=args.ode_tol)
    classical = oracle.classical_gauge_potential(data, t, tol=args.ode_tol)
    a_diff = float(max(np.max(np.abs(gp.A[mu] - classical.A[mu]))
                       for mu in range(4)))
    modes = oracle.zero_modes(data, t, tol=args.ode_tol)
    checks = {
        "greens_vs_dense": f_diff,
        "compact_vs_classical": a_diff,
        "gram_defect": float(modes.gram_defect),
    }
    passed = all(v <= args.compare_tol for v in checks.values())
    doc = {
        "schema_version": SCHEMA_VERSION,
        "t": [float(x) for x in t],
        "N": args.N,
        "tolerance": args.compare_tol,
        "checks": checks,
        "passed": passed,
    }
    _emit(args, json.dumps(doc, indent=2))
    return EXIT_OK if passed else EXIT_STRICT


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: main parses every
    command line with it."""
    p = _Parser(prog="caloron",
                description="Nahm data to caloron gauge fields")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, t=False):
        sp.add_argument("--config", required=True, help="JSON config file")
        if t:
            sp.add_argument("--t", required=True,
                            help="evaluation point 't0,t1,t2,t3'")
        sp.add_argument("--ode-tol", type=_positive_real, default=1e-10,
                        help="DOP853 tolerance on degree>0 intervals (default 1e-10)")
        sp.add_argument("--output", help="write data here instead of stdout")

    sp = sub.add_parser("validate", help="check a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--strict", action="store_true",
                    help="also check Nahm and matching residuals (1e-8)")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("regularity", help="monodromy gaps at a point t")
    common(sp, t=True)
    sp.set_defaults(func=cmd_regularity)

    sp = sub.add_parser("connection", help="gauge potential at a point t")
    common(sp, t=True)
    sp.set_defaults(func=cmd_connection)

    sp = sub.add_parser("selfdual-scan",
                        help="self-duality residual over a t-grid")
    common(sp)
    sp.add_argument("--grid", required=True,
                    help="'t0=a:b:n,t1=...,...'; fixed axes as 't2=v'")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="parallel workers (default 1)")
    sp.set_defaults(func=cmd_selfdual_scan)

    sp = sub.add_parser("oracle-compare",
                        help="monodromy vs dense-grid boundary blocks")
    common(sp, t=True)
    sp.add_argument("--N", type=_positive_int, required=True,
                    help="dense grid size (marked points must be nodes)")
    sp.add_argument("--compare-tol", type=_positive_real, default=1e-3,
                    help="pass/fail threshold for the checks (default 1e-3);"
                         " exit code 2 when exceeded")
    sp.set_defaults(func=cmd_oracle_compare)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if getattr(args, "output", None):
            _check_output(args.output)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IrregularPointError as exc:
        print(f"irregular point: {exc}", file=sys.stderr)
        return EXIT_IRREGULAR
    except PositivityError as exc:
        print(f"positivity failure: {exc}", file=sys.stderr)
        return EXIT_IRREGULAR
    except IntegrationError as exc:
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except CaloronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())

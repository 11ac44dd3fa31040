"""Exit codes, output schemas and determinism of the command line tool."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from caloron import cli, monodromy, nahm, oracle

from conftest import degree1_config


@pytest.fixture(scope="module")
def ref_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "reference.json"
    p.write_text(json.dumps(nahm.to_dict(oracle.su2_reference_data())))
    return str(p)


@pytest.fixture(scope="module")
def ref_config_degree1(tmp_path_factory):
    """The reference data as degree-1 intervals (conftest.degree1_config):
    the same field, but its transfers take the adaptive path."""
    p = tmp_path_factory.mktemp("cfg") / "reference_degree1.json"
    p.write_text(json.dumps(degree1_config(oracle.su2_reference_data())))
    return str(p)


@pytest.fixture(scope="module")
def free_config_path():
    return str(Path(__file__).resolve().parents[1] / "configs" / "free_field.json")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# ----------------------------------------------------------------- validate

def test_validate_ok(ref_config, capsys):
    rc, out = run(capsys, "validate", "--config", ref_config)
    assert rc == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["k"] == 1 and doc["n"] == 2 and doc["N"] == 2
    assert doc["schema_version"] == "2"


def test_validate_strict_ok(ref_config, capsys):
    rc, out = run(capsys, "validate", "--config", ref_config, "--strict")
    assert rc == 0
    doc = json.loads(out)
    assert doc["nahm_residual"] < 1e-12
    assert doc["matching_residual"] < 1e-12


def test_validate_strict_catches_off_shell(ref_config, tmp_path, capsys):
    cfg = json.loads(Path(ref_config).read_text())
    cfg["intervals"][0]["T"]["2"][0][0][0][0] += 0.03
    p = tmp_path / "off.json"
    p.write_text(json.dumps(cfg))
    rc, out = run(capsys, "validate", "--config", str(p))
    assert rc == 0  # schema is fine
    rc, out = run(capsys, "validate", "--config", str(p), "--strict")
    assert rc == 2
    assert json.loads(out)["valid"] is False


def test_validate_strict_near_coincident_marked_points(ref_config, tmp_path, capsys):
    # the residuals are sampled in each interval's own coordinate, so a
    # 1e-11-wide interval gets a verdict instead of a marked-point error
    cfg = json.loads(Path(ref_config).read_text())
    cfg["lambdas"] = [np.pi / 2, np.pi / 2 + 1e-11]
    p = tmp_path / "close.json"
    p.write_text(json.dumps(cfg))
    rc, out = run(capsys, "validate", "--config", str(p))
    assert rc == 0 and json.loads(out)["valid"] is True
    rc, out = run(capsys, "validate", "--config", str(p), "--strict")
    assert rc in (0, 2)
    assert "nahm_residual" in json.loads(out)


def test_validate_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    rc, _ = run(capsys, "validate", "--config", str(p))
    assert rc == 1


@pytest.mark.parametrize("key,value", [("degree", 10 ** 12), ("k", 10 ** 6)])
def test_validate_huge_declared_size_is_a_config_error(ref_config, tmp_path, capsys,
                                                       key, value):
    cfg = json.loads(Path(ref_config).read_text())
    (cfg["intervals"][0] if key == "degree" else cfg)[key] = value
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(cfg))
    rc = cli.main(["validate", "--config", str(p)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_file(capsys):
    rc, _ = run(capsys, "validate", "--config", "/nonexistent/x.json")
    assert rc == 1


def test_usage_errors(ref_config, capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["regularity", "--config", ref_config, "--t", "1,2"]) == 1
    assert cli.main(["regularity", "--config", ref_config]) == 1


def test_parser_is_built_once(ref_config, capsys, monkeypatch):
    # one parser serves every in-process call, with the codes and outputs
    # of a parser built afresh per call
    t = "0.25,0.15,-0.2,0.3"
    calls = [["regularity", "--config", ref_config, "--t", t],
             ["connection", "--config", ref_config, "--t", t],
             ["regularity", "--config", ref_config],
             ["selfdual-scan", "--config", ref_config,
              "--grid", "t0=0.25,t1=0.15,t2=-0.2,t3=0.3"]]

    def results():
        out = []
        for argv in calls:
            rc = cli.main(argv)
            captured = capsys.readouterr()
            out.append((rc, captured.out, captured.err))
        return out

    cli.build_parser.cache_clear()
    cached = results()
    assert cli.build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in cached] == [0, 0, 1, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert results() == cached


# --------------------------------------------------------------- regularity

def test_regularity_regular_point(ref_config, capsys):
    rc, out = run(capsys, "regularity", "--config", ref_config,
                  "--t", "0.25,0.15,-0.2,0.3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["is_regular"] is True
    assert doc["gap_ddag"] > 0.1


def test_regularity_reports_irregular(free_config_path, capsys):
    # reporting is not an error: exit 0 with is_regular false
    rc, out = run(capsys, "regularity", "--config", free_config_path,
                  "--t", "0,0,0,0")
    assert rc == 0
    assert json.loads(out)["is_regular"] is False


def test_integrator_failure_exit_code(ref_config_degree1, capsys, monkeypatch):
    monkeypatch.setattr(monodromy, "_MAX_STEPS", 2)
    rc, _ = run(capsys, "regularity", "--config", ref_config_degree1,
                "--t", "0.25,0.15,-0.2,0.3")
    assert rc == 3


def test_overflowing_point_is_an_integrator_failure(ref_config, capsys):
    # t0 = 1e200 overflows the flow coefficients: a failure, not a crash
    rc, _ = run(capsys, "connection", "--config", ref_config,
                "--t", "1e200,0.15,-0.2,0.3")
    assert rc == 3
    rc, out = run(capsys, "selfdual-scan", "--config", ref_config,
                  "--grid", "t0=1e200,t1=0.15,t2=-0.2,t3=0.3", "--jobs", "1")
    assert rc == 0
    [row] = json.loads(out)["rows"]
    assert row["status"] == "integrator_failure"
    assert row["residual"] is None


@pytest.mark.parametrize("t0", ["1e10", "1e15", "1e200"])
def test_inaccurate_exponential_is_an_integrator_failure(ref_config, t0, capsys):
    # the 'ddag' exponentials lose their accuracy long before they overflow:
    # exit 3, not a regular point with an infinite gap
    rc, out = run(capsys, "regularity", "--config", ref_config,
                  "--t", f"{t0},0.15,-0.2,0.3")
    assert (rc, out) == (3, "")


def test_overflowing_loop_is_an_integrator_failure(ref_config, capsys):
    # at |t| = 120 the loop's norm e^{2 pi |t|} overflows: exit 3, not a
    # linear-algebra crash, and the scan keeps its ordinary row
    for command in ("connection", "regularity"):
        rc, out = run(capsys, command, "--config", ref_config,
                      "--t", "0.3,120,0,0")
        assert (rc, out) == (3, ""), command
    rc, out = run(capsys, "selfdual-scan", "--config", ref_config,
                  "--grid", "t0=0.3,t1=0.15,t2=0:200:2")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [row["status"] for row in rows] == ["ok", "integrator_failure"]
    assert rows[0]["residual"] < 1e-10 and rows[1]["residual"] is None


@pytest.mark.parametrize("argv", [
    ("connection", "--t", "nan,0,0,0"),
    ("regularity", "--t", "0.3,inf,0,0"),
    ("selfdual-scan", "--grid", "t1=nan"),
    ("selfdual-scan", "--grid", "t0=0.3,t2=0:-inf:3"),
    ("selfdual-scan", "--grid", "t2=-1e308:1e308:3"),   # overflows the step
])
def test_non_finite_point_is_a_usage_error(ref_config, capsys, argv):
    rc = cli.main([argv[0], "--config", ref_config, *argv[1:]])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert "expected finite reals" in captured.err


@pytest.mark.parametrize("argv", [
    ("oracle-compare", "--t", "0,0.7,0,0", "--N", "0"),
    ("oracle-compare", "--t", "0,0.7,0,0", "--N", "-64"),
    ("selfdual-scan", "--grid", "t0=0.3,t1=0.4", "--jobs", "-4"),
    ("selfdual-scan", "--grid", "t0=0.3,t1=0.4", "--jobs", "0"),
    ("connection", "--t", "0,0.7,0,0", "--ode-tol", "-1"),
    ("connection", "--t", "0,0.7,0,0", "--ode-tol", "0"),
    ("connection", "--t", "0,0.7,0,0", "--ode-tol", "inf"),
    ("connection", "--t", "0,0.7,0,0", "--ode-tol", "nan"),
    ("regularity", "--t", "0,0.7,0,0", "--ode-tol", "0"),
    ("selfdual-scan", "--grid", "t0=0.3,t1=0.4", "--ode-tol", "1e400"),
    ("oracle-compare", "--t", "0,0.7,0,0", "--N", "64", "--compare-tol", "nan"),
    ("oracle-compare", "--t", "0,0.7,0,0", "--N", "64", "--compare-tol", "0"),
])
def test_non_positive_counts_are_usage_errors(free_config_path, capsys, argv):
    # rejected when parsed: no ZeroDivisionError, no silent serial scan, no
    # integration at a tolerance that cannot be met, no check that always fails
    rc = cli.main([argv[0], "--config", free_config_path, *argv[1:]])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    want = "integer" if argv[-2] in ("--N", "--jobs") else "finite real"
    assert f"expected a positive {want}" in captured.err


@pytest.mark.parametrize("command", ["connection", "oracle-compare"])
def test_unwritable_output_is_a_usage_error(free_config_path, tmp_path, capsys,
                                            command):
    dest = tmp_path / "missing" / "x.json"
    extra = ["--N", "64"] if command == "oracle-compare" else []
    rc = cli.main([command, "--config", free_config_path, "--t", "0,0.7,0,0",
                   "--output", str(dest), *extra])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert "No such file or directory" in captured.err and not dest.exists()


def test_output_is_checked_before_computing(free_config_path, tmp_path, capsys,
                                            monkeypatch):
    # an unwritable --output fails before the scan computes a single row,
    # and a command that fails leaves no file at a writable one
    calls = []
    curvature = cli.connection.curvature
    monkeypatch.setattr(cli.connection, "curvature",
                        lambda *a, **kw: calls.append(a[1]) or curvature(*a, **kw))
    dest = tmp_path / "missing" / "rows.json"
    rc = cli.main(["selfdual-scan", "--config", free_config_path,
                   "--grid", "t0=0.3,t1=0.2:0.8:4", "--output", str(dest)])
    captured = capsys.readouterr()
    assert (rc, captured.out, len(calls)) == (1, "", 0)
    assert "cannot write --output" in captured.err and not dest.parent.exists()
    dest = tmp_path / "x.json"
    rc = cli.main(["connection", "--config", free_config_path, "--t", "0,0,0,0",
                   "--output", str(dest)])
    assert rc == 4 and not dest.exists()
    rc = cli.main(["selfdual-scan", "--config", free_config_path,
                   "--grid", "t0=0.3,t1=0.2:0.8:4", "--output", str(dest)])
    assert rc == 0 and len(calls) == 4
    assert len(json.loads(dest.read_text())["rows"]) == 4


# --------------------------------------------------------------- connection

def test_connection_output(ref_config, capsys):
    rc, out = run(capsys, "connection", "--config", ref_config,
                  "--t", "0.25,0.15,-0.2,0.3")
    assert rc == 0
    doc = json.loads(out)
    A = np.array(doc["A"])  # (4, N, N, 2) re/im pairs
    assert A.shape == (4, 2, 2, 2)
    assert doc["antihermiticity_defect"] < 1e-10
    Amat = A[..., 0] + 1j * A[..., 1]
    for mu in range(4):
        assert np.max(np.abs(Amat[mu] + Amat[mu].conj().T)) < 1e-10


def test_connection_deterministic(ref_config, capsys):
    _, out1 = run(capsys, "connection", "--config", ref_config,
                  "--t", "0.25,0.15,-0.2,0.3")
    _, out2 = run(capsys, "connection", "--config", ref_config,
                  "--t", "0.25,0.15,-0.2,0.3")
    assert out1 == out2


def test_connection_removed_flags_are_usage_errors(ref_config, capsys):
    # the derivatives are exact: no step or method left to choose
    for extra in (["--method", "integral"], ["--h", "1e-4"]):
        rc, out = run(capsys, "connection", "--config", ref_config,
                      "--t", "0.25,0.15,-0.2,0.3", *extra)
        assert rc == 1
        assert out == ""


def test_connection_irregular_exit_code(free_config_path, capsys):
    rc = cli.main(["connection", "--config", free_config_path,
                   "--t", "0,0,0,0"])
    assert rc == 4
    # the message names the point in plain floats
    err = capsys.readouterr().err
    assert any("t = (0.0, 0.0, 0.0, 0.0)" in line
               for line in err.splitlines()), err


# -------------------------------------------------------------------- scan

def test_scan_flags_irregular_rows(free_config_path, capsys):
    rc, out = run(capsys, "selfdual-scan", "--config", free_config_path,
                  "--grid", "t0=0,t1=0:0.5:2,t2=0,t3=0")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    assert rows[0]["status"] == "irregular"
    assert rows[0]["residual"] is None
    assert rows[1]["status"] == "ok"
    assert rows[1]["residual"] == 0.0  # free field has zero curvature


def test_scan_keeps_rows_after_integrator_failure(ref_config_degree1, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(monodromy, "_MAX_STEPS", 2)
    rc, out = run(capsys, "selfdual-scan", "--config", ref_config_degree1,
                  "--grid", "t0=0.25,t1=0.15,t2=-0.2:0.2:2,t3=0.3",
                  "--jobs", "1")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "integrator_failure"
        assert row["residual"] is None
        assert row["orientation"] is None
        assert row["action_density"] is None


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its worker count and
    maps in this process."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("grid,workers", [
    ("t0=0.2:0.4:3,t1=0.15,t2=-0.2,t3=0.3", [3]),
    ("t0=0.25,t1=0.15,t2=-0.2,t3=0.3", []),
])
def test_scan_starts_no_more_workers_than_rows(ref_config, capsys, monkeypatch,
                                               grid, workers):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    rc, out = run(capsys, "selfdual-scan", "--config", ref_config,
                  "--grid", grid, "--jobs", "64")
    assert rc == 0
    assert _RecordingPool.sizes == workers
    rows = json.loads(out)["rows"]
    assert len(rows) == max(workers, default=1)
    assert all(row["status"] == "ok" for row in rows)


def test_scan_csv_json_agree(ref_config, tmp_path, capsys):
    grid = "t0=0.25,t1=0.15,t2=-0.2,t3=0.3"
    rc, out_json = run(capsys, "selfdual-scan", "--config", ref_config,
                       "--grid", grid)
    assert rc == 0
    rows = json.loads(out_json)["rows"]
    rc, out_csv = run(capsys, "selfdual-scan", "--config", ref_config,
                      "--grid", grid, "--format", "csv")
    assert rc == 0
    creader = csv.DictReader(io.StringIO(out_csv))
    crows = list(creader)
    assert len(crows) == len(rows) == 1
    for key in ("residual", "action_density"):
        assert float(crows[0][key]) == rows[0][key]
    assert int(crows[0]["orientation"]) == rows[0]["orientation"]
    assert rows[0]["status"] == crows[0]["status"] == "ok"
    assert rows[0]["residual"] < 1e-3


def test_scan_schema_and_removed_curvature_step(ref_config, capsys):
    # the curvature is closed form: no step to choose, none reported
    grid = "t0=0.25,t1=0.15,t2=-0.2,t3=0.3"
    rc, out = run(capsys, "selfdual-scan", "--config", ref_config,
                  "--grid", grid, "--curvature-h", "1e-3")
    assert rc == 1
    assert out == ""
    rc, out = run(capsys, "selfdual-scan", "--config", ref_config,
                  "--grid", grid)
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "2"
    assert "curvature_h" not in doc
    assert doc["rows"][0]["residual"] < 1e-10


def test_scan_output_file(free_config_path, tmp_path, capsys):
    dest = tmp_path / "rows.json"
    rc, out = run(capsys, "selfdual-scan", "--config", free_config_path,
                  "--grid", "t0=0.3,t1=0.4,t2=0,t3=0",
                  "--output", str(dest))
    assert rc == 0
    assert out == ""
    assert json.loads(dest.read_text())["rows"][0]["status"] == "ok"


def test_scan_bad_grid(ref_config, capsys):
    rc, _ = run(capsys, "selfdual-scan", "--config", ref_config,
                "--grid", "t0=1:2,t1=0,t2=0,t3=0")
    assert rc == 1


def test_scan_repeated_grid_axis_is_a_usage_error(ref_config, capsys):
    # a later t0 would silently replace the earlier one
    rc = cli.main(["selfdual-scan", "--config", ref_config,
                   "--grid", "t0=0:1:3,t0=5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "grid axis t0 given more than once" in captured.err


# ---------------------------------------------------------- oracle-compare

def test_oracle_compare_free(free_config_path, capsys):
    rc, out = run(capsys, "oracle-compare", "--config", free_config_path,
                  "--t", "0,0.7,0,0", "--N", "64")
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"]["gram_defect"] < 1e-10
    assert doc["checks"]["compact_vs_classical"] < 1e-8


def test_oracle_compare_convergence_ratio(ref_config, capsys):
    rc, out64 = run(capsys, "oracle-compare", "--config", ref_config,
                    "--t", "0.25,0.15,-0.2,0.3", "--N", "64")
    assert rc == 0
    rc, out512 = run(capsys, "oracle-compare", "--config", ref_config,
                     "--t", "0.25,0.15,-0.2,0.3", "--N", "512")
    assert rc == 0
    e64 = json.loads(out64)["checks"]["greens_vs_dense"]
    e512 = json.loads(out512)["checks"]["greens_vs_dense"]
    assert 40 < e64 / e512 < 100  # roughly (512/64)^2


def test_oracle_compare_tolerance_gate(free_config_path, capsys):
    rc, out = run(capsys, "oracle-compare", "--config", free_config_path,
                  "--t", "0,0.7,0,0", "--N", "64", "--compare-tol", "1e-30")
    assert rc == 2
    assert json.loads(out)["passed"] is False

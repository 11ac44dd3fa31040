"""Acceptance gate: one test per numbered criterion, at the pinned tolerance.

Run with -v for one PASS/FAIL line per criterion; each test also prints the
measured figure next to its budget.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import caloron
from caloron import connection, greens, monodromy, nahm, oracle, spin

# five deterministic regular evaluation points on the reference dataset
POINTS = [
    np.array([0.25, 0.15, -0.2, 0.3]),
    np.array([0.4, -0.1, 0.22, -0.15]),
    np.array([0.7, 0.05, -0.3, 0.1]),
    np.array([0.15, 0.3, 0.1, -0.25]),
    np.array([0.55, -0.2, -0.1, 0.2]),
]
MORE_POINTS = [
    np.array([0.35, 0.25, 0.05, -0.1]),
    np.array([0.6, -0.15, 0.18, 0.22]),
    np.array([0.45, 0.1, -0.12, -0.3]),
    np.array([0.8, -0.05, 0.25, 0.15]),
    np.array([0.3, -0.28, -0.07, 0.12]),
]


def report(num, text):
    print(f"criterion {num:02d}: {text}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def ensemble():
    """Ten random valid datasets (k <= 2, n <= 3) at random regular t."""
    rng = np.random.default_rng(77)
    out = []
    for _ in range(10):
        data = oracle.random_valid_data(rng, k=int(rng.integers(1, 3)),
                                        n=int(rng.integers(1, 4)),
                                        magnitude=0.3)
        t = oracle.random_regular_t(data, rng)
        out.append((data, t, greens.boundary_greens(data, t, want_G=True)))
    return out


@pytest.fixture(scope="module")
def scan(tmp_path_factory, reference):
    """The 3^4 self-duality scan, run once through the CLI and timed."""
    base = tmp_path_factory.mktemp("accept")
    cfg = base / "reference.json"
    cfg.write_text(json.dumps(nahm.to_dict(reference)))
    out = base / "rows.json"
    grid = "t0=0.2:0.8:3,t1=-0.3:0.3:3,t2=-0.3:0.3:3,t3=0.1:0.5:3"
    cmd = [sys.executable, "-m", "caloron.cli", "selfdual-scan",
           "--config", str(cfg), "--grid", grid, "--jobs", "4",
           "--output", str(out)]
    # the child imports the package from where this process found it
    home = os.path.dirname(os.path.dirname(caloron.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [home, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["rows"], wall


# --------------------------------------------------------------- criteria

def test_criterion_01_spin_tables_bitwise():
    I2 = np.eye(2, dtype=complex)
    S = (I2,
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))
    E = (I2, -1j * S[1], -1j * S[2], -1j * S[3])
    eps = np.zeros((4, 4, 4))
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        eps[a, b, c], eps[b, a, c] = 1.0, -1.0
    # quaternion relations
    for j in (1, 2, 3):
        assert np.array_equal(E[j] @ E[j], -I2)
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        assert np.array_equal(E[a] @ E[b], E[c])
    # pauli products
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            want = (a == b) * I2 + 1j * sum(
                eps[a, b, c] * S[c] for c in (1, 2, 3))
            assert np.array_equal(spin.pauli(a) @ spin.pauli(b), want)
    # full 4x4 bracket table against hand values
    for nu in range(4):
        for mu in range(4):
            if nu == mu:
                want = np.zeros((2, 2), dtype=complex)
            elif nu == 0:
                want = 2.0 * E[mu]
            elif mu == 0:
                want = -2.0 * E[nu]
            else:
                want = -2.0 * sum(eps[nu, mu, m] * E[m] for m in (1, 2, 3))
            assert np.array_equal(spin.BRACKET[nu][mu], want), (nu, mu)
    report(1, "spin tables match hand-derived values bitwise -> PASS")


def test_criterion_02_monodromy_phase_law():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        data = oracle.random_valid_data(rng, k=int(rng.integers(1, 3)),
                                        n=int(rng.integers(1, 4)),
                                        magnitude=0.2)
        tvec = np.concatenate([[rng.uniform(-1, 1)],
                               rng.uniform(-0.3, 0.3, 3)])
        base = monodromy.Propagator(
            data, np.array([0.0, *tvec[1:]]), 1e-12).loop("ddag")
        shifted = monodromy.Propagator(data, tvec, 1e-12).loop("ddag")
        defect = np.max(np.abs(
            shifted - np.exp(2j * np.pi * tvec[0]) * base))
        worst = max(worst, defect)
    report(2, f"worst phase-law defect {worst:.3e} (budget 1e-9) -> "
              f"{'PASS' if worst < 1e-9 else 'FAIL'}")
    assert worst < 1e-9


def test_criterion_03_free_field_diagonal(free_data):
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        bg = greens.boundary_greens(free_data, np.array([0.0, r, 0.0, 0.0]))
        want = np.cosh(np.pi * r) / np.sinh(np.pi * r) / (2.0 * r)
        worst = max(worst, abs(bg.F[0, 0, 0, 0] - want))
    report(3, f"free diagonal error {worst:.3e} (budget 1e-8) -> "
              f"{'PASS' if worst < 1e-8 else 'FAIL'}")
    assert worst < 1e-8


def test_criterion_04_inverse_pair_identities(ensemble):
    worst = 0.0
    for data, t, bg in ensemble:
        qf = greens.qfq_matrix(data, bg)
        qg = greens.qgq_matrix(data, bg)
        N = qf.shape[0]
        a = np.linalg.norm((np.eye(N) - qf) @ (np.eye(N) + qg) - np.eye(N))
        b = np.linalg.norm((np.eye(N) + qg) @ (np.eye(N) - qf) - np.eye(N))
        worst = max(worst, a, b)
    report(4, f"worst inverse-pair defect {worst:.3e} over 10 datasets "
              f"(budget 1e-7) -> {'PASS' if worst < 1e-7 else 'FAIL'}")
    assert worst < 1e-7


def test_criterion_05_chi_inverse_identity(ensemble):
    worst = 0.0
    for data, t, bg in ensemble:
        c = connection.chi_from_boundary(data, bg)
        qg = greens.qgq_matrix(data, bg)
        N = c.shape[0]
        lhs = np.linalg.inv(c.conj().T) @ np.linalg.inv(c)
        worst = max(worst, np.linalg.norm(lhs - np.eye(N) - qg))
    report(5, f"worst chi^-2 identity defect {worst:.3e} (budget 1e-7) -> "
              f"{'PASS' if worst < 1e-7 else 'FAIL'}")
    assert worst < 1e-7


def test_criterion_06_compact_equals_classical(reference):
    worst = 0.0
    for t in POINTS:
        assert monodromy.regularity(reference, t).is_regular
        compact = connection.gauge_potential(reference, t)
        classical = oracle.classical_gauge_potential(reference, t, h=1e-4,
                                                     quad_tol=1e-8)
        for mu in range(4):
            worst = max(worst, np.max(np.abs(
                compact.A[mu] - classical.A[mu])))
    report(6, f"worst |A_compact - A_classical| {worst:.3e} at 5 points "
              f"(budget 1e-4) -> {'PASS' if worst < 1e-4 else 'FAIL'}")
    assert worst < 1e-4


def test_criterion_07_selfduality_grid(scan, reference):
    rows, _ = scan
    assert len(rows) == 81
    bad = [r for r in rows if r["status"] != "ok"]
    assert not bad, f"{len(bad)} grid points were not regular"
    residuals = [r["residual"] for r in rows]
    orientations = {r["orientation"] for r in rows}
    assert max(residuals) < 1e-3
    assert orientations == {1} or orientations == {-1}
    # refinement: the residual of the finite-difference curvature decreases
    # under h -> h/2 until the floor
    floor = 5e-7
    t = POINTS[0]
    seq = [connection.selfdual_residual(
               reference, t, curv=oracle.fd_curvature(reference, t, h)).residual
           for h in (1e-3, 5e-4, 2.5e-4)]
    for a, b in zip(seq, seq[1:]):
        if a > floor:
            assert b < a, seq
    # the closed-form curvature has no step: its residual is at roundoff
    exact = max(connection.selfdual_residual(reference, p).residual
                for p in POINTS)
    assert exact < 1e-10
    report(7, f"max residual {max(residuals):.3e} over 81 points, "
              f"orientation {orientations}, refinement {seq[0]:.1e} -> "
              f"{seq[1]:.1e} -> {seq[2]:.1e}, exact {exact:.1e} at 5 points "
              f"-> PASS")


def test_criterion_08_dense_oracle_convergence(reference):
    t = POINTS[0]
    bg = greens.boundary_greens(reference, t)
    sizes = np.array([128, 256, 512, 1024])
    errs = np.array([np.max(np.abs(
        oracle.dense_greens(reference, t, int(N)).F - bg.F))
        for N in sizes])
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    order = -slope
    report(8, f"dense-oracle fitted order {order:.3f} "
              f"(budget >= 1.8) -> {'PASS' if order >= 1.8 else 'FAIL'}")
    assert order >= 1.8


def test_criterion_09_gram_identity(reference):
    worst = 0.0
    for t in POINTS + MORE_POINTS:
        assert monodromy.regularity(reference, t).is_regular
        zm = oracle.zero_modes(reference, t)
        worst = max(worst, zm.gram_defect)
    report(9, f"worst Gram defect {worst:.3e} at 10 points "
              f"(budget 1e-6) -> {'PASS' if worst < 1e-6 else 'FAIL'}")
    assert worst < 1e-6


def test_criterion_10_period_shift_invariants(reference):
    shift = np.array([1.0, 0.0, 0.0, 0.0])
    worst = 0.0
    for t in POINTS:
        c0 = connection.curvature(reference, t)
        c1 = connection.curvature(reference, t + shift)
        for mu in range(4):
            for nu in range(mu + 1, 4):
                a = np.trace(c0.F[mu][nu] @ c0.F[mu][nu]).real
                b = np.trace(c1.F[mu][nu] @ c1.F[mu][nu]).real
                worst = max(worst, abs(a - b))
    report(10, f"worst |tr F^2 shift| {worst:.3e} at 5 points "
               f"(budget 1e-5) -> {'PASS' if worst < 1e-5 else 'FAIL'}")
    assert worst < 1e-5


def test_criterion_11_performance(scan):
    # (a) one gauge potential at k=2, n=3 with default settings
    rng = np.random.default_rng(42)
    data = oracle.random_valid_data(rng, k=2, n=3, magnitude=0.3)
    t = oracle.random_regular_t(data, rng)
    start = time.perf_counter()
    connection.gauge_potential(data, t)
    single = time.perf_counter() - start
    # (b) the 3^4 scan; the stated budget is 2 minutes with 4 workers
    # actually running in parallel, so scale it by the cores available
    rows, wall = scan
    cores = os.cpu_count() or 1
    budget = 120.0 if cores >= 4 else 120.0 * 4.0 / cores
    report(11, f"gauge_potential k=2,n=3 {single:.3f}s (budget 1s); "
               f"3^4 scan {wall:.1f}s on {cores} cores "
               f"(budget {budget:.0f}s) -> "
               f"{'PASS' if single < 1 and wall < budget else 'FAIL'}")
    assert single < 1.0
    assert wall < budget

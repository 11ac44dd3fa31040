"""Independent checks: dense grid operator, dataset builders, zero modes."""

import dataclasses

import numpy as np
import pytest

from caloron import greens, monodromy, nahm, oracle
from caloron.errors import IntegrationError, IrregularPointError

from conftest import pointwise_flow, random_poly_data, steps_path

TWO_PI = 2.0 * np.pi
T_REF = np.array([0.25, 0.15, -0.2, 0.3])


# ----------------------------------------------------------- closed forms

def test_free_field_F_properties():
    r = 0.7
    assert oracle.free_field_F(r, 1.0 + TWO_PI, 2.5) == pytest.approx(
        oracle.free_field_F(r, 1.0, 2.5), abs=1e-12)
    assert oracle.free_field_F(r, 1.0, 2.5) == pytest.approx(
        oracle.free_field_F(r, 2.5, 1.0), abs=1e-12)
    # solves (-d^2/dx^2 + r^2) F = 0 away from the source
    h = 1e-4
    x, y = 2.0, 4.0
    d2 = (oracle.free_field_F(r, x + h, y) - 2 * oracle.free_field_F(r, x, y)
          + oracle.free_field_F(r, x - h, y)) / h ** 2
    assert abs(d2 - r ** 2 * oracle.free_field_F(r, x, y)) < 1e-5
    # max at the source point
    assert oracle.free_field_F(r, y, y) > oracle.free_field_F(r, x, y)


# ------------------------------------------------------------ dense oracle

def test_dense_matches_free_field(free_data):
    r = 1.0
    t = np.array([0.0, 0.0, 0.0, r])
    want = np.cosh(np.pi * r) / np.sinh(np.pi * r) / (2 * r)
    errs = []
    for N in (128, 256):
        got = oracle.dense_greens(free_data, t, N).F[0, 0, 0, 0]
        errs.append(abs(got - want))
    assert errs[0] < 1e-3
    # second-order convergence
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_dense_matches_boundary_on_reference(reference):
    bg = greens.boundary_greens(reference, T_REF)
    e256 = np.max(np.abs(oracle.dense_greens(reference, T_REF, 256).F - bg.F))
    e512 = np.max(np.abs(oracle.dense_greens(reference, T_REF, 512).F - bg.F))
    assert e256 < 5e-5
    assert 3.0 < e256 / e512 < 5.0


def test_dense_requires_aligned_marked_points(reference):
    # lambda = pi/2 needs N divisible by 4
    with pytest.raises(ValueError):
        oracle.dense_greens(reference, T_REF, 130)


def test_dense_rejects_marked_points_sharing_a_node(reference):
    # 1e-11 apart, both sit on one node: one source there would stand for
    # two marked points and a 1e-11-wide interval
    close = dataclasses.replace(reference, lambdas=np.array([np.pi / 2, np.pi / 2 + 1e-11]))
    with pytest.raises(ValueError, match="share a node"):
        oracle.dense_greens(close, T_REF, 256)


def _on_quarter_nodes(data):
    """data with its two marked points moved to pi/2 and 3 pi/2, nodes of
    every grid whose size is divisible by 4."""
    return dataclasses.replace(data, lambdas=np.array([np.pi / 2, 3 * np.pi / 2]))


def _t0_jumping_reference():
    """The reference with T_0 = 0.4 on (pi/2, 3 pi/2) and -0.3 on its
    complement: T_0 jumps at both marked points."""
    cfg = nahm.to_dict(oracle.su2_reference_data())
    for interval, x in zip(cfg["intervals"], (0.4, -0.3)):
        interval["T"]["0"] = nahm.to_pairs([[[x]]])
    return nahm.from_dict(cfg)


@pytest.mark.parametrize("case", ["t0_jump", "k2_degree3"])
def test_dense_is_second_order_where_t0_varies(case):
    # the links carry A_0 at edge midpoints, so neither a T_0 jump at a
    # marked node nor non-commuting s-dependent T_0 costs an order; A_0
    # sampled on the nodes, averaged on marked ones, reads 0.99 and 1.04
    if case == "t0_jump":
        data = _t0_jumping_reference()
    else:
        data = _on_quarter_nodes(random_poly_data(np.random.default_rng(11),
                                                  k=2, n=2, degree=3))
    t = np.array([0.3, 0.2, -0.1, 0.25])
    bg = greens.boundary_greens(data, t)
    sizes = np.array([128, 256, 512, 1024])
    errs = [np.max(np.abs(oracle.dense_greens(data, t, int(N)).F - bg.F))
            for N in sizes]
    assert -np.polyfit(np.log(sizes), np.log(errs), 1)[0] >= 1.8, errs


def test_dense_uses_no_ode_machinery(reference, monkeypatch):
    cases = [reference, _on_quarter_nodes(random_poly_data(
        np.random.default_rng(4), k=2, n=2, degree=2))]
    want = [oracle.dense_greens(data, T_REF, 64).F for data in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense route reached the ODE machinery")

    monkeypatch.setattr(monodromy, "transfer", forbidden)
    monkeypatch.setattr(monodromy, "expm", forbidden)
    monkeypatch.setattr(greens.GreensEvaluator, "loop_solution", forbidden)
    for data, F in zip(cases, want):
        np.testing.assert_array_equal(oracle.dense_greens(data, T_REF, 64).F, F)


# --------------------------------------------------------- dataset builders

def test_su2_reference_layout(reference):
    assert reference.k == 1 and reference.n == 2
    assert np.allclose(reference.lambdas, [np.pi / 2, 3 * np.pi / 2])
    # opposite jumps of equal mass, rank-1 boundary vectors
    assert reference.Q[0].shape == (2, 1)
    d1 = nahm.jump_T(reference, 0, 3)[0, 0]
    d2 = nahm.jump_T(reference, 1, 3)[0, 0]
    assert d1 == pytest.approx(-d2)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_random_valid_data_is_on_shell(k, n):
    rng = np.random.default_rng(100 * k + n)
    data = oracle.random_valid_data(rng, k=k, n=n, magnitude=0.4)
    assert data.k == k and data.n == n
    for alpha in range(n):
        assert np.max(np.abs(nahm.matching_residual(data, alpha))) < 1e-12
    for i in range(n):
        a, b = data.interval_bounds(i)
        for u in (0.25, 0.75):
            r = nahm.nahm_residual(data, a + u * (b - a))
            assert np.max(np.abs(r)) < 1e-12
    # spacing contract on the circle
    lams = data.lambdas
    gaps = np.diff(np.concatenate([lams, [lams[0] + TWO_PI]]))
    assert gaps.min() > 0.5 - 1e-12


def test_random_regular_t(reference):
    rng = np.random.default_rng(33)
    from caloron import monodromy as mon
    for _ in range(3):
        t = oracle.random_regular_t(reference, rng)
        assert mon.regularity(reference, t).is_regular
        assert 0.0 < t[0] < 1.0


# --------------------------------------------------------------- zero modes

def test_zero_mode_gram_identity(reference):
    zm = oracle.zero_modes(reference, T_REF)
    assert zm.gram_defect < 1e-8
    assert np.allclose(zm.gram, zm.gram.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(zm.gram).min() > 0
    # gram + chi^2 = id, each piece strictly between 0 and id here
    assert np.linalg.eigvalsh(zm.chi).min() > 0


def test_zero_mode_continuity_inside_intervals(reference):
    zm = oracle.zero_modes(reference, T_REF)
    for s in (1.0, 2.5, 5.0):
        a = zm.psi(s - 1e-7)
        b = zm.psi(s + 1e-7)
        assert np.max(np.abs(a - b)) < 1e-5


def test_zero_mode_jump_at_marked_points(reference):
    # crossing lambda_alpha, psi jumps by i Q_alpha chi_alpha
    zm = oracle.zero_modes(reference, T_REF)
    offs = np.cumsum([0, *reference.widths])
    for alpha, (lam, q) in enumerate(zip(reference.lambdas, reference.Q)):
        jump = zm.psi(lam + 1e-9) - zm.psi(lam - 1e-9)
        assert np.max(np.abs(jump)) > 1e-3
        # the jump lives in the range of Q_alpha
        proj = q @ np.linalg.pinv(q)
        assert np.max(np.abs(jump - proj @ jump)) < 1e-6
        want = 1j * q @ zm.chi[offs[alpha]:offs[alpha] + q.shape[1]]
        assert np.max(np.abs(jump - want)) < 1e-8


def _defining_psi(ev, chi, s):
    """-i sum_alpha P(lambda_alpha -> s) U_alpha, with one loop solve
    U_alpha = (loop_alpha - id)^{-1} Q_alpha chi_alpha per marked point and
    P the product of the steps from lambda_alpha to the start a_i of the
    interval of s, then the transfer from a_i to s of the pointwise flow
    matrix (its exponential on a degree-0 interval); the right limit on a
    marked point."""
    data = ev.data
    n = data.n
    offs = np.cumsum([0, *data.widths])
    steps = ev.steps("ddag")
    ident = np.eye(steps.shape[-1])
    i, x = nahm.locate(data, s)
    a = data.interval_bounds(i)[0]
    inside = ident if x == a else monodromy.transfer(
        pointwise_flow(data, ev.t, i, "ddag"), a, x, ev.tol,
        constant=data.intervals[i].degree == 0)
    out = 0.0
    for alpha, q in enumerate(data.Q):
        U = np.linalg.solve(steps_path(steps, alpha, n) - ident,
                            q @ chi[offs[alpha]:offs[alpha] + q.shape[1]])
        out = out + inside @ steps_path(steps, alpha, (i - alpha) % n) @ U
    return -1j * out


@pytest.fixture(scope="module", params=["reference", "random", "poly"])
def psi_case(request, reference):
    """(data, t, tol): the reference data, criterion 11a's k=2, n=3 data and
    degree-3 off-shell data.  On the latter, psi at the nodes chains adaptive
    spans that the defining sum integrates in one, so the tolerance is
    tightened to keep the two within 1e-12."""
    if request.param == "reference":
        return reference, T_REF, 1e-10
    if request.param == "random":
        rng = np.random.default_rng(42)
        data = oracle.random_valid_data(rng, k=2, n=3, magnitude=0.3)
        return data, oracle.random_regular_t(data, rng), 1e-10
    rng = np.random.default_rng(7)
    data = random_poly_data(rng, k=2, n=2, degree=3)
    return data, oracle.random_regular_t(data, rng), 1e-13


def test_zero_modes_one_solve_equals_defining_sum(psi_case):
    # psi from the one periodic solve, at the Gram nodes of every interval
    # and at the marked points, against the sum over marked points; both
    # carry roundoff amplified by cond(loop - id), 2e3 to 3e3 here
    data, t, tol = psi_case
    zm = oracle.zero_modes(data, t, tol=tol)
    ev = zm._evaluator
    nodes = [oracle._gl_nodes(*data.interval_bounds(i), 2)[0] for i in range(data.n)]
    flat = np.concatenate(nodes)
    want = np.array([_defining_psi(ev, zm.chi, s) for s in flat])
    scale = np.max(np.abs(want))
    stacked = oracle._states_at_nodes(ev, "ddag", zm._starts, nodes)
    assert np.max(np.abs(stacked - want)) < 1e-12 * scale
    assert np.max(np.abs(np.array([zm.psi(s) for s in flat]) - want)) < 1e-12 * scale
    for lam in data.lambdas:
        assert np.max(np.abs(zm.psi(lam) - _defining_psi(ev, zm.chi, lam))) < 1e-12 * scale


def test_zero_modes_reject_irregular_and_overflowing_points(reference, free_data):
    # the one periodic solve is checked like the loop solves it replaced
    ev = greens.GreensEvaluator(free_data, np.zeros(4))
    with pytest.raises(IrregularPointError):
        ev.loop_solution("ddag", np.zeros((1, 2, 1)))
    with pytest.raises(IrregularPointError):
        oracle.zero_modes(free_data, np.zeros(4))
    with pytest.raises(IntegrationError):
        oracle.zero_modes(reference, np.array([0.3, 120.0, 0.0, 0.0]))


def test_classical_matches_compact(reference):
    from caloron import connection as con
    compact = con.gauge_potential(reference, T_REF)
    classical = oracle.classical_gauge_potential(reference, T_REF)
    for mu in range(4):
        assert np.max(np.abs(compact.A[mu] - classical.A[mu])) < 1e-5

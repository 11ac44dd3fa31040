"""Green's function blocks and the boundary block algebra."""

import numpy as np
import pytest

from caloron import greens, nahm, oracle
from caloron.errors import IntegrationError, IrregularPointError

from conftest import random_poly_data, steps_path, zero_mat
from test_acceptance import POINTS

TWO_PI = 2.0 * np.pi


def coth(x):
    return np.cosh(x) / np.sinh(x)


# ------------------------------------------------------------- free field

def test_free_diagonal_value(free_data):
    for r in (0.5, 1.0, 2.0):
        bg = greens.boundary_greens(free_data, np.array([0.0, r, 0.0, 0.0]))
        assert bg.F.shape == (1, 1, 1, 1)
        want = coth(np.pi * r) / (2.0 * r)
        assert abs(bg.F[0, 0, 0, 0] - want) < 1e-10


def free_F(t, x, y):
    """F(x, y) of the free field through boundary_greens: free data (T = 0,
    zero Q columns) with its marked points at x and y."""
    xs, ys = x % TWO_PI, y % TWO_PI
    lams = [xs] if abs(xs - ys) < 1e-12 else sorted([xs, ys])
    data = nahm.from_dict({
        "k": 1,
        "lambdas": lams,
        "intervals": [{"degree": 0, "T": {str(mu): [zero_mat(1)] for mu in range(4)}}
                      for _ in lams],
        "Q": [[[[0.0, 0.0]], [[0.0, 0.0]]] for _ in lams],
    })
    F = greens.boundary_greens(data, t).F
    return F[nahm.marked_index(data, x), nahm.marked_index(data, y)][0, 0]


def test_free_off_diagonal_values():
    r = 0.8
    t = np.array([0.0, 0.0, r, 0.0])
    for x, y in [(2.0, 0.7), (0.3, 5.9), (4.4, 4.4), (1.0, 1.0 + TWO_PI)]:
        got = free_F(t, x, y)
        assert abs(got - oracle.free_field_F(r, x, y)) < 1e-9


def test_free_integer_shift_covariance():
    # integer shifts of t0 conjugate F by the periodic phase e^{is}
    r, t0 = 1.1, 0.37
    x, y = 2.6, 1.1
    base = free_F(np.array([t0, r, 0, 0]), x, y)
    got = free_F(np.array([t0 + 1.0, r, 0, 0]), x, y)
    assert abs(got - np.exp(1j * (x - y)) * base) < 1e-9


def test_free_fourier_sum_oracle():
    # independent spectral representation of the twisted free Green's fn:
    # F(x,y) = (1/2pi) sum_m e^{im(x-y)} / ((t0+m)^2 + r^2)
    r, t0 = 0.8, 0.37
    m = np.arange(-200000, 200001)
    weights = 1.0 / ((t0 - m) ** 2 + r ** 2) / TWO_PI
    for x, y in [(2.6, 1.1), (0.4, 5.2), (3.3, 3.3)]:
        want = np.sum(weights * np.exp(1j * m * (x - y)))
        got = free_F(np.array([t0, 0, r, 0]), x, y)
        assert abs(got - want) < 2e-5  # partial-sum tail dominates


def test_free_kink_slope():
    # d/dx F has a -1 jump across the diagonal (unit delta source)
    r, y, h = 0.9, 2.0, 1e-6
    right = (oracle.free_field_F(r, y + 2 * h, y)
             - oracle.free_field_F(r, y + h, y)) / h
    left = (oracle.free_field_F(r, y - h, y)
            - oracle.free_field_F(r, y - 2 * h, y)) / h
    assert abs((right - left) - (-1.0)) < 1e-4


def test_irregular_point_raises(free_data):
    with pytest.raises(IrregularPointError):
        greens.boundary_greens(free_data, np.zeros(4))


def test_far_field_irregular_point_states_cond_and_gap(reference):
    # far from the core cond(K0) outgrows its limit with the loop, whose
    # spectrum is nowhere near 1 (cond 8.2e12 and gap 1.0 at r = 8): the
    # message states both measured numbers and claims no unit eigenvalue
    with pytest.raises(IrregularPointError) as info:
        greens.boundary_greens(reference, np.array([0.3, 0.0, 0.0, 8.0]))
    err = info.value
    assert err.cond > 1e12 and err.gap > 0.5
    assert f"cond(K0) = {err.cond:.3e}" in str(err)
    assert f"min |eig - 1| = {err.gap:.3e}" in str(err)
    assert "unit eigenvalue" not in str(err)


def split_blocks(data, blocks):
    """Piecewise-constant data with blocks - 1 evenly spaced extra marked
    points in every interval, each with a zero Q column and so no jump, and
    the positions of the original marked points among all of them."""
    lams, intervals, Q = [], [], []
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        for p in range(blocks):
            lams.append((a + p * (b - a) / blocks) % TWO_PI)
            intervals.append(data.intervals[i])
            Q.append(data.Q[i] if p == 0 else np.zeros((2 * data.k, 1), dtype=complex))
    order = np.argsort(lams)
    split = nahm.NahmData(k=data.k, lambdas=np.array(lams)[order],
                          intervals=tuple(intervals[o] for o in order),
                          Q=tuple(Q[o] for o in order))
    return split, np.argsort(order)[::blocks]


def test_marked_points_without_jump_leave_F_unchanged(reference, free_data):
    # each extra block is one more row of the periodic system; F at the
    # original points must not move, also where the single-loop inversion
    # lost digits (2.3e-9 at r = 2.8 and an IntegrationError at r = 3.5)
    rnd = oracle.random_valid_data(np.random.default_rng(42), k=2, n=3)

    def rel_gap(data, t, blocks):
        split, pos = split_blocks(data, blocks)
        F = greens.boundary_greens(data, t).F
        got = greens.boundary_greens(split, t).F[np.ix_(pos, pos)]
        return np.max(np.abs(got - F)) / np.max(np.abs(F))

    for data in (reference, rnd):
        for blocks in (4, 16):
            assert max(rel_gap(data, t, blocks) for t in POINTS) < 1e-12
    for r in (2.8, 3.5):
        assert rel_gap(reference, np.array([0.3, 0.0, 0.0, r]), 16) < 1e-10
    split, _ = split_blocks(free_data, 16)
    lam = split.lambdas
    for r in (1.0, 4.0, 8.0, 12.0):
        F = greens.boundary_greens(split, np.array([0.0, 0.0, 0.0, r])).F[:, :, 0, 0]
        want = [[oracle.free_field_F(r, x, y) for y in lam] for x in lam]
        assert np.max(np.abs(F - want)) < 1e-14


# --------------------------------------------------------- Green's blocks

def test_boundary_defects_small(reference):
    t = np.array([0.25, 0.15, -0.2, 0.3])
    bg = greens.boundary_greens(reference, t)
    assert bg.diag_defect < 1e-9
    assert bg.herm_defect < 1e-9
    # hermiticity of the full block matrix: F(y,x) = F(x,y)^dag
    for b in range(2):
        for a in range(2):
            assert np.allclose(bg.F[b, a], bg.F[a, b].conj().T, atol=1e-9)


@pytest.mark.parametrize("skew, beta", [(0.0, 0), (1e-6, 0), (1e-6, 1)],
                         ids=["0.0", "1e-06", "1e-06-at-lambda1"])
def test_diagonal_check_on_F_ignores_the_scale_of_dF(reference, monkeypatch,
                                                     skew, beta):
    # d_nu F states blown up by 1e6 beside F (the dfinv transfers conjugated
    # by the state weights, so the periodic solve stays exact): a 1e-6 defect
    # of F's diagonal limits at lambda_beta must still fail the check, which
    # a single scale over all five stacked states would let through
    ev = greens.GreensEvaluator(reference, np.array([0.25, 0.15, -0.2, 0.3]))
    m = 2 * reference.k
    weight = np.kron(np.diag([1e6] * 4 + [1.0]), np.eye(m))
    ev._transfers["dfinv"] = [weight @ T @ np.linalg.inv(weight)
                              for T in ev.interval_transfers("dfinv")]
    check = greens._diagonal_limits

    def skewed_check(tag, right, left):
        right = right.copy()
        right[beta, -1, 0, 0] += skew   # F's value at lambda_beta, off the solution
        return check(tag, right, left)

    monkeypatch.setattr(greens, "_diagonal_limits", skewed_check)
    kicks = ev.unit_kicks("dfinv")
    if skew:
        with pytest.raises(IntegrationError,
                           match=f"diagonal limits .* marked point {beta}"):
            ev.loop_solution("dfinv", kicks)
    else:
        starts, defect = ev.loop_solution("dfinv", kicks)
        K = starts[0]
        assert np.max(np.abs(K[:4 * m])) > 1e4 * np.max(np.abs(K[4 * m:]))
        assert defect < 1e-9


def test_jet_orders_agree(reference):
    # the order-2 jet's d_nu F and F states are those of the order-1 and
    # order-0 sweeps; on the degree-3 data each sweep is its own adaptive run,
    # so the integrator tolerance is tightened to keep them within 1e-12
    rng = np.random.default_rng(7)
    poly = random_poly_data(rng)
    for data, t, tol in [(reference, np.array([0.25, 0.15, -0.2, 0.3]), 1e-10),
                         (poly, oracle.random_regular_t(poly, rng), 1e-13)]:
        ev = greens.GreensEvaluator(data, t, tol)
        jets = [ev.boundary(order=r) for r in range(3)]
        assert [len(bg.jet) for bg in jets] == [1, 5, 15]
        assert not (jets[2].jet.flags.writeable or jets[2].F.flags.writeable)
        assert jets[0].dF is None and jets[1].ddF is None
        assert np.max(np.abs(jets[2].dF - jets[1].dF)) < 1e-12
        for bg in jets[1:]:
            assert np.max(np.abs(bg.F - jets[0].F)) < 1e-12
        # d_rho d_nu F reads each symmetric pair from one state
        assert np.array_equal(jets[2].ddF, jets[2].ddF.swapaxes(0, 1))


@pytest.fixture(scope="module", params=["reference", "random", "poly", "single"])
def greens_case(request, reference):
    """(data, t): the reference data, criterion 11a's k=2, n=3 data,
    degree-3 off-shell data and k=2 data with one marked point."""
    if request.param == "reference":
        return reference, np.array([0.25, 0.15, -0.2, 0.3])
    if request.param == "poly":
        rng = np.random.default_rng(7)
        data = random_poly_data(rng)
    else:
        rng = np.random.default_rng(42)
        n = 3 if request.param == "random" else 1
        data = oracle.random_valid_data(rng, k=2, n=n, magnitude=0.3)
    return data, oracle.random_regular_t(data, rng)


def _defining_blocks(ev, tag):
    """Value blocks [s, beta, alpha] of pi_2 P(lambda_alpha -> lambda_beta)
    (iota_alpha - id)^{-1} pi_1 per state s of the flow's jet, with one
    solve of the whole jet loop based at each lambda_alpha and P the
    product of the steps between the two marked points."""
    steps = ev.steps(tag)
    n, dim = len(steps), steps.shape[-1]
    S = len(nahm.jet_states(nahm.JET.get(tag, 0)))
    v = dim // (2 * S)
    P1 = np.zeros((dim, v))
    P1[dim - v:] = np.eye(v)
    columns = []
    for alpha in range(n):
        K = np.linalg.solve(steps_path(steps, alpha, n) - np.eye(dim), P1)
        columns.append([(steps_path(steps, alpha, (beta - alpha) % n)
                         @ K).reshape(S, 2 * v, v)[:, :v]
                        for beta in range(n)])
    return np.array(columns).transpose(2, 1, 0, 3, 4)


def test_boundary_one_solve_equals_per_source_definition(greens_case):
    # every jet state of F (orders 0 to 2), and G from the one periodic
    # solve of the oracle's lifted steps, against one solve per marked
    # point, state by state at its own scale.
    # Both routes carry roundoff amplified by cond(iota - id), 4.8e3 at
    # most here, and the derivative states once more per order: on the
    # random case d_rho d_nu F is 1.4e-11 (one solve) and 2.6e-11 (per
    # source) from a 45-digit reference, so they get 1e-14 cond
    data, t = greens_case
    ev = greens.GreensEvaluator(data, t)
    cond = np.linalg.cond(ev.loop("finv") - np.eye(2 * data.k))
    for order, tag in enumerate(nahm.FINV_JET):
        got = ev.boundary(order=order).jet
        want = _defining_blocks(ev, tag)
        for s in range(len(want)):
            tol = 1e-12 if s == len(want) - 1 else 1e-14 * cond
            assert np.max(np.abs(got[s] - want[s])) < tol * np.max(np.abs(want[s]))
    got = oracle.boundary_G(data, t)
    want = _defining_blocks(oracle._LiftedEvaluator(data, t), "ddagd")[0]
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [-1, 3])
def test_boundary_rejects_other_orders(reference, order):
    ev = greens.GreensEvaluator(reference, np.array([0.25, 0.15, -0.2, 0.3]))
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        ev.boundary(order=order)


def test_lemma_identities_random():
    rng = np.random.default_rng(21)
    for _ in range(3):
        data = oracle.random_valid_data(rng, k=rng.integers(1, 3),
                                        n=rng.integers(1, 4), magnitude=0.3)
        t = oracle.random_regular_t(data, rng)
        qf = greens.qfq_matrix(data, greens.boundary_greens(data, t))
        qg = oracle.qgq_matrix(data, oracle.boundary_G(data, t))
        N = qf.shape[0]
        lhs = (np.eye(N) - qf) @ (np.eye(N) + qg)
        assert np.max(np.abs(lhs - np.eye(N))) < 1e-8
        rhs = (np.eye(N) + qg) @ (np.eye(N) - qf)
        assert np.max(np.abs(rhs - np.eye(N))) < 1e-8


def test_boundary_sandwich_matches_manual(reference):
    t = np.array([0.25, 0.15, -0.2, 0.3])
    bg = greens.boundary_greens(reference, t)
    qf = greens.qfq_matrix(reference, bg)
    # manual assembly: Q_b^dag kron(id2, F_{ba}) Q_a blocks
    offs = np.cumsum([0, *reference.widths])
    N = offs[-1]
    manual = np.zeros((N, N), dtype=complex)
    for b in range(2):
        for a in range(2):
            qb, qa = reference.Q[b], reference.Q[a]
            blk = qb.conj().T @ np.kron(np.eye(2), bg.F[b, a]) @ qa
            manual[offs[b]:offs[b] + qb.shape[1],
                   offs[a]:offs[a] + qa.shape[1]] = blk
    assert np.allclose(qf, manual, atol=1e-12)

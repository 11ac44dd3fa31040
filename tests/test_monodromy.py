"""Transfer-matrix integrator and circle monodromies.

The two mollifier tests at the bottom pin down the delta-function
conventions: they integrate a smoothed version of the singular ODE with a
generic solver and check convergence to the jump-composed monodromy.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from caloron import monodromy as mon
from caloron import connection, nahm, oracle, spin
from caloron.errors import IntegrationError

from conftest import (degree1_config, jump_map, pointwise_flow, random_poly_data,
                      second_order_jump, stacked, zero_mat)

TWO_PI = 2.0 * np.pi


# ------------------------------------------------------------ integrator

def test_dop853_order_conditions():
    # consistent nodes, the quadrature conditions of order 8, and estimators
    # that vanish on constants
    for i, row in enumerate(mon._A):
        assert abs(row.sum() - mon._C[i]) < 1e-15, i
    for q in range(8):
        assert abs(mon._B @ mon._C ** q - 1.0 / (q + 1)) < 1e-14, q
    assert abs(mon._E5.sum()) < 1e-15
    assert abs(mon._E3.sum()) < 1e-15
    assert mon._C[-1] == 1.0   # the last stage is at s + h, the FSAL point


def test_transfer_calls_coeff_once_per_step_attempt():
    # the first call is the start point alone; every later one holds one
    # step attempt's stage points s + c h, all at once
    rng = np.random.default_rng(20)
    data = random_poly_data(rng)
    t = rng.uniform(-0.8, 0.8, size=4)
    coeff = nahm.flow_coefficient(data, t, 0, "dfinv")
    a, b = data.interval_bounds(0)
    calls = []

    def counted(s):
        calls.append(np.array(s))
        return coeff(s)

    got = mon.transfer(counted, a, b)
    assert np.array_equal(got, mon.transfer(coeff, a, b))
    assert calls[0].shape == () and calls[0] == a
    assert len(calls) > 2
    ends = {a}
    for pts in calls[1:]:
        h = (pts[-1] - pts[0]) / (1.0 - mon._C[1])
        s = pts[-1] - h
        assert pts.shape == mon._C[1:].shape
        assert np.allclose(pts, s + mon._C[1:] * h, rtol=0.0, atol=1e-14)
        # a step starts where an accepted one ended (or retries its start)
        assert min(abs(s - e) for e in ends) < 1e-14
        ends.add(pts[-1])
    assert abs(calls[-1][-1] - b) < 1e-14


def test_transfer_matches_scipy_solve_ivp():
    # an independent integrator, run far tighter, as the reference of the
    # adaptive path on non-constant data
    rng = np.random.default_rng(21)
    data = random_poly_data(rng)
    t = rng.uniform(-0.8, 0.8, size=4)
    for tag in ("dfinv", "ddfinv"):
        for i in range(data.n):
            coeff = nahm.flow_coefficient(data, t, i, tag)
            a, b = data.interval_bounds(i)
            m = coeff(a).shape[0]
            sol = solve_ivp(lambda s, y: (coeff(s) @ y.reshape(m, m)).ravel(),
                            (a, b), np.eye(m, dtype=complex).ravel(),
                            method="DOP853", rtol=1e-13, atol=1e-13)
            assert sol.success
            want = sol.y[:, -1].reshape(m, m)
            got = mon.transfer(coeff, a, b)
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want)), (tag, i)


@pytest.mark.parametrize("t", [(1e200, 0.15, -0.2, 0.3), (0.3, 0.15, -0.2, 1e155)])
def test_nonfinite_adaptive_transfer_says_so(reference, t):
    # an overflowing coefficient fails its first step as non-finite (not by
    # shrinking the step to underflow), and leaks no RuntimeWarning
    data = nahm.from_dict(degree1_config(reference))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tag in nahm.FLOWS:
            with pytest.raises(IntegrationError, match="non-finite") as info:
                mon.Propagator(data, np.array(t)).interval_transfers(tag)
            assert info.value.location == data.lambdas[0], tag


@pytest.mark.parametrize("t, tags", [((1e200, 0.15, -0.2, 0.3), tuple(nahm.JET)),
                                     ((0.3, 0.15, -0.2, 1e155), nahm.FLOWS)])
def test_nonfinite_constant_transfer_says_so(reference, t, tags):
    # the degree-0 twin of the test above: the exact exponential of an
    # overflowing coefficient fails as non-finite at the interval's start.
    # (T_0 + t_0)^2 overflows every second-order coefficient; the 'ddag'
    # coefficient holds i (T_0 + t_0) alone, which stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tag in tags:
            with pytest.raises(IntegrationError, match="non-finite") as info:
                mon.Propagator(reference, np.array(t)).interval_transfers(tag)
            assert info.value.location == reference.lambdas[0], tag


@pytest.mark.parametrize("t0", [1e10, 1e15, 1e200])
def test_inaccurate_constant_transfer_says_so(reference, t0):
    # the 'ddag' coefficient i (T_0 + t_0) stays finite, but the exponential
    # of so large an |M ds|_1 has lost its accuracy (|det| = 1 exactly)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrationError, match="inaccurate") as info:
            mon.Propagator(reference, np.array([t0, 0.15, -0.2, 0.3])
                           ).interval_transfers("ddag")
    assert info.value.location == reference.lambdas[0]


def test_constant_transfer_below_the_norm_bound_is_accurate(reference):
    # at t_0 = 1e6 the exponential is kept, and unitary to about u |M ds|_1
    T = mon.Propagator(reference, np.array([1e6, 0.15, -0.2, 0.3])
                       ).interval_transfers("ddag")[0]
    assert abs(abs(np.linalg.det(T)) - 1.0) < 1e-9


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, True, "1e-10"])
def test_tol_must_be_a_positive_finite_real(reference, tol):
    # rejected once, where the flows are set up, before any integration
    data = nahm.from_dict(degree1_config(reference))
    t = np.array([0.25, 0.15, -0.2, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (connection.gauge_potential, mon.regularity,
                     lambda d, p, tol: oracle.zero_modes(d, p, tol=tol)):
            with pytest.raises(ValueError, match="tol must be a positive finite real"):
                call(data, t, tol=tol)


def test_transfer_constant_coefficient():
    rng = np.random.default_rng(3)
    C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = mon.transfer(stacked(lambda s: C), 0.0, 1.7, tol=1e-12)
    assert np.max(np.abs(got - expm(1.7 * C))) < 1e-10


def test_transfer_scalar_oracle():
    # y' = i s y  =>  y(s1)/y(s0) = exp(i (s1^2 - s0^2) / 2)
    got = mon.transfer(stacked(lambda s: np.array([[1j * s]])), 0.3, 2.1,
                       tol=1e-12)
    want = np.exp(0.5j * (2.1 ** 2 - 0.3 ** 2))
    assert abs(got[0, 0] - want) < 1e-11


def test_transfer_composition_and_inverse():
    rng = np.random.default_rng(4)
    C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    @stacked
    def coeff(s):
        return C * np.cos(s)

    full = mon.transfer(coeff, 0.0, 2.0, tol=1e-12)
    half = mon.transfer(coeff, 1.0, 2.0, tol=1e-12) @ mon.transfer(
        coeff, 0.0, 1.0, tol=1e-12)
    assert np.max(np.abs(full - half)) < 1e-10
    # transfers run forward only: an end point below s0, or not a number,
    # is rejected on the adaptive and on the exponential path alike
    for s1 in (0.0, np.nan):
        with pytest.raises(ValueError, match="forward"):
            mon.transfer(coeff, 2.0, s1, tol=1e-12)
        with pytest.raises(ValueError, match="forward"):
            mon.transfer(lambda s: C, 2.0, s1, constant=True)
    with pytest.raises(ValueError, match="forward"):
        mon.transfer(lambda s: C, 1.0, np.array([1.5, 0.5]), constant=True)


def test_transfer_tolerance_scaling():
    C = np.array([[0.0, 1.0], [-4.0, 0.0]], dtype=complex)

    @stacked
    def coeff(s):
        return C * (1.0 + 0.5 * np.sin(3 * s))

    ref = mon.transfer(coeff, 0.0, TWO_PI, tol=1e-13)
    e_loose = np.max(np.abs(mon.transfer(coeff, 0.0, TWO_PI, tol=1e-6) - ref))
    e_tight = np.max(np.abs(mon.transfer(coeff, 0.0, TWO_PI, tol=1e-10) - ref))
    assert e_tight < e_loose
    assert e_tight < 1e-8


def test_expm_matches_scipy():
    rng = np.random.default_rng(12)
    for m in range(1, 9):
        for norm in (1e-3, 1e-1, 1.0, 5.0, 20.0, 50.0):
            A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            A *= norm / np.max(np.sum(np.abs(A), axis=0))
            want = expm(A)
            err = np.linalg.norm(mon.expm(A) - want, 1) / np.linalg.norm(want, 1)
            assert err < 1e-13, (m, norm, err)


def test_expm_nilpotent_is_exact():
    for s in (0.1, 1.0 / 3.0, -2.5, 7.3, 123.456):
        got = mon.expm(np.array([[0.0, s], [0.0, 0.0]]))
        assert np.array_equal(got, np.array([[1.0, s], [0.0, 1.0]])), s


def test_expm_stack_matches_each_matrix():
    # 1-norms on both sides of the scaling threshold, so that each matrix of
    # the stack takes its own number of squarings
    rng = np.random.default_rng(14)
    A = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    norms = np.array([1e-3, 0.5, 3.0, 10.0, 40.0, 200.0])
    A *= (norms / np.abs(A).sum(axis=-2).max(axis=-1))[:, None, None]
    got = mon.expm(A)
    for X, Y in zip(A, got):
        assert np.max(np.abs(Y - mon.expm(X))) < 1e-15 * np.max(np.abs(Y))
    assert np.array_equal(mon.expm(A.reshape(2, 3, 4, 4)), got.reshape(2, 3, 4, 4))


def test_interval_states_overflow_raises(reference):
    # the stacked exponential keeps the non-finite check of transfer(constant=True)
    prop = mon.Propagator(reference, np.array([0.3, 1e300, 0.0, 0.0]))
    a, b = reference.interval_bounds(0)
    with pytest.raises(IntegrationError) as info:
        prop.interval_states("ddag", 0, [0.5 * (a + b), b], np.eye(2))
    assert info.value.location == a


def test_constant_transfer_matches_adaptive():
    rng = np.random.default_rng(13)
    data = oracle.random_valid_data(rng, k=2, n=3)
    t = np.array([0.3, 0.2, -0.25, 0.1])
    for tag in nahm.FLOWS:
        for i in range(data.n):
            coeff = nahm.flow_coefficient(data, t, i, tag)
            a, b = data.interval_bounds(i)
            exact = mon.transfer(coeff, a, b, constant=True)
            adaptive = mon.transfer(coeff, a, b, tol=1e-12)
            # mixed absolute/relative, as the adaptive path controls its error
            scale = max(1.0, np.max(np.abs(adaptive)))
            assert np.max(np.abs(exact - adaptive)) < 1e-9 * scale, (tag, i)


def test_constant_transfer_evaluates_coeff_once():
    C = np.array([[0.0, 1.0], [-4.0, 0.3j]])
    calls = []

    def coeff(s):
        calls.append(s)
        return C

    got = mon.transfer(coeff, 0.2, 1.9, constant=True)
    assert calls == [0.2]
    assert np.max(np.abs(got - expm(1.7 * C))) < 1e-13


def test_constant_transfer_to_many_points_is_stacked():
    rng = np.random.default_rng(18)
    C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ends = np.sort(rng.uniform(0.2, 3.0, size=7))
    got = mon.transfer(lambda s: C, 0.2, ends, constant=True)
    assert got.shape == (7, 4, 4)
    for Y, x in zip(got, ends):
        assert np.array_equal(Y, mon.transfer(lambda s: C, 0.2, x, constant=True))


def test_constant_transfer_overflow_raises():
    C = np.array([[1e200, 1.0], [0.0, 1e200]])
    with pytest.raises(IntegrationError) as info:
        mon.transfer(lambda s: C, 0.5, 2.0, constant=True)
    assert info.value.location == 0.5
    with pytest.raises(IntegrationError):
        mon.transfer(lambda s: np.array([[np.inf]]), 0.5, 2.0, constant=True)


def test_transfer_step_limit(monkeypatch):
    monkeypatch.setattr(mon, "_MAX_STEPS", 3)
    with pytest.raises(IntegrationError):
        mon.transfer(stacked(lambda s: np.array([[1j * np.cos(s)]])), 0.0,
                     TWO_PI, tol=1e-12)


# ------------------------------------------------- first-order monodromy

def test_free_first_order_monodromy(free_data):
    # constant coefficient: the loop is a matrix exponential
    t = np.array([0.35, 0.2, -0.4, 0.1])
    loop = mon.Propagator(free_data, t, 1e-12).loop("ddag")
    M = np.kron(np.eye(2), 1j * t[0] * np.eye(1))
    for j in (1, 2, 3):
        M = M - np.kron(spin.pauli(j), t[j] * np.eye(1))
    assert np.max(np.abs(loop - expm(TWO_PI * M))) < 1e-9
    # eigenvalues e^{2 pi (i t0 +/- r)}
    r = np.linalg.norm(t[1:])
    eig = np.sort_complex(np.linalg.eigvals(loop))
    want = np.sort_complex(np.array([
        np.exp(TWO_PI * (1j * t[0] - r)),
        np.exp(TWO_PI * (1j * t[0] + r))]))
    assert np.max(np.abs(eig - want)) < 1e-9


def test_phase_law_spot():
    rng = np.random.default_rng(11)
    for _ in range(2):
        data = oracle.random_valid_data(rng, k=1, n=2, magnitude=0.25)
        tvec = np.concatenate([[0.0], rng.uniform(-0.3, 0.3, size=3)])
        t0 = 0.7
        base = mon.Propagator(data, tvec, 1e-12).loop("ddag")
        shifted = mon.Propagator(
            data, tvec + np.array([t0, 0, 0, 0]), 1e-12).loop("ddag")
        defect = np.max(np.abs(shifted - np.exp(TWO_PI * 1j * t0) * base))
        assert defect < 1e-9


# ------------------------------------------------ second-order structure

def test_companion_shapes(reference):
    t = np.zeros(4)
    prop = mon.Propagator(reference, t)
    assert prop.interval_transfers("finv")[0].shape == (2, 2)
    assert oracle._LiftedEvaluator(reference, t).steps("ddagd").shape == (2, 4, 4)
    # D is the adjoint of the D^dagger flow, which regularity reads it from,
    # and D D^dagger the lift of finv the oracle builds: no flows of their own
    for tag in ("bogus", "d", "ddagd"):
        with pytest.raises(ValueError):
            prop.interval_transfers(tag)
        with pytest.raises(ValueError, match="unknown flow tag"):
            nahm.flow_coefficient(reference, t, 0, tag)


def test_jump_lift_identity():
    # the oracle's D D^dagger steps, the finv steps lifted by kron(id2, .)
    # with J_ddagd = kron(id2, J_finv) - Q Q^dag, against the transfer of
    # the pointwise 'ddagd' matrix and the jump map of the closed form
    # J_ddagd = kron(id2, i Delta T_0) - sum_j kron(E_j, (Q Q^dag)_j), read
    # off the one-sided evaluations and the spin parts; degree 0 (exact
    # exponentials) and degree 4 (adaptive)
    t = np.array([0.3, 0.2, -0.25, 0.1])
    for data in _jump_data():
        steps = oracle._LiftedEvaluator(data, t, 1e-12).steps("ddagd")
        for i in range(data.n):
            alpha = (i + 1) % data.n
            lam = data.lambdas[alpha]
            dT0 = (nahm.eval_T(data, 0, lam, side="right")
                   - nahm.eval_T(data, 0, lam, side="left"))
            parts = nahm.q_spin_parts(data, alpha)
            J = np.kron(np.eye(2), 1j * dT0) - sum(
                np.kron(spin.E[j], parts[j]) for j in (1, 2, 3))
            want = jump_map(J) @ mon.transfer(pointwise_flow(data, t, i, "ddagd"),
                                              *data.interval_bounds(i), 1e-12)
            err = np.max(np.abs(steps[i] - want))
            assert err < 1e-9 * np.max(np.abs(want)), (data.k, i, err)


def _jump_data():
    rng = np.random.default_rng(6)
    return ([oracle.random_valid_data(rng, k=k, n=3) for k in (1, 2, 3)]
            + [random_poly_data(rng, k=2, n=3, degree=4)])


def test_jump_block_closed_form():
    # J against the spin parts of Q Q^dag and the jump of T_0 read off the
    # one-sided evaluations, as the jump maps were built before
    for data in _jump_data():
        for alpha in range(data.n):
            lam = data.lambdas[alpha]
            dT0 = (nahm.eval_T(data, 0, lam, side="right")
                   - nahm.eval_T(data, 0, lam, side="left"))
            want = 1j * dT0 + nahm.q_spin_parts(data, alpha)[0]
            got = mon.jump_block(data, alpha)
            assert np.max(np.abs(got - want)) < 1e-14, (data.k, alpha)


def test_steps_apply_the_full_jump_map():
    # the row update of Propagator.steps against the kron'd jump map times
    # the transfer, for every second-order flow
    t = np.array([0.3, 0.2, -0.25, 0.1])
    for data in _jump_data():
        prop = mon.Propagator(data, t)
        for tag in nahm.JET:
            T = prop.interval_transfers(tag)
            steps = prop.steps(tag)
            for i in range(data.n):
                want = second_order_jump(data, (i + 1) % data.n, tag) @ T[i]
                err = np.max(np.abs(steps[i] - want))
                assert err <= 1e-14 * np.max(np.abs(want)), (data.k, tag, i)
            assert not np.array_equal(steps, np.array(T)), tag


def test_regularity_report(reference, free_data):
    rep = mon.regularity(reference, np.array([0.25, 0.15, -0.2, 0.3]))
    assert rep.is_regular
    assert rep.gap_ddag > 0.1 and rep.gap_d > 0.1
    # the free field at t = 0 is the canonical irregular point
    rep0 = mon.regularity(free_data, np.zeros(4))
    assert not rep0.is_regular
    assert rep0.gap_ddag < 1e-8


def test_gap_d_matches_an_independent_d_flow(reference):
    # the D flow integrated from its own pointwise matrix: its loop is the
    # inverse adjoint of the D^dagger loop, and its gap is the one
    # regularity derives from that loop alone
    rng = np.random.default_rng(8)
    cases = [(reference, np.array([0.25, 0.15, -0.2, 0.3])),
             (oracle.random_valid_data(rng, k=2, n=3), np.array([0.3, 0.2, -0.25, 0.1])),
             (random_poly_data(rng), rng.uniform(-0.8, 0.8, size=4))]
    for data, t in cases:
        Y = np.eye(2 * data.k)
        for i in range(data.n):
            Y = mon.transfer(pointwise_flow(data, t, i, "d"),
                             *data.interval_bounds(i), tol=1e-12) @ Y
        ddag = mon.Propagator(data, t, 1e-12).loop("ddag")
        scale = max(1.0, np.max(np.abs(Y)))
        assert np.max(np.abs(Y - np.linalg.inv(ddag).conj().T)) < 1e-9 * scale
        gap = np.min(np.abs(np.linalg.eigvals(Y) - 1.0))
        assert abs(gap - mon.regularity(data, t, tol=1e-12).gap_d) < 1e-9 * scale


def test_steps_and_loop_from_the_pointwise_flow(reference):
    # each step against its transfer integrated from the pointwise flow
    # matrix, then the jump at its end; the loop is their ordered product
    rng = np.random.default_rng(13)
    tol = 1e-12
    cases = [(reference, np.array([0.25, 0.15, -0.2, 0.3])),
             (oracle.random_valid_data(rng, k=2, n=3, magnitude=0.3),
              np.array([0.3, 0.2, -0.25, 0.1])),
             (random_poly_data(rng), rng.uniform(-0.8, 0.8, size=4))]
    for case, (data, t) in enumerate(cases):
        prop = mon.Propagator(data, t, tol)
        for tag in nahm.FLOWS:
            steps = prop.steps(tag)
            assert len(steps) == data.n
            for i in range(data.n):
                T = mon.transfer(pointwise_flow(data, t, i, tag),
                                 *data.interval_bounds(i), tol)
                if tag != "ddag":
                    T = second_order_jump(data, (i + 1) % data.n, tag) @ T
                assert np.max(np.abs(steps[i] - T)) < 1e-9, (case, tag, i)
            want = np.eye(len(steps[0]))
            for step in steps:
                want = step @ want
            assert np.max(np.abs(prop.loop(tag) - want)) < 1e-9, (case, tag)


def test_three_vector_t_is_rejected(reference):
    t = np.array([0.25, 0.15, -0.2])
    with pytest.raises(ValueError, match="4-vector"):
        mon.regularity(reference, t)
    for tag in ("ddag", "finv"):
        with pytest.raises(ValueError, match="4-vector"):
            mon.Propagator(reference, t).loop(tag)
    with pytest.raises(ValueError, match="4-vector"):
        nahm.flow_coefficient(reference, t, 0, "finv")


# ------------------------------------------------------- mollifier tests

def _logistic(u):
    return 1.0 / (1.0 + np.exp(-np.clip(u, -60.0, 60.0)))


def _constant_loop_from_zero(data, t):
    """Loop of the finv flow based at s = 0 (not a marked point) on
    degree-0 data: the exponential of the constant coefficient over every
    piece between marked points, and the jump at each of them."""
    def piece(i, length):
        a = data.interval_bounds(i)[0]
        return mon.expm(nahm.flow_coefficient(data, t, i, "finv")(a) * length)

    pos, loop = 0.0, None
    for alpha, lam in enumerate(data.lambdas):
        step = piece(alpha - 1 if alpha else data.n - 1, lam - pos)
        step = second_order_jump(data, alpha) @ step
        loop = step if loop is None else step @ loop
        pos = lam
    return piece(data.n - 1, TWO_PI - pos) @ loop


def _step_data():
    """k=1, n=3 dataset: T_3 = +1/4, -1/4, +1/4 on the intervals from 0,
    pi/2 and 3 pi/2, unit boundary vectors at pi/2 and 3 pi/2.  The marked
    point at 0 has a zero Q and no jump, so a loop based there is the loop
    from s = 0."""
    z = zero_mat(1)

    def interval(t3):
        return {"degree": 0, "T": {"0": [z], "1": [z], "2": [z], "3": [[[[t3, 0.0]]]]}}

    return nahm.from_dict({
        "k": 1,
        "lambdas": [0.0, float(np.pi / 2), float(3 * np.pi / 2)],
        "intervals": [interval(0.25), interval(-0.25), interval(0.25)],
        "Q": [[[[0.0, 0.0]], [[0.0, 0.0]]],
              [[[1.0, 0.0]], [[0.0, 0.0]]],
              [[[0.0, 0.0]], [[1.0, 0.0]]]],
    })


def test_delta_potential_against_gaussian_mollifier():
    """finv jump convention: a narrow Gaussian potential converges to it.

    Dataset with T == 0 and Q Q^dag = c id2: no jump in T, but a
    delta potential of weight c in the scalar second-order operator.
    """
    c = 0.6
    q = float(np.sqrt(c))
    data = nahm.from_dict({
        "k": 1,
        "lambdas": [float(np.pi)],
        "intervals": [{"degree": 0,
                       "T": {str(mu): [zero_mat(1)] for mu in range(4)}}],
        "Q": [[[[q, 0.0], [0.0, 0.0]], [[0.0, 0.0], [q, 0.0]]]],
    })
    assert np.max(np.abs(nahm.matching_residual(data, 0))) < 1e-14
    t = np.array([0.3, 0.2, -0.1, 0.15])
    exact = _constant_loop_from_zero(data, t)
    base = t[0] ** 2 + t[1] ** 2 + t[2] ** 2 + t[3] ** 2

    def mollified(width):
        @stacked
        def coeff(s):
            bump = np.exp(-0.5 * ((s - np.pi) / width) ** 2) \
                / (width * np.sqrt(TWO_PI))
            C = base + c * bump
            return np.array([[0.0, 1.0], [C, 2j * t[0]]], dtype=complex)
        return mon.transfer(coeff, 0.0, TWO_PI, tol=1e-11)

    mats = [mollified(w) for w in (0.2, 0.1, 0.05)]
    errs = [np.max(np.abs(m - exact)) for m in mats]
    # first-order convergence in the width ...
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert 1.6 < errs[0] / errs[1] < 2.6
    assert 1.6 < errs[1] / errs[2] < 2.6
    # ... towards this limit and no other: Richardson kills the O(w) term
    rich = 2.0 * mats[2] - mats[1]
    assert np.max(np.abs(rich - exact)) < 0.2 * errs[2]
    # sanity: the jump actually matters (dropping it moves the answer a lot)
    no_jump = mon.transfer(
        stacked(lambda s: np.array([[0.0, 1.0], [base, 2j * t[0]]], dtype=complex)),
        0.0, TWO_PI, tol=1e-11)
    assert np.max(np.abs(no_jump - exact)) > 10 * errs[2]


def test_matching_sign_against_smooth_step():
    """D D^dagger jump convention: smooth-step data converges to the loop of
    the oracle's lifted steps.

    The smoothed T_3 makes i T_3' a narrow bump whose integral is the
    matching jump; the full (off-shell) coefficient then converges to the
    on-shell jump composition as the step sharpens.
    """
    data = _step_data()
    for alpha in range(data.n):
        assert np.max(np.abs(nahm.matching_residual(data, alpha))) < 1e-14
    t = np.array([0.3, 0.2, -0.1, 0.15])
    exact = oracle._LiftedEvaluator(data, t).loop("ddagd")
    E3 = spin.E[3]
    id2 = np.eye(2)

    def mollified(eps):
        def t3(s):
            return 0.25 - 0.5 * (_logistic((s - np.pi / 2) / eps)
                                 - _logistic((s - 3 * np.pi / 2) / eps))

        def dt3(s):
            e1 = _logistic((s - np.pi / 2) / eps)
            e2 = _logistic((s - 3 * np.pi / 2) / eps)
            return -0.5 * (e1 * (1 - e1) - e2 * (1 - e2)) / eps

        @stacked
        def coeff(s):
            C = (t[0] ** 2 + t[1] ** 2 + t[2] ** 2
                 + (t3(s) + t[3]) ** 2) * id2 + 1j * dt3(s) * E3
            M = np.zeros((4, 4), dtype=complex)
            M[:2, 2:] = id2
            M[2:, :2] = C
            M[2:, 2:] = 2j * t[0] * id2
            return M
        return mon.transfer(coeff, 0.0, TWO_PI, tol=1e-11)

    errs = [np.max(np.abs(mollified(e) - exact)) for e in (0.08, 0.04, 0.02)]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < 5e-3
    # zeroing the boundary vectors (wrong jump maps for this T) lands far
    # away, so the convergence above really tests the jump composition
    cfg = nahm.to_dict(data)
    cfg["Q"] = [[[[0.0, 0.0]], [[0.0, 0.0]]]] * data.n
    nojump = oracle._LiftedEvaluator(nahm.from_dict(cfg), t).loop("ddagd")
    assert np.max(np.abs(nojump - exact)) > 10 * errs[2]

"""Transfer-matrix integrator and circle monodromies.

The two mollifier tests at the bottom pin down the delta-function
conventions: they integrate a smoothed version of the singular ODE with a
generic solver and check convergence to the jump-composed monodromy.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from caloron import monodromy as mon
from caloron import nahm, oracle, spin
from caloron.errors import IntegrationError

from conftest import pointwise_flow, random_poly_data, zero_mat

TWO_PI = 2.0 * np.pi


# ------------------------------------------------------------ integrator

def test_transfer_constant_coefficient():
    rng = np.random.default_rng(3)
    C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = mon.transfer(lambda s: C, 0.0, 1.7, tol=1e-12)
    assert np.max(np.abs(got - expm(1.7 * C))) < 1e-10


def test_transfer_scalar_oracle():
    # y' = i s y  =>  y(s1)/y(s0) = exp(i (s1^2 - s0^2) / 2)
    got = mon.transfer(lambda s: np.array([[1j * s]]), 0.3, 2.1, tol=1e-12)
    want = np.exp(0.5j * (2.1 ** 2 - 0.3 ** 2))
    assert abs(got[0, 0] - want) < 1e-11


def test_transfer_composition_and_inverse():
    rng = np.random.default_rng(4)
    C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    def coeff(s):
        return C * np.cos(s)

    full = mon.transfer(coeff, 0.0, 2.0, tol=1e-12)
    half = mon.transfer(coeff, 1.0, 2.0, tol=1e-12) @ mon.transfer(
        coeff, 0.0, 1.0, tol=1e-12)
    assert np.max(np.abs(full - half)) < 1e-10
    # backwards integration inverts the forward map
    back = mon.transfer(coeff, 2.0, 0.0, tol=1e-12)
    assert np.max(np.abs(back @ full - np.eye(3))) < 1e-10


def test_transfer_tolerance_scaling():
    C = np.array([[0.0, 1.0], [-4.0, 0.0]], dtype=complex)

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


def test_constant_transfer_matches_dp45():
    rng = np.random.default_rng(13)
    data = oracle.random_valid_data(rng, k=2, n=3)
    t = np.array([0.3, 0.2, -0.25, 0.1])
    for tag in ("ddag", "finv", "ddagd", "dfinv", "ddfinv"):
        for i in range(data.n):
            coeff = nahm.flow_coefficient(data, t, i, tag)
            a, b = data.interval_bounds(i)
            exact = mon.transfer(coeff, a, b, constant=True)
            dp45 = mon.transfer(coeff, a, b, tol=1e-12)
            # mixed absolute/relative, as DP45 controls its error
            scale = max(1.0, np.max(np.abs(dp45)))
            assert np.max(np.abs(exact - dp45)) < 1e-9 * scale, (tag, i)


def test_constant_transfer_evaluates_coeff_once():
    C = np.array([[0.0, 1.0], [-4.0, 0.3j]])
    calls = []

    def coeff(s):
        calls.append(s)
        return C

    got = mon.transfer(coeff, 0.2, 1.9, constant=True)
    assert calls == [0.2]
    assert np.max(np.abs(got - expm(1.7 * C))) < 1e-13


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
        mon.transfer(lambda s: np.array([[1j * np.cos(s)]]), 0.0, TWO_PI,
                     tol=1e-12)


# ------------------------------------------------- first-order monodromy

def test_free_first_order_monodromy(free_data):
    # constant coefficient: the loop is a matrix exponential
    t = np.array([0.35, 0.2, -0.4, 0.1])
    loop = mon.Propagator(free_data, t, 1e-12).loop("ddag", 0.0)
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


def test_first_order_base_point_conjugation(reference):
    t = np.array([0.25, 0.15, -0.2, 0.3])
    prop = mon.Propagator(reference, t)
    m1 = prop.loop("ddag", 0.3)
    m2 = prop.loop("ddag", 2.9)
    e1 = np.linalg.eigvals(m1)
    e2 = np.linalg.eigvals(m2)
    # pair the spectra by nearest match: a sort of purely imaginary pairs
    # would order them by the rounding in their real parts
    mismatch = min(np.max(np.abs(e1 - e2[list(p)]))
                   for p in itertools.permutations(range(len(e2))))
    assert mismatch < 1e-8


def test_phase_law_spot():
    rng = np.random.default_rng(11)
    for _ in range(2):
        data = oracle.random_valid_data(rng, k=1, n=2, magnitude=0.25)
        tvec = np.concatenate([[0.0], rng.uniform(-0.3, 0.3, size=3)])
        t0 = 0.7
        y = data.lambdas[0]
        base = mon.Propagator(data, tvec, 1e-12).loop("ddag", y)
        shifted = mon.Propagator(
            data, tvec + np.array([t0, 0, 0, 0]), 1e-12).loop("ddag", y)
        defect = np.max(np.abs(shifted - np.exp(TWO_PI * 1j * t0) * base))
        assert defect < 1e-9


# ------------------------------------------------ second-order structure

def test_companion_shapes(reference):
    t = np.zeros(4)
    prop = mon.Propagator(reference, t)
    assert prop.interval_transfers("finv")[0].shape == (2, 2)
    assert prop.interval_transfers("ddagd")[0].shape == (4, 4)
    # D is the adjoint of the D^dagger flow, which regularity reads it from:
    # no flow of its own
    for tag in ("bogus", "d"):
        with pytest.raises(ValueError):
            prop.interval_transfers(tag)
        with pytest.raises(ValueError, match="unknown flow tag"):
            nahm.flow_coefficient(reference, t, 0, tag)


def test_jump_lift_identity():
    # kron(id2, J_finv) = J_ddagd + Q Q^dag, blockwise on the companion
    rng = np.random.default_rng(5)
    for k, n in ((1, 2), (2, 2)):
        data = oracle.random_valid_data(rng, k=k, n=n)
        for alpha in range(n):
            jf = mon.second_order_jump(data, alpha, "finv")[k:, :k]
            jd = mon.second_order_jump(data, alpha, "ddagd")[2 * k:, :2 * k]
            q = data.Q[alpha]
            assert np.allclose(np.kron(np.eye(2), jf), jd + q @ q.conj().T,
                               atol=1e-13)


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
        ddag = mon.Propagator(data, t, 1e-12).loop("ddag", data.lambdas[0])
        scale = max(1.0, np.max(np.abs(Y)))
        assert np.max(np.abs(Y - np.linalg.inv(ddag).conj().T)) < 1e-9 * scale
        gap = np.min(np.abs(np.linalg.eigvals(Y) - 1.0))
        assert abs(gap - mon.regularity(data, t, tol=1e-12).gap_d) < 1e-9 * scale


def test_full_loop_path_matrix_is_the_loop():
    # the unreduced difference x - y decides: y + 2*pi is always the loop,
    # also where its float difference rounds just above 2*pi
    rng = np.random.default_rng(14)
    data = oracle.random_valid_data(rng, k=2, n=3)
    prop = mon.Propagator(data, np.array([0.3, 0.2, -0.25, 0.1]))
    bases = [float(y) for y in np.linspace(0.0, TWO_PI, 64, endpoint=False)]
    bases += [float(lam) for lam in data.lambdas]
    for tag in ("ddag", "finv", "ddagd", "dfinv", "ddfinv"):
        for y in bases:
            assert np.array_equal(prop.path_matrix(tag, y, y + TWO_PI),
                                  prop.loop(tag, y)), (tag, y)


def test_three_vector_t_is_rejected(reference):
    t = np.array([0.25, 0.15, -0.2])
    with pytest.raises(ValueError, match="4-vector"):
        mon.regularity(reference, t)
    for tag in ("ddag", "finv"):
        with pytest.raises(ValueError, match="4-vector"):
            mon.Propagator(reference, t).loop(tag, 2.0)
    with pytest.raises(ValueError, match="4-vector"):
        nahm.flow_coefficient(reference, t, 0, "finv")


# ------------------------------------------------------- mollifier tests

def _logistic(u):
    return 1.0 / (1.0 + np.exp(-np.clip(u, -60.0, 60.0)))


def _step_data():
    """k=1, n=2 dataset: T_3 = -1/4 then +1/4, unit boundary vectors."""
    z = zero_mat(1)
    return nahm.from_dict({
        "k": 1,
        "lambdas": [float(np.pi / 2), float(3 * np.pi / 2)],
        "intervals": [
            {"degree": 0, "T": {"0": [z], "1": [z], "2": [z],
                                "3": [[[[-0.25, 0.0]]]]}},
            {"degree": 0, "T": {"0": [z], "1": [z], "2": [z],
                                "3": [[[[0.25, 0.0]]]]}},
        ],
        "Q": [[[[1.0, 0.0]], [[0.0, 0.0]]],
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
    exact = mon.Propagator(data, t).loop("finv", 0.0)
    base = t[0] ** 2 + t[1] ** 2 + t[2] ** 2 + t[3] ** 2

    def mollified(width):
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
        lambda s: np.array([[0.0, 1.0], [base, 2j * t[0]]], dtype=complex),
        0.0, TWO_PI, tol=1e-11)
    assert np.max(np.abs(no_jump - exact)) > 10 * errs[2]


def test_matching_sign_against_smooth_step():
    """ddagd jump convention: smooth-step data converges to the jump map.

    The smoothed T_3 makes i T_3' a narrow bump whose integral is the
    matching jump; the full (off-shell) coefficient then converges to the
    on-shell jump composition as the step sharpens.
    """
    data = _step_data()
    for alpha in range(2):
        assert np.max(np.abs(nahm.matching_residual(data, alpha))) < 1e-14
    t = np.array([0.3, 0.2, -0.1, 0.15])
    exact = mon.Propagator(data, t).loop("ddagd", 0.0)
    E3 = spin.e_unit(3)
    id2 = np.eye(2)

    def mollified(eps):
        def t3(s):
            return 0.25 - 0.5 * (_logistic((s - np.pi / 2) / eps)
                                 - _logistic((s - 3 * np.pi / 2) / eps))

        def dt3(s):
            e1 = _logistic((s - np.pi / 2) / eps)
            e2 = _logistic((s - 3 * np.pi / 2) / eps)
            return -0.5 * (e1 * (1 - e1) - e2 * (1 - e2)) / eps

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
    cfg["Q"] = [[[[0.0, 0.0]], [[0.0, 0.0]]],
                [[[0.0, 0.0]], [[0.0, 0.0]]]]
    nojump = mon.Propagator(nahm.from_dict(cfg), t).loop("ddagd", 0.0)
    assert np.max(np.abs(nojump - exact)) > 10 * errs[2]

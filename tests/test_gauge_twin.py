"""End to end on non-constant Nahm data: a polynomial gauge-equivalent twin.

A periodic gauge transformation g(s) = exp(i phi(s) X) maps valid data to
valid data,

    T_0 -> g T_0 g^dag + phi'(s) X,   T_j -> g T_j g^dag,
    Q_alpha -> (id2 (x) g(lambda_alpha)) Q_alpha,

and leaves Q^dag F Q, chi and A unchanged.  Fitting the image by Chebyshev
polynomials gives degree > 0, non-commuting data whose potential must match
that of the piecewise-constant original.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from caloron import connection, greens, monodromy, nahm, oracle

DEGREE = 16
AMPLITUDE = 0.3   # phi(s) = AMPLITUDE * sin(s)


def _pairs(arr):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def gauge_twin(data, X):
    """Degree-DEGREE Chebyshev fit of data under g(s) = exp(i phi(s) X)."""
    w, V = np.linalg.eigh(X)

    def g(s):
        return (V * np.exp(1j * AMPLITUDE * np.sin(s) * w)) @ V.conj().T

    u = np.cos(np.pi * (np.arange(DEGREE + 1) + 0.5) / (DEGREE + 1))
    intervals = []
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        const = data.intervals[i].coeffs[:, 0]
        vals = np.empty((4, DEGREE + 1, data.k, data.k), dtype=complex)
        for p, s in enumerate(0.5 * (a + b) + 0.5 * (b - a) * u):
            gs = g(s)
            for mu in range(4):
                vals[mu, p] = gs @ const[mu] @ gs.conj().T
            vals[0, p] += AMPLITUDE * np.cos(s) * X
        T = {}
        for mu in range(4):
            c = chebyshev.chebfit(u, vals[mu].reshape(DEGREE + 1, -1), DEGREE)
            c = c.reshape(DEGREE + 1, data.k, data.k)
            T[str(mu)] = _pairs(0.5 * (c + c.conj().transpose(0, 2, 1)))
        intervals.append({"degree": DEGREE, "T": T})
    return nahm.from_dict({
        "k": data.k,
        "lambdas": [float(x) for x in data.lambdas],
        "intervals": intervals,
        "Q": [_pairs(np.kron(np.eye(2), g(lam)) @ q)
              for lam, q in zip(data.lambdas, data.Q)],
    })


@pytest.fixture(scope="module")
def twin_case():
    rng = np.random.default_rng(42)
    data = oracle.random_valid_data(rng, k=2, n=3, magnitude=0.3)
    t = oracle.random_regular_t(data, rng)
    X = np.array([[0.6, 0.3 - 0.5j], [0.3 + 0.5j, -0.2]])
    return data, gauge_twin(data, X / np.linalg.norm(X)), t


def test_twin_is_on_shell(twin_case):
    _, twin, _ = twin_case
    assert all(iv.degree == DEGREE for iv in twin.intervals)
    worst = 0.0
    for i in range(twin.n):
        a, b = twin.interval_bounds(i)
        for s in np.linspace(a, b, 9)[1:-1]:
            worst = max(worst, float(np.max(np.abs(nahm.nahm_residual(twin, s)))))
    assert worst < 1e-7   # Chebyshev fit error
    for alpha in range(twin.n):
        assert np.max(np.abs(nahm.matching_residual(twin, alpha))) < 1e-8


def test_twin_potential_matches_constant_data(twin_case):
    data, twin, t = twin_case
    dA = np.max(np.abs(connection.gauge_potential(twin, t).A
                       - connection.gauge_potential(data, t).A))
    assert dA < 1e-6


def test_twin_potential_chi_matches_boundary_greens(twin_case):
    _, twin, t = twin_case
    chi = connection.chi_from_boundary(twin, greens.boundary_greens(twin, t))
    assert np.max(np.abs(connection.gauge_potential(twin, t).chi - chi)) < 1e-9


def test_twin_potential_builds_each_coefficient_once(twin_case, monkeypatch):
    # one gauge_potential integrates the gradient flow alone and builds the
    # coefficient series of each (tag, interval) at most once
    _, twin, t = twin_case
    builds = []
    original = nahm.flow_coefficient

    def counted(data, t, i, tag):
        builds.append((tag, i))
        return original(data, t, i, tag)

    monkeypatch.setattr(nahm, "flow_coefficient", counted)
    connection.gauge_potential(twin, t)
    assert sorted(builds) == [("dfinv", i) for i in range(twin.n)]
    # the closed and the partial spans of an interval share its cached
    # coefficient
    prop = monodromy.Propagator(twin, t)
    a, b = twin.interval_bounds(0)
    before = len(builds)
    prop.interval_transfers("ddag")
    assert sorted(builds[before:]) == [("ddag", i) for i in range(twin.n)]
    before = len(builds)
    prop.interval_states("ddag", 0, np.linspace(a, b, 6)[1:-1], np.eye(2 * twin.k))
    assert len(builds) == before and len(prop._spans) == 4


def test_twin_curvature_matches_constant_data(twin_case):
    # the curvature is gauge invariant on the boundary space, like A
    data, twin, t = twin_case
    dF = np.max(np.abs(connection.curvature(twin, t).F
                       - connection.curvature(data, t).F))
    assert dF < 1e-8


def test_twin_df_exact_vs_integral(twin_case):
    # the gradient walk against the quadrature of -2 int F D_nu F ds; 1e-8
    # is the quadrature's floor on adaptively integrated data
    _, twin, t = twin_case
    ev = greens.GreensEvaluator(twin, t)
    exact = ev.boundary(order=1).dF
    for nu in range(4):
        quad = oracle._df_integral(ev, nu, quad_tol=1e-8)
        assert np.max(np.abs(exact[nu] - quad)) < 1e-8


def test_twin_gram_identity(twin_case):
    # psi^dag psi is gauge invariant, so the Gram matrix is the constant
    # data's: the degree > 0 (adaptive) zero modes against an independent answer
    data, twin, t = twin_case
    zm = oracle.zero_modes(twin, t)
    assert zm.gram_defect < 1e-6
    assert np.max(np.abs(zm.gram - oracle.zero_modes(data, t).gram)) < 1e-8

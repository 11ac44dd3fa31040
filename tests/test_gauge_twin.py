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

from caloron import connection, greens, monodromy, nahm, oracle

from conftest import TWIN_DEGREE


def test_twin_is_on_shell(twin_case):
    _, twin, _ = twin_case
    assert all(iv.degree == TWIN_DEGREE for iv in twin.intervals)
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
    assert len(builds) == before


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
        quad = oracle.df_integral(ev, nu, quad_tol=1e-8)
        assert np.max(np.abs(exact[nu] - quad)) < 1e-8


def test_twin_gram_identity(twin_case):
    # psi^dag psi is gauge invariant, so the Gram matrix is the constant
    # data's: the degree > 0 (adaptive) zero modes against an independent answer
    data, twin, t = twin_case
    zm = oracle.zero_modes(twin, t)
    assert zm.gram_defect < 1e-6
    assert np.max(np.abs(zm.gram - oracle.zero_modes(data, t).gram)) < 1e-8

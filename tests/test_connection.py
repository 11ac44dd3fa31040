"""chi, its derivatives, the gauge potential and the curvature."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import sqrtm

from caloron import connection as con
from caloron import greens, nahm, oracle
from caloron.errors import IrregularPointError, PositivityError

from conftest import random_poly_data

T_REF = np.array([0.25, 0.15, -0.2, 0.3])


@pytest.fixture(scope="module")
def cases(reference):
    """The reference data at T_REF, and criterion 11a's k=2, n=3 data."""
    rng = np.random.default_rng(42)
    data = oracle.random_valid_data(rng, k=2, n=3, magnitude=0.3)
    return [(reference, T_REF), (data, oracle.random_regular_t(data, rng))]


@pytest.fixture(scope="module")
def poly_case():
    """k=2, n=2 degree-3 data that no gauge makes constant, at a regular t."""
    rng = np.random.default_rng(7)
    data = random_poly_data(rng, k=2, n=2, degree=3)
    return data, oracle.random_regular_t(data, rng)


def rand_herm(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (M + M.conj().T)


# -------------------------------------------------------------- chi layer

def test_hermitian_sqrt():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    M = X @ X.conj().T + 0.1 * np.eye(5)
    S = con.hermitian_sqrt(M)
    assert np.allclose(S, S.conj().T, atol=1e-13)
    assert np.allclose(S @ S, M, atol=1e-12)
    bad = np.diag([1.0, -0.2])
    with pytest.raises(PositivityError) as exc:
        con.hermitian_sqrt(bad)
    assert exc.value.min_eigenvalue == pytest.approx(-0.2)


def test_chi_squares_to_identity_minus_qfq(reference):
    bg = greens.boundary_greens(reference, T_REF)
    c = con.chi_from_boundary(reference, bg)
    qf = greens.qfq_matrix(reference, bg)
    assert np.allclose(c @ c, np.eye(2) - qf, atol=1e-11)
    assert np.allclose(c, c.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(c).min() > 0


def test_sylvester_derivative_matches_fd():
    rng = np.random.default_rng(9)
    S = rand_herm(rng, 4)
    S = S @ S + 0.3 * np.eye(4)  # positive definite
    dS = rand_herm(rng, 4)
    chi0 = con.hermitian_sqrt(S)
    got = con._sylvester(*np.linalg.eigh(chi0), dS)
    h = 1e-6
    fd = (sqrtm(S + h * dS) - sqrtm(S - h * dS)) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-7
    # defining equation
    assert np.max(np.abs(chi0 @ got + got @ chi0 - dS)) < 1e-12


# ------------------------------------------------------------ dF boundary

def test_df_exact_vs_integral(cases):
    # the augmented walk against the quadrature of -2 int F D_nu F ds
    for data, t in cases:
        ev = greens.GreensEvaluator(data, t)
        exact = ev.boundary(order=1).dF
        for nu in range(4):
            quad = oracle.df_integral(ev, nu, quad_tol=1e-8)
            assert np.max(np.abs(exact[nu] - quad)) < 1e-9


def test_df_exact_vs_integral_on_polynomial_data(poly_case):
    # the gradient walk against the quadrature on non-commuting s-dependent
    # data; the finv operator is self-adjoint for any hermitian T
    data, t = poly_case
    ev = greens.GreensEvaluator(data, t)
    exact = ev.boundary(order=1).dF
    for nu in range(4):
        quad = oracle.df_integral(ev, nu, quad_tol=1e-9)
        assert np.max(np.abs(exact[nu] - quad)) < 1e-8


def test_potential_chi_matches_boundary_greens(cases, poly_case):
    # gauge_potential reads F off the gradient flow; boundary_greens
    # integrates the finv flow on its own
    for (data, t), bound in [(c, 1e-12) for c in cases] + [(poly_case, 1e-9)]:
        chi = con.chi_from_boundary(data, greens.boundary_greens(data, t))
        assert np.max(np.abs(con.gauge_potential(data, t).chi - chi)) < bound


def test_df_block_hermiticity(reference):
    # dF inherits F's block hermiticity: dF[b,a] = dF[a,b]^dag
    ev = greens.GreensEvaluator(reference, T_REF)
    for d in ev.boundary(order=1).dF:
        for b in range(2):
            for a in range(2):
                assert np.allclose(d[b, a], d[a, b].conj().T, atol=1e-12)


# --------------------------------------------------------- gauge potential

def test_gauge_potential_structure(reference):
    pot = con.gauge_potential(reference, T_REF)
    assert pot.antiherm_defect < 1e-10
    assert pot.chi_min_eigenvalue > 0
    for mu in range(4):
        assert pot.A[mu].shape == (2, 2)
        assert np.all(np.isfinite(pot.A[mu]))
    # the connection is genuinely non-abelian here
    comm = pot.A[1] @ pot.A[2] - pot.A[2] @ pot.A[1]
    assert np.max(np.abs(comm)) > 1e-4


def test_gauge_potential_integral_method_agrees(cases, monkeypatch):
    exact = [con.gauge_potential(data, t).A for data, t in cases]
    boundary = greens.GreensEvaluator.boundary
    monkeypatch.setattr(
        greens.GreensEvaluator, "boundary",
        lambda ev, order=0: dataclasses.replace(
            boundary(ev), jet=np.concatenate(
                [np.stack([oracle.df_integral(ev, nu, 1e-8) for nu in range(4)]),
                 boundary(ev).jet])))
    for (data, t), A in zip(cases, exact):
        quad = con.gauge_potential(data, t).A
        assert np.max(np.abs(A - quad)) < 1e-9


def test_potential_does_not_depend_on_cache_history(cases, poly_case):
    # the flow-matrix gathers (per tag and k) and the Chebyshev bases (per
    # size) are built on first use, keyed on neither the data nor t: A is
    # bitwise the same before and after other flows, tags and k fill them
    rng = np.random.default_rng(9)
    for data, t in cases + [poly_case]:
        nahm._assembly.cache_clear()
        nahm._cheb_basis.cache_clear()
        first = con.gauge_potential(data, t).A
        for k in (1, 2, 3):
            other = random_poly_data(rng, k=k, n=2, degree=k)
            for tag in nahm.FLOWS:
                nahm.flow_coefficient(other, rng.uniform(-0.8, 0.8, size=4), 0, tag)
        for other, p in cases + [poly_case]:
            con.curvature(other, p)
            greens.boundary_greens(other, p + 0.01)
        assert np.array_equal(con.gauge_potential(data, t).A, first)


def test_both_blocks_jump(both_jumps_case):
    # k = 2, n = 4 data with a jump in each block at two of the four marked
    # points, so no Q is zero: the criteria-4/5 identities through the
    # oracle's G (measured 4.8e-16 and 1.9e-15) and self-duality (1.2e-15),
    # each held to 1e-13
    data, t = both_jumps_case
    for b in range(data.k):
        assert sum(np.max(np.abs(q.reshape(2, data.k, -1)[:, b])) > 0.1
                   for q in data.Q) == 2, b
    bg = greens.boundary_greens(data, t)
    qf = greens.qfq_matrix(data, bg)
    qg = oracle.qgq_matrix(data, oracle.boundary_G(data, t))
    one = np.eye(qf.shape[0])
    assert np.linalg.norm((one - qf) @ (one + qg) - one) < 1e-13
    assert np.linalg.norm((one + qg) @ (one - qf) - one) < 1e-13
    c = con.chi_from_boundary(data, bg)
    assert np.linalg.norm(np.linalg.inv(c.conj().T) @ np.linalg.inv(c) - one - qg) < 1e-13
    assert con.selfdual_residual(data, t).residual < 1e-13


def test_gauge_potential_rejects_irregular(free_data):
    with pytest.raises(IrregularPointError):
        con.gauge_potential(free_data, np.zeros(4))


def test_zero_field_on_free_data(free_data):
    t = np.array([0.3, 0.6, 0.0, 0.0])
    pot = con.gauge_potential(free_data, t)
    for mu in range(4):
        assert np.max(np.abs(pot.A[mu])) < 1e-9
    rep = con.selfdual_residual(free_data, t)
    assert rep.residual == 0.0
    assert rep.orientation == 1


# --------------------------------------------------------------- curvature

def test_curvature_antisymmetry_and_density(reference):
    curv = con.curvature(reference, T_REF)
    for mu in range(4):
        for nu in range(4):
            assert np.allclose(curv.F[mu][nu], -curv.F[nu][mu], atol=1e-14)
    assert curv.action_density() > 1e-3


def test_selfdual_refinement_passes_the_old_floor(reference):
    # A is exact, so the residual of its finite-difference curvature keeps
    # its O(h^2) fall well below 5e-7, where finite-difference noise in A
    # (tol / h ~ 1e-6) would stop it; the closed-form curvature has no step
    # and sits at roundoff
    seq = [con.selfdual_residual(
               reference, T_REF,
               curv=oracle.fd_curvature(reference, T_REF, h)).residual
           for h in (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5, 3.125e-5)]
    assert all(b < a for a, b in zip(seq, seq[1:])), seq
    assert seq[-1] < 5e-8, seq
    assert con.selfdual_residual(reference, T_REF).residual < 1e-10


def test_ddf_exact_vs_fd_of_exact_df(poly_case):
    # the second-order jet against central differences of the exact d_nu F
    # on non-commuting s-dependent data: the error falls as h^2
    data, t = poly_case
    ddF = greens.GreensEvaluator(data, t).boundary(order=2).ddF
    errs = []
    for h in (1e-3, 5e-4):
        fd = np.stack([
            (greens.GreensEvaluator(data, t + h * e).boundary(order=1).dF
             - greens.GreensEvaluator(data, t - h * e).boundary(order=1).dF)
            / (2.0 * h) for e in np.eye(4)])
        errs.append(np.max(np.abs(fd - ddF)))
    assert errs[1] < errs[0] / 3.0, errs
    assert errs[1] < 2e-6, errs
    # d_rho d_nu F is symmetric in (rho, nu) and block-hermitian like F
    assert np.array_equal(ddF, ddF.swapaxes(0, 1))
    assert np.max(np.abs(ddF - ddF.conj().transpose(0, 1, 3, 2, 5, 4))) < 1e-9


def test_curvature_exact_vs_fd_curvature(reference):
    # the closed form against central differences of the exact A (the old
    # curvature): the difference falls as h^2
    F = con.curvature(reference, T_REF).F
    errs = [np.linalg.norm(oracle.fd_curvature(reference, T_REF, h).F - F)
            / np.linalg.norm(F) for h in (2e-4, 1e-4)]
    assert 3.0 < errs[0] / errs[1] < 5.0, errs
    assert errs[1] < 1e-6, errs


def test_selfdual_residual_reference(reference):
    rep = con.selfdual_residual(reference, T_REF)
    assert rep.residual < 1e-3
    assert rep.orientation in (-1, 1)
    assert rep.norm_total > 0

"""Gauge potential and curvature on the boundary space.

With the N x N boundary matrices at a point t (N = total Q width),

    chi = hermitian PSD square root of (id - QFQ),

the gauge potential in the hermitian trivialization is

    A_mu = -(1/4) chi^{-1} T_mu chi^{-1}
           + (1/2) (chi^{-1} dchi_mu - dchi_mu chi^{-1}),
    T_mu = sum_nu S(nu, mu),

where S(nu, mu) sandwiches the t_nu-derivative of the boundary F-blocks
with the spin bracket: blocks Q_beta^dag (e_bracket(nu,mu) (x)
d_nu F[beta,alpha]) Q_alpha; the bracket vanishes at nu = mu.  A_mu is
anti-hermitian up to the block-hermiticity defect of d_nu F, which
antiherm_defect reports.

Every t-derivative is exact.  The coefficients of the second-order flow
are affine or quadratic in t, so the t-jet of every transfer is the last
block column of the transfer of a Van Loan jet flow
(nahm.flow_coefficient).  The periodic solve takes a jet order by order,
all on the block-cyclic matrix of F's own state: 'dfinv' gives F and
d_nu F for the potential, 'ddfinv' adds d_rho d_nu F for the curvature.
Every spin sandwich of a jet is a contraction of one stacked
boundary_sandwich.  The derivatives of chi follow from the square-root
equation, chi dchi + dchi chi = -Q^dag dF Q, and its t-derivative,

    chi d_rho d_mu chi + d_rho d_mu chi chi
        = -Q^dag d_rho d_mu F Q - d_rho chi d_mu chi - d_mu chi d_rho chi,

Sylvester equations solved on the one eigendecomposition of chi.  With
d_rho chi^{-1} = -chi^{-1} d_rho chi chi^{-1} the curvature

    F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu]

is then closed form, exactly antisymmetric in (mu, nu) by assembly.
oracle.fd_curvature takes central differences of A instead, as the
cross-check.
"""

from dataclasses import dataclass

import numpy as np

from . import nahm
from .errors import PositivityError
from .greens import (GreensEvaluator, boundary_sandwich, identity_sandwich,
                     qfq_matrix)
from .spin import BRACKET

_PSD_FLOOR = 1e-12

# BRACKET[nu][mu] as one (nu, mu, 2, 2) array, contracted with the spin
# units of boundary_sandwich
_BRACKETS = np.array(BRACKET)


def _positive_eigh(M):
    """Eigenvalues and eigenvectors of the hermitian part of M.

    Raises PositivityError if the smallest eigenvalue is not positive
    (reporting it).
    """
    w, U = np.linalg.eigh(0.5 * (M + M.conj().T))
    if w.min() < _PSD_FLOOR:
        raise PositivityError(
            f"matrix is not positive definite (min eigenvalue {w.min():.3e})",
            min_eigenvalue=float(w.min()))
    return w, U


def hermitian_sqrt(M):
    """Hermitian PSD square root via eigendecomposition.

    Raises PositivityError if the smallest eigenvalue is not positive
    (reporting it); symmetrizes roundoff before decomposing.
    """
    w, U = _positive_eigh(M)
    return (U * np.sqrt(w)) @ U.conj().T


def chi_from_boundary(data, bg):
    """chi = (id - QFQ)^{1/2} from precomputed boundary blocks."""
    N = data.total_width
    return hermitian_sqrt(np.eye(N) - qfq_matrix(data, bg))


def _sylvester(w, U, R):
    """Solve chi X + X chi = R for chi = U diag(w) U^dag > 0, R (..., N, N)."""
    Uh = U.conj().T
    return U @ ((Uh @ R @ U) / (w[:, None] + w[None, :])) @ Uh


def _connection(data, bg):
    """A_mu, chi and the eigenvalues of chi^2 from the boundary jet bg, and
    at jet order 2 also d_rho A_mu, (rho, mu, N, N) (else None).

    The jet is sandwiched as it comes, in one stacked product, and its
    first and second derivatives are picked out by nahm.jet_index.
    """
    first, second = nahm.jet_index(bg.order)
    Z = boundary_sandwich(data, bg.jet)
    w, U = _positive_eigh(np.eye(Z.shape[-1]) - identity_sandwich(Z[-1]))
    r = np.sqrt(w)                       # the eigenvalues of chi
    Uh = U.conj().T
    chi, ci = (U * r) @ Uh, (U / r) @ Uh
    # d_mu chi solves chi X + X chi = -Q^dag d_mu F Q; T_mu = sum_nu S(nu, mu)
    dZ = Z[first]
    dchi = _sylvester(r, U, -identity_sandwich(dZ))
    T = np.einsum("nmst,nstxy->mxy", _BRACKETS, dZ)
    A = -0.25 * (ci @ T @ ci) + 0.5 * (ci @ dchi - dchi @ ci)
    if second is None:
        return A, chi, w, None
    # the rho-derivatives of chi^{-1}, of the Sylvester equation and of T_mu
    ddZ = Z[second]
    dci = (-ci @ dchi @ ci)[:, None]     # d_rho chi^{-1}, broadcast over mu
    ddchi = _sylvester(r, U, -identity_sandwich(ddZ) - dchi[:, None] @ dchi
                       - dchi @ dchi[:, None])
    dT = np.einsum("nmst,rnstxy->rmxy", _BRACKETS, ddZ)
    dA = (-0.25 * (dci @ T @ ci + ci @ dT @ ci + ci @ T @ dci)
          + 0.5 * (dci @ dchi + ci @ ddchi - ddchi @ ci - dchi @ dci))
    return A, chi, w, dA


@dataclass(frozen=True)
class GaugePotential:
    """Anti-hermitian potential components A[mu] on the N-dim boundary space."""
    t: tuple
    A: np.ndarray                # (4, N, N)
    chi: np.ndarray              # (N, N)
    chi_min_eigenvalue: float
    antiherm_defect: float


def gauge_potential(data, t, tol=1e-10):
    """Gauge potential A_mu(t) on the boundary space, shape (4, N, N).

    The F-blocks and their exact t-derivatives come from one periodic
    solve of the gradient flow (boundary of order 1).  That of chi
    solves chi dchi + dchi chi = -Q^dag dF Q.  An irregular t raises
    IrregularPointError from the checked loop solve.
    """
    t = np.asarray(t, dtype=float)
    bg = GreensEvaluator(data, t, tol).boundary(order=1)
    A, chi, w, _ = _connection(data, bg)
    return GaugePotential(t=tuple(float(x) for x in t), A=A, chi=chi,
                          chi_min_eigenvalue=float(w.min()),
                          antiherm_defect=float(np.max(np.abs(
                              A + A.conj().swapaxes(-1, -2)))))


@dataclass(frozen=True)
class Curvature:
    """Field strength F[mu, nu] (antisymmetric in mu, nu by assembly)."""
    t: tuple
    F: np.ndarray                # (4, 4, N, N)

    def action_density(self):
        """Positive scalar (1/2) sum_{mu,nu} |F_{mu nu}|_F^2."""
        return float(0.5 * sum(np.sum(np.abs(self.F[mu, nu]) ** 2)
                               for mu in range(4) for nu in range(4)))


def field_strength(A, dA):
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] from A, (4, N, N),
    and dA[rho, mu] = d_rho A_mu; exactly antisymmetric."""
    AA = A[:, None] @ A
    return (dA - dA.swapaxes(0, 1)) + (AA - AA.swapaxes(0, 1))


def curvature(data, t, tol=1e-10):
    """Curvature F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] at t, in
    closed form from one solve of the second-order jet flow 'ddfinv'."""
    t = np.asarray(t, dtype=float)
    bg = GreensEvaluator(data, t, tol).boundary(order=2)
    A, _, _, dA = _connection(data, bg)
    return Curvature(t=tuple(float(x) for x in t), F=field_strength(A, dA))


@dataclass(frozen=True)
class SelfDualReport:
    residual: float
    orientation: int
    norm_total: float


def selfdual_residual(data, t, curv=None):
    """Normalized deviation of the curvature from (anti-)self-duality.

    residual = min over eps in {+1, -1} of
        (|F01 - eps F23| + |F02 - eps F31| + |F03 - eps F12|) / total,
    total = sum of |F_{mu nu}| over the six independent pairs (Frobenius
    norms).  orientation is the minimizing eps; a vanishing field returns
    (0, +1).  curv is the Curvature at t, curvature(data, t) by default;
    a caller with another ODE tolerance passes curv=curvature(data, t, tol).
    """
    if curv is None:
        curv = curvature(data, t)
    F = curv.F

    def nrm(M):
        return float(np.linalg.norm(M))

    total = sum(nrm(F[mu, nu]) for mu in range(4) for nu in range(mu + 1, 4))
    if total < 1e-14:
        return SelfDualReport(residual=0.0, orientation=+1, norm_total=total)
    pairs = ((F[0, 1], F[2, 3]), (F[0, 2], F[3, 1]), (F[0, 3], F[1, 2]))
    best = None
    best_eps = +1
    for eps in (+1, -1):
        r = sum(nrm(a - eps * b) for a, b in pairs) / total
        if best is None or r < best:
            best, best_eps = r, eps
    return SelfDualReport(residual=float(best), orientation=best_eps,
                          norm_total=float(total))

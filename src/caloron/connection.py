"""Gauge potential and curvature on the boundary space.

With the N x N boundary matrices at a point t (N = total Q width),

    chi = hermitian PSD square root of (id - QFQ),

the gauge potential in the hermitian trivialization is

    A_mu = -(1/4) sum_nu chi^{-1} S(nu, mu) chi^{-1}
           + (1/2) (chi^{-1} dchi_mu - dchi_mu chi^{-1}),

where S(nu, mu) sandwiches the t_nu-derivative of the boundary F-blocks
with the spin bracket: blocks Q_beta^dag (e_bracket(nu,mu) (x)
d_nu F[beta,alpha]) Q_alpha.  A_mu is anti-hermitian up to the
block-hermiticity defect of d_nu F, which antiherm_defect reports.

The t-derivatives of the F-blocks are exact: the coefficients of the
second-order flow are affine or quadratic in t, so d_nu of every transfer
is block (nu, 4) of the transfer of the gradient flow, M on five diagonal
blocks and d_nu M in block (nu, 4), which the circle walk carries like any
other flow: all four directions advance together.  The same walk carries
the finv transfer on its diagonal, so one sweep of the gradient flow gives
F and d_nu F; gauge_potential integrates no other flow.  The derivative of chi
follows from the square-root equation chi dchi + dchi chi = -d(QFQ)
(Sylvester, solved by eigendecomposition).  Curvature components take
central differences of step h of gauge_potential and are exactly
antisymmetric in (mu, nu) by assembly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .greens import GreensEvaluator, boundary_sandwich, qfq_matrix
from .spin import BRACKET

_PSD_FLOOR = 1e-12

_UNIT = np.eye(4)


def hermitian_sqrt(M):
    """Hermitian PSD square root via eigendecomposition.

    Raises PositivityError if the smallest eigenvalue is not positive
    (reporting it); symmetrizes roundoff before decomposing.
    """
    Mh = 0.5 * (M + M.conj().T)
    w, U = np.linalg.eigh(Mh)
    if w.min() < _PSD_FLOOR:
        raise PositivityError(
            f"matrix is not positive definite (min eigenvalue {w.min():.3e})",
            min_eigenvalue=float(w.min()))
    return (U * np.sqrt(w)) @ U.conj().T


def chi_from_boundary(data, bg):
    """chi = (id - QFQ)^{1/2} from precomputed boundary blocks."""
    N = data.total_width
    return hermitian_sqrt(np.eye(N) - qfq_matrix(data, bg))


def _sylvester_dchi(chi0, R):
    """Solve chi0 X + X chi0 = R for hermitian chi0 > 0 (X hermitian)."""
    w, U = np.linalg.eigh(chi0)
    Rt = U.conj().T @ R @ U
    X = Rt / (w[:, None] + w[None, :])
    return U @ X @ U.conj().T


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

    The F-blocks and their exact t-derivatives come from one walk of the
    gradient flow per marked point (boundary with want_dF).  That of chi
    solves chi dchi + dchi chi = -Q^dag dF Q.  An irregular t raises
    IrregularPointError from the checked loop solve.
    """
    t = np.asarray(t, dtype=float)
    bg0 = GreensEvaluator(data, t, tol).boundary(want_dF=True)
    dF = bg0.dF
    N = data.total_width
    X0 = np.eye(N) - qfq_matrix(data, bg0)
    chi0 = hermitian_sqrt(X0)
    w0 = np.linalg.eigvalsh(0.5 * (X0 + X0.conj().T))
    chi_inv = np.linalg.inv(chi0)

    A = np.zeros((4, N, N), dtype=complex)
    for mu in range(4):
        term = np.zeros((N, N), dtype=complex)
        for nu in range(4):
            if nu == mu:
                continue
            S = boundary_sandwich(data, dF[nu], BRACKET[nu][mu])
            term += S
        dchi = _sylvester_dchi(chi0, -boundary_sandwich(data, dF[mu]))
        A[mu] = (-0.25 * (chi_inv @ term @ chi_inv)
                 + 0.5 * (chi_inv @ dchi - dchi @ chi_inv))

    defect = float(max(np.max(np.abs(A[mu] + A[mu].conj().T))
                       for mu in range(4)))
    return GaugePotential(t=tuple(float(x) for x in t), A=A, chi=chi0,
                          chi_min_eigenvalue=float(w0.min()),
                          antiherm_defect=defect)


@dataclass(frozen=True)
class Curvature:
    """Field strength F[mu, nu] (antisymmetric in mu, nu by assembly)."""
    t: tuple
    h: float
    F: np.ndarray                # (4, 4, N, N)

    def action_density(self):
        """Positive scalar (1/2) sum_{mu,nu} |F_{mu nu}|_F^2."""
        return float(0.5 * sum(np.sum(np.abs(self.F[mu, nu]) ** 2)
                               for mu in range(4) for nu in range(4)))


def curvature(data, t, h=1e-3, tol=1e-10):
    """Curvature F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] at t,
    with the outer derivatives by central differences of step h."""
    t = np.asarray(t, dtype=float)
    A0 = gauge_potential(data, t, tol=tol).A
    dA = np.empty((4,) + A0.shape, dtype=complex)
    for mu in range(4):
        Ap = gauge_potential(data, t + h * _UNIT[mu], tol=tol).A
        Am = gauge_potential(data, t - h * _UNIT[mu], tol=tol).A
        dA[mu] = (Ap - Am) / (2.0 * h)
    N = A0.shape[1]
    F = np.zeros((4, 4, N, N), dtype=complex)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            Fmn = (dA[mu][nu] - dA[nu][mu]
                   + A0[mu] @ A0[nu] - A0[nu] @ A0[mu])
            F[mu, nu] = Fmn
            F[nu, mu] = -Fmn
    return Curvature(t=tuple(float(x) for x in t), h=float(h), F=F)


@dataclass(frozen=True)
class SelfDualReport:
    residual: float
    orientation: int
    norm_total: float


def selfdual_residual(data, t, h=1e-3, tol=1e-10, curv=None):
    """Normalized deviation of the curvature from (anti-)self-duality.

    residual = min over eps in {+1, -1} of
        (|F01 - eps F23| + |F02 - eps F31| + |F03 - eps F12|) / total,
    total = sum of |F_{mu nu}| over the six independent pairs (Frobenius
    norms).  orientation is the minimizing eps; a vanishing field returns
    (0, +1).
    """
    if curv is None:
        curv = curvature(data, t, h=h, tol=tol)
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

"""Gauge potential and curvature on the boundary space.

With the N x N boundary matrices at a point t (N = total Q width),

    chi = hermitian PSD square root of (id - QFQ),

the gauge potential in the hermitian trivialization is

    A_mu = -(1/4) sum_nu chi^{-1} S(nu, mu) chi^{-1}
           + (1/2) (chi^{-1} dchi_mu - dchi_mu chi^{-1}),

where S(nu, mu) sandwiches the t_nu-derivative of the boundary F-blocks
with the spin bracket: blocks Q_beta^dag (e_bracket(nu,mu) (x)
d_nu F[beta,alpha]) Q_alpha.  A_mu is anti-hermitian by construction.

Derivatives default to central finite differences in t with step h; the
derivative of chi can alternatively be obtained from the square-root
equation chi dchi + dchi chi = -d(QFQ) (Sylvester, solved by
eigendecomposition), and dF from an integral cross-check formula.
Curvature components use one more central-difference level on top of
gauge_potential and are exactly antisymmetric in (mu, nu) by assembly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, IrregularPointError, PositivityError
from .greens import (GreensEvaluator, boundary_greens, boundary_sandwich,
                     qfq_matrix)
from .monodromy import regularity
from .nahm import eval_T
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


def dF_boundary(data, t, nu, h=1e-4, method="fd", tol=1e-10, quad_tol=1e-8,
                richardson=False):
    """t_nu-derivative of the boundary F-blocks, shape (n, n, k, k).

    method='fd': central differences of boundary_greens at t +- h e_nu
    (with one Richardson level if richardson=True).  method='integral'
    evaluates the exact derivative formula

        d_nu F(l_b, l_a) = -2 int F(l_b, s) D_nu(s) F(s, l_a) ds

    with D_j = T_j + t_j and D_0 = i d/ds + T_0 + t_0, by composite
    Gauss-Legendre panels refined until the result moves less than
    quad_tol.
    """
    t = np.asarray(t, dtype=float)
    if method == "fd":
        def stencil(step):
            bp = boundary_greens(data, t + step * _UNIT[nu], tol=tol).F
            bm = boundary_greens(data, t - step * _UNIT[nu], tol=tol).F
            return (bp - bm) / (2.0 * step)
        D = stencil(h)
        if richardson:
            D2 = stencil(0.5 * h)
            D = (4.0 * D2 - D) / 3.0
        return D
    if method == "integral":
        ev = GreensEvaluator(data, t, tol)
        return _df_integral(ev, nu, quad_tol)
    raise ValueError(f"method must be 'fd' or 'integral', got {method!r}")


def _gl_nodes(a, b, panels, order=12):
    """Composite Gauss-Legendre nodes and weights on (a, b)."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * x + 0.5 * (hi + lo))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _refine_panels(data, quantity, quad_tol, max_panels, what):
    """Panel-doubling quadrature over the intervals of the circle.

    quantity(nodes, weights) takes per-interval Gauss-Legendre nodes and
    weights (_gl_nodes on each interval) and returns an array.  The panels
    per interval double from 2 until two successive results differ by less
    than quad_tol; returns the last result with its nodes and weights.
    """
    prev = None
    panels = 2
    while panels <= max_panels:
        nodes, weights = zip(*(_gl_nodes(*data.interval_bounds(i), panels)
                               for i in range(data.n)))
        out = quantity(nodes, weights)
        if prev is not None and np.max(np.abs(out - prev)) < quad_tol:
            return out, nodes, weights
        prev = out
        panels *= 2
    raise IntegrationError(
        f"{what} did not reach {quad_tol:.1e} within {max_panels} panels "
        f"per interval")


def _node_states(ev, tag, alpha, state, nodes):
    """States of the walk from lambda_alpha at every node, in base order.

    nodes[i] holds increasing positions inside interval i; the result
    lists the states interval by interval from interval 0.
    """
    n = ev.data.n
    order = [i % n for i in range(alpha, alpha + n)]
    stops = [(i, s) for i in order for s in nodes[i]]
    states = ev.walk(tag, ev.data.lambdas[alpha], stops, state)
    split = sum(len(nodes[i]) for i in range(alpha, n))
    return states[split:] + states[:split]


def _df_integral(ev, nu, quad_tol, max_panels=64):
    data = ev.data
    n, k = data.n, data.k
    tnu = ev.t[nu]

    def integral(nodes, weights):
        states = [_node_states(ev, "finv", alpha,
                               ev.loop_solution("finv", alpha), nodes)
                  for alpha in range(n)]
        out = np.zeros((n, n, k, k), dtype=complex)
        flat = zip(np.concatenate(nodes), np.concatenate(weights))
        for q, (s, w) in enumerate(flat):
            Tnu = eval_T(data, nu, s) + tnu * np.eye(k)
            vals = [states[alpha][q] for alpha in range(n)]
            for alpha in range(n):
                Va = vals[alpha][:k, :]
                if nu == 0:
                    rhs = 1j * vals[alpha][k:, :] + Tnu @ Va
                else:
                    rhs = Tnu @ Va
                for beta in range(n):
                    out[beta, alpha] += w * (vals[beta][:k, :].conj().T @ rhs)
        out *= -2.0
        return out

    return _refine_panels(data, integral, quad_tol, max_panels,
                          "boundary-derivative quadrature")[0]


def _symmetrize_blocks(D):
    """Project (n,n,k,k) blocks onto exact block-hermiticity.

    The exact t-derivative of the boundary F-blocks satisfies
    D[b,a]^dag = D[a,b]; finite differences break this at roundoff level,
    which would leak into the anti-hermiticity of A.
    """
    out = np.empty_like(D)
    n = D.shape[0]
    for b in range(n):
        for a in range(n):
            out[b, a] = 0.5 * (D[b, a] + D[a, b].conj().T)
    return out


@dataclass(frozen=True)
class GaugePotential:
    """Anti-hermitian potential components A[mu] on the N-dim boundary space."""
    t: tuple
    A: np.ndarray                # (4, N, N)
    chi: np.ndarray              # (N, N)
    chi_min_eigenvalue: float
    antiherm_defect: float


def gauge_potential(data, t, h=1e-4, tol=1e-10, method="fd", quad_tol=1e-8,
                    richardson=False, check_regularity=False):
    """Gauge potential A_mu(t) on the boundary space, shape (4, N, N).

    method picks how the t-derivatives of the F-blocks are formed ('fd'
    central differences with step h, or 'integral'); the derivative of
    chi uses the same stencil for 'fd' and the Sylvester equation for
    'integral'.
    """
    t = np.asarray(t, dtype=float)
    if check_regularity:
        rep = regularity(data, t, tol=tol)
        if not rep.is_regular:
            raise IrregularPointError(
                f"t = {tuple(t)} is not a regular point "
                f"(gaps {rep.gap_ddag:.3e}, {rep.gap_d:.3e})",
                gap=min(rep.gap_ddag, rep.gap_d))

    bg0 = boundary_greens(data, t, tol=tol)
    N = data.total_width
    X0 = np.eye(N) - qfq_matrix(data, bg0)
    chi0 = hermitian_sqrt(X0)
    w0 = np.linalg.eigvalsh(0.5 * (X0 + X0.conj().T))
    chi_inv = np.linalg.inv(chi0)

    dF = np.empty((4,) + bg0.F.shape, dtype=complex)
    dchi = np.empty((4, N, N), dtype=complex)
    if method == "fd":
        def one(step, nu):
            bp = boundary_greens(data, t + step * _UNIT[nu], tol=tol)
            bm = boundary_greens(data, t - step * _UNIT[nu], tol=tol)
            dFb = (bp.F - bm.F) / (2.0 * step)
            dXb = (chi_from_boundary(data, bp) - chi_from_boundary(data, bm)) \
                / (2.0 * step)
            return dFb, dXb
        for nu in range(4):
            dF[nu], dchi[nu] = one(h, nu)
            if richardson:
                dF2, dchi2 = one(0.5 * h, nu)
                dF[nu] = (4.0 * dF2 - dF[nu]) / 3.0
                dchi[nu] = (4.0 * dchi2 - dchi[nu]) / 3.0
    elif method == "integral":
        ev = GreensEvaluator(data, t, tol)
        for nu in range(4):
            dF[nu] = _df_integral(ev, nu, quad_tol)
            R = -boundary_sandwich(data, dF[nu])
            dchi[nu] = _sylvester_dchi(chi0, R)
    else:
        raise ValueError(f"method must be 'fd' or 'integral', got {method!r}")

    for nu in range(4):
        dF[nu] = _symmetrize_blocks(dF[nu])
        dchi[nu] = 0.5 * (dchi[nu] + dchi[nu].conj().T)

    A = np.zeros((4, N, N), dtype=complex)
    for mu in range(4):
        term = np.zeros((N, N), dtype=complex)
        for nu in range(4):
            if nu == mu:
                continue
            S = boundary_sandwich(data, dF[nu], BRACKET[nu][mu])
            term += S
        A[mu] = (-0.25 * (chi_inv @ term @ chi_inv)
                 + 0.5 * (chi_inv @ dchi[mu] - dchi[mu] @ chi_inv))

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


def curvature(data, t, h=1e-3, fd_h=1e-4, tol=1e-10, method="fd"):
    """Curvature F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] at t,
    with the outer derivatives by central differences of step h."""
    t = np.asarray(t, dtype=float)
    A0 = gauge_potential(data, t, h=fd_h, tol=tol, method=method).A
    dA = np.empty((4,) + A0.shape, dtype=complex)
    for mu in range(4):
        Ap = gauge_potential(data, t + h * _UNIT[mu], h=fd_h, tol=tol,
                             method=method).A
        Am = gauge_potential(data, t - h * _UNIT[mu], h=fd_h, tol=tol,
                             method=method).A
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


def selfdual_residual(data, t, h=1e-3, fd_h=1e-4, tol=1e-10, method="fd",
                      curv=None):
    """Normalized deviation of the curvature from (anti-)self-duality.

    residual = min over eps in {+1, -1} of
        (|F01 - eps F23| + |F02 - eps F31| + |F03 - eps F12|) / total,
    total = sum of |F_{mu nu}| over the six independent pairs (Frobenius
    norms).  orientation is the minimizing eps; a vanishing field returns
    (0, +1).
    """
    if curv is None:
        curv = curvature(data, t, h=h, fd_h=fd_h, tol=tol, method=method)
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

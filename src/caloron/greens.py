"""Green's functions of the kernel flows via monodromy inversion.

The compact formula needs only the values of the Green's functions at
pairs of marked points.  For the second-order companion flows the Green's
function with a unit source insertion at y is

    F(x, y) = pi_2 iota_{x,y} (iota_{y+2pi,y} - id)^{-1} pi_1,

where iota_{x,y} transports solutions from y to x, with pi_1 v = (0, v)
(a pure derivative kick at the source) and pi_2 the value block; the
source convention matches the sign of the -d^2/ds^2 term of the
operator.  G is the same formula for the 2k-dimensional lifted flow
('ddagd'), F for the k-dimensional one ('finv').

The boundary Green's matrices collect the blocks F(lambda_beta,
lambda_alpha) and G(lambda_beta, lambda_alpha), one walk from each
marked point; sandwiching with the boundary matrices Q gives the N x N
matrices entering the gauge potential, N = sum of the Q widths.

All evaluations at a fixed (data, t) share one GreensEvaluator: the
circle walk and transfer caches of monodromy.Propagator, plus the checked
loop solves.
"""

from dataclasses import dataclass

import numpy as np

from . import monodromy, nahm
from .errors import IntegrationError, IrregularPointError

_COND_LIMIT = 1e12
_DIAG_TOL = 1e-8


def _gap_from_unity(M):
    return float(np.min(np.abs(np.linalg.eigvals(M) - 1.0)))


class GreensEvaluator(monodromy.Propagator):
    """Green's functions at one (data, t) from the cached circle walk."""

    def __init__(self, data, t, tol=1e-10):
        super().__init__(data, t, tol)
        self._loop_solutions = {}

    def _checked_inverse_apply(self, M, rhs, where):
        A = M - np.eye(M.shape[0])
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise IrregularPointError(
                f"monodromy has a (near-)unit eigenvalue at t = "
                f"{tuple(self.t.tolist())} ({where}; cond = {cond:.3e})",
                gap=_gap_from_unity(M), cond=float(cond))
        return np.linalg.solve(A, rhs)

    def loop_solution(self, tag, alpha):
        """(iota - id)^{-1} pi_1: source columns of the based loop, stacked
        as d_s K in the state order of nahm.jet_states.

        The loop of a jet flow carries the loop iota on the diagonal and
        every d_s iota in its last block column: K comes from the diagonal
        block, then its derivatives by block back-substitution through the
        same checked inverse, order by order,

            d_s K = -(iota - id)^{-1} sum_a d_a iota d_{s - a} K

        over nahm.leibniz_splits(s), e.g. d_nu K = -(iota - id)^{-1}
        d_nu iota K; one solve per order, its right-hand sides side by side.
        A flow of jet order 0 has K alone.
        """
        key = (tag, alpha)
        if key not in self._loop_solutions:
            order = nahm.JET[tag]
            states = nahm.jet_states(order)
            M = self.loop(tag, self.data.lambdas[alpha])
            m = M.shape[0] // len(states)
            d_iota = dict(zip(states, M[:, -m:].reshape(-1, m, m)))
            iota = d_iota[()]
            P1 = np.zeros((m, m // 2), dtype=complex)
            P1[m // 2:] = np.eye(m // 2)
            K = {(): self._checked_inverse_apply(
                iota, P1, f"{tag} loop at marked point {alpha}")}
            for r in range(1, order + 1):
                group = [s for s in states if len(s) == r]
                rhs = np.stack([-sum(d_iota[a] @ K[rest]
                                     for a, rest in nahm.leibniz_splits(s))
                                for s in group], axis=1)
                dK = np.linalg.solve(iota - np.eye(m), rhs.reshape(m, -1))
                K.update(zip(group, dK.reshape(rhs.shape).swapaxes(0, 1)))
            self._loop_solutions[key] = np.concatenate([K[s] for s in states])
        return self._loop_solutions[key]

    # -- boundary matrices --------------------------------------------------

    def boundary(self, order=0, want_G=False):
        """Blocks F(lambda_beta, lambda_alpha) at every pair of marked points
        and their t-derivatives up to `order` (0, 1 or 2), from one sweep
        per marked point.

        The sweep walks the finv jet of that order (nahm.FINV_JET) from each
        marked point, whose states carry d_s K: the value block of state s
        is d_s F, so one sweep yields F, d_nu F and, at order 2, d_rho d_nu F
        (BoundaryGreens.jet).  G (want_G) comes from the ddagd flow.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        jet, diag_defect = self._blocks(nahm.FINV_JET[order])
        G = None
        if want_G:
            (G,), defect = self._blocks("ddagd")
            diag_defect = max(diag_defect, defect)
        F = jet[-1]
        herm = _hermiticity_defect(F)
        scale = max(1.0, float(np.max(np.abs(F))))
        if herm > 1e-8 * scale:
            raise IntegrationError(
                f"boundary Green's matrix lost hermiticity (defect {herm:.3e}); "
                "tighten the integrator tolerance")
        jet.setflags(write=False)
        return BoundaryGreens(t=tuple(float(x) for x in self.t), jet=jet, G=G,
                              diag_defect=diag_defect, herm_defect=herm)

    def _blocks(self, tag):
        """Kernel values at every pair of marked points, [s, beta, alpha]
        per state s of the flow's jet (nahm.jet_states), with the worst
        diagonal defect of the last state's sweeps."""
        columns, defects = zip(*(self._boundary_sweep(tag, alpha)
                                 for alpha in range(self.data.n)))
        return np.array(columns).transpose(2, 1, 0, 3, 4), max(defects)

    def _boundary_sweep(self, tag, alpha):
        """Values of the kernel sourced at lambda_alpha, at all marked points.

        Walks once around the circle, recording the value blocks of the
        stacked companion states at every marked point (the jump maps leave
        values unchanged).  The walk's return to the base point furnishes
        the left limit of the diagonal; it must agree with the right limit
        from the loop solve, state by state at the state's own scale, so
        that large d_nu F blocks cannot mask a defect of F.  Returns the
        values and the defect of the last state (the kernel itself).
        """
        n, lam = self.data.n, self.data.lambdas
        K = self.loop_solution(tag, alpha)
        m = K.shape[1]
        stops = [(beta, lam[beta]) for beta in range(alpha + 1, n)]
        stops += [(beta, lam[beta]) for beta in range(alpha + 1)]
        vals = [None] * n
        for (beta, _), state in zip(stops, self.walk(tag, lam[alpha], stops, K)):
            vals[beta] = state.reshape(-1, 2 * m, m)[:, :m]
        final_val = vals[alpha]
        right = K.reshape(-1, 2 * m, m)[:, :m]
        defects = np.max(np.abs(final_val - right), axis=(1, 2))
        scales = np.maximum(1.0, np.max(np.abs(right), axis=(1, 2)))
        if np.any(defects > _DIAG_TOL * scales):
            worst = float(np.max(defects[defects > _DIAG_TOL * scales]))
            raise IntegrationError(
                f"diagonal limits of the Green's function disagree at marked "
                f"point {alpha} (defect {worst:.3e}); tighten the tolerance")
        vals[alpha] = 0.5 * (right + final_val)
        return vals, float(defects[-1])


@dataclass(frozen=True)
class BoundaryGreens:
    """Marked-point blocks of the Green's functions at one t.

    jet[s, beta, alpha] is the k x k block d_s F for each state s of
    nahm.jet_states(order), read-only: F, dF[nu] = d_nu F (order >= 1) and
    ddF[rho, nu] = d_rho d_nu F (order 2) pick it apart.  G[beta, alpha]
    (if requested) is 2k x 2k.  diag_defect records the worst left/right
    diagonal disagreement of F and G, herm_defect the block-hermiticity
    defect of F.
    """
    t: tuple
    jet: np.ndarray
    G: np.ndarray
    diag_defect: float
    herm_defect: float

    @property
    def order(self):
        return [len(nahm.jet_states(r)) for r in range(3)].index(len(self.jet))

    @property
    def F(self):
        return self.jet[-1]

    @property
    def dF(self):
        first, _ = nahm.jet_index(self.order)
        return None if first is None else self.jet[first]

    @property
    def ddF(self):
        _, second = nahm.jet_index(self.order)
        return None if second is None else self.jet[second]


def _hermiticity_defect(blocks):
    """max over (beta, alpha) of |blocks[beta, alpha]^dag - blocks[alpha, beta]|."""
    return float(np.max(np.abs(blocks.conj().transpose(1, 0, 3, 2) - blocks)))


def block_offsets(data):
    """Start offsets of each marked point's columns in the N-dim boundary space."""
    offs = []
    pos = 0
    for w in data.widths:
        offs.append(pos)
        pos += w
    return offs, pos


def _spin_rows(data):
    """Q by spin row, (2, n k, N): Q_alpha's rows s k .. s k + k - 1 at rows
    alpha k .. alpha k + k - 1 of sheet s and at alpha's columns."""
    k = data.k
    offs, N = block_offsets(data)
    out = np.zeros((2, data.n * k, N), dtype=complex)
    for alpha, q in enumerate(data.Q):
        out[:, alpha * k:(alpha + 1) * k,
            offs[alpha]:offs[alpha] + q.shape[1]] = q.reshape(2, k, -1)
    return out


def boundary_sandwich(data, blocks):
    """Spin-resolved sandwiches of a whole stack of block sets, (..., 2, 2, N, N).

    blocks has shape (..., n, n, k, k); Z[..., s, t] is the N x N matrix
    with (beta, alpha) block Q_beta^dag (e_st (x) blocks[..., beta, alpha])
    Q_alpha for the spin matrix unit e_st, so that the sandwich with any
    spin matrix S is the contraction sum_st S[s, t] Z[..., s, t]; one
    stacked product for every block set and spin unit.
    """
    nk = data.n * data.k
    B = np.swapaxes(blocks, -3, -2).reshape(blocks.shape[:-4] + (nk, nk))
    Qs = _spin_rows(data)
    return Qs.conj().swapaxes(-1, -2)[:, None] @ B[..., None, None, :, :] @ Qs


def identity_sandwich(Z):
    """The sandwich with the spin identity, sum_s Z[..., s, s], from
    boundary_sandwich output."""
    return Z[..., 0, 0, :, :] + Z[..., 1, 1, :, :]


def qfq_matrix(data, bg):
    """The N x N matrix with blocks Q_beta^dag (id2 (x) F[beta,alpha]) Q_alpha."""
    return identity_sandwich(boundary_sandwich(data, bg.F))


def qgq_matrix(data, bg):
    """The N x N matrix with blocks Q_beta^dag G[beta,alpha] Q_alpha."""
    if bg.G is None:
        raise ValueError("boundary data was built without G blocks "
                         "(pass want_G=True)")
    n, k = data.n, data.k
    # G = sum_st e_st (x) G_st: sandwich the spin blocks G_st, keep Z[s, t, s, t]
    Gst = bg.G.reshape(n, n, 2, k, 2, k).transpose(2, 4, 0, 1, 3, 5)
    Z = boundary_sandwich(data, Gst)
    return Z[0, 0, 0, 0] + Z[0, 1, 0, 1] + Z[1, 0, 1, 0] + Z[1, 1, 1, 1]


def boundary_greens(data, t, tol=1e-10, want_G=False):
    """All marked-point blocks F (and optionally G) at one t."""
    return GreensEvaluator(data, t, tol).boundary(want_G=want_G)

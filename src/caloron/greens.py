"""Green's function F of D^dagger D from one periodic block system.

The compact formula needs only F at pairs of marked points.  With a unit
source insertion at y

    F(x, y) = pi_2 iota_{x,y} (iota_{y+2pi,y} - id)^{-1} pi_1,

where iota_{x,y} transports solutions of the companion flow 'finv' from y
to x, pi_1 v = (0, v) is a pure derivative kick and pi_2 the value block;
the source convention matches the sign of the -d^2/ds^2 term.  (The
Green's function G of D D^dagger belongs to the classical route: oracle
builds it from the same steps.)

The blocks F(lambda_beta, lambda_alpha) and their t-derivatives come from
the periodic solution with a unit source at every marked point
(GreensEvaluator.loop_solution), which inverts no loop: its states at the
interval starts solve one block-cyclic system of the interval transfers
and jumps.  Sandwiching with the boundary matrices Q gives the N x N
matrices entering the gauge potential, N = sum of the Q widths.  All
evaluations at one (data, t) share a GreensEvaluator: the transfer caches
of monodromy.Propagator.
"""

from dataclasses import dataclass

import numpy as np

from . import monodromy, nahm
from .errors import IntegrationError, IrregularPointError

_COND_LIMIT = 1e12
_DIAG_TOL = 1e-8


def _diagonal_limits(tag, right, left):
    """Largest defect of the flow's own state between the right and the left
    limits of a solution at the marked points, both (n, S, rows, w): the
    value rows of its S stacked states.  IntegrationError unless every state
    agrees at every marked point to _DIAG_TOL at its own scale there."""
    defects = np.max(np.abs(left - right), axis=(2, 3))
    bad = defects > _DIAG_TOL * np.maximum(1.0, np.max(np.abs(right), axis=(2, 3)))
    if np.any(bad):
        beta = int(np.argmax(np.where(bad, defects, -1.0)) // bad.shape[1])
        raise IntegrationError(
            f"diagonal limits of the {tag} solution disagree at marked point "
            f"{beta} (defect {np.max(defects[bad]):.3e}); tighten the tolerance")
    return float(np.max(defects[:, -1]))


class GreensEvaluator(monodromy.Propagator):
    """Green's functions at one (data, t) from the cached interval transfers."""

    def loop_solution(self, tag, sources):
        """Periodic solution of flow `tag` with a source at every marked
        point: its states X_i at the start of every interval (right limits
        at lambda_i), (n, rows, w), and the largest diagonal-limit defect of
        the flow's own state.

        sources[beta] (rows, w) enters at lambda_beta after the jump, so the
        starts solve the block-cyclic system X_{i+1} - Phi_i X_i = S_{i+1}
        (i mod n) for the steps Phi_i = J_{i+1} T_i (Propagator.steps),
        conditioned by the dichotomy of the flow rather than its monodromy
        (Ascher, Mattheij & Russell 1995, ch. 4).  Its block
        K0 on the flow's own state is (n m)-square, id - iota for n = 1.  A
        t-jet (nahm.JET) stacks d_s X in nahm.jet_states order, so the
        system is block triangular by jet order with K0 on the diagonal: one
        solve per order, right-hand sides side by side, coupled to the lower
        orders by the off-diagonal blocks of the steps.

        cond(K0) > _COND_LIMIT raises IrregularPointError with cond(K0) and
        the gap min |eig - 1| of the loop iota at lambda_0 (see the error
        type); a loop that overflows raises IntegrationError.  At every marked
        point the left limit Phi_{beta-1} X_{beta-1} + S_beta must give the
        value rows of X_beta (_diagonal_limits); all rows of the first-order
        flow are values.
        """
        n = self.data.n
        steps = self.steps(tag)
        sources = np.asarray(sources)
        orders = [len(s) for s in nahm.jet_states(nahm.JET.get(tag, 0))]
        S, (R, w) = len(orders), sources.shape[1:]
        m = R // S
        i = np.arange(n)    # X_i couples to X_{i-1}, X_0 to X_{n-1}
        K0 = np.eye(n * m, dtype=complex)
        K0.reshape(n, m, n, m)[i, :, i - 1] -= steps[i - 1, -m:, -m:]
        cond = np.linalg.cond(K0) if np.all(np.isfinite(K0)) else np.inf
        if not cond <= _COND_LIMIT:
            eig = np.linalg.eigvals(self.loop(tag)[-m:, -m:])
            gap = float(np.min(np.abs(eig - 1)))
            raise IrregularPointError(
                f"{tag} periodic system at t = {tuple(self.t.tolist())} has "
                f"cond(K0) = {cond:.3e} > {_COND_LIMIT:.0e}; loop gap "
                f"min |eig - 1| = {gap:.3e}", gap=gap, cond=float(cond))
        X = np.zeros((n, S, m, w), dtype=complex)
        for r in range(orders[0] + 1):
            a = orders.index(r)
            b = a + orders.count(r)
            rhs = sources.reshape(n, S, m, w)[:, a:b]
            if b < S:   # Phi_{i-1} X_{i-1} of the lower orders at start i
                lower = steps[:, a * m:b * m, b * m:] @ X[:, b:].reshape(n, -1, w)
                rhs = rhs + lower[i - 1].reshape(rhs.shape)
            sol = np.linalg.solve(K0, rhs.transpose(0, 2, 1, 3).reshape(n * m, -1))
            X[:, a:b] = sol.reshape(n, m, b - a, w).transpose(0, 2, 1, 3)
        starts = X.reshape(n, R, w)
        left = (steps @ starts)[i - 1] + sources
        rows = m if tag == "ddag" else m // 2
        return starts, _diagonal_limits(
            tag, X[:, :, :rows], left.reshape(X.shape)[:, :, :rows])

    def unit_kicks(self, tag):
        """Sources of the Green's function of the finv jet `tag`: a unit
        kick -pi_1 into the derivative rows of the flow's own state at
        lambda_beta, in column block beta, (n, rows, n k)."""
        n, v, S = self.data.n, self.data.k, len(nahm.jet_states(nahm.JET[tag]))
        kicks = np.zeros((n, S, 2, v, n, v), dtype=complex)
        for beta in range(n):
            kicks[beta, -1, 1, :, beta] = -np.eye(v)
        return kicks.reshape(n, 2 * S * v, n * v)

    # -- boundary matrices --------------------------------------------------

    def boundary(self, order=0):
        """Blocks F(lambda_beta, lambda_alpha) at every pair of marked points
        and their t-derivatives up to `order` (0, 1 or 2), from one periodic
        solve with a unit source at every marked point.

        The solve runs on the finv jet of that order (nahm.FINV_JET), whose
        states carry d_s F: jet[s, beta, alpha] is the value block of state
        s at lambda_beta in column block alpha, so one solve yields F,
        d_nu F and, at order 2, d_rho d_nu F (BoundaryGreens.jet).
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        tag = nahm.FINV_JET[order]
        starts, diag_defect = self.loop_solution(tag, self.unit_kicks(tag))
        n, v = self.data.n, self.data.k
        jet = starts.reshape(n, -1, 2, v, n, v)[:, :, 0].transpose(1, 0, 3, 2, 4)
        F = jet[-1]
        herm = _hermiticity_defect(F)
        scale = max(1.0, float(np.max(np.abs(F))))
        if herm > 1e-8 * scale:
            raise IntegrationError(
                f"boundary Green's matrix lost hermiticity (defect {herm:.3e}); "
                "tighten the integrator tolerance")
        jet.setflags(write=False)
        return BoundaryGreens(t=tuple(float(x) for x in self.t), jet=jet,
                              diag_defect=diag_defect, herm_defect=herm)


@dataclass(frozen=True)
class BoundaryGreens:
    """Marked-point blocks of the Green's function F at one t.

    jet[s, beta, alpha] is the k x k block d_s F for each state s of
    nahm.jet_states(order), read-only: F, dF[nu] = d_nu F (order >= 1) and
    ddF[rho, nu] = d_rho d_nu F (order 2) pick it apart.  diag_defect
    records the largest defect between the left and right limits of F over
    the marked points (GreensEvaluator.loop_solution), herm_defect the
    block-hermiticity defect of F.
    """
    t: tuple
    jet: np.ndarray
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


def boundary_sandwich(data, blocks):
    """Spin-resolved sandwiches of a whole stack of block sets, (..., 2, 2, N, N).

    blocks has shape (..., n, n, k, k); Z[..., s, t] is the N x N matrix
    with (beta, alpha) block Q_beta^dag (e_st (x) blocks[..., beta, alpha])
    Q_alpha for the spin matrix unit e_st, so that the sandwich with any
    spin matrix S is the contraction sum_st S[s, t] Z[..., s, t]; one
    stacked product for every block set and spin unit, with NahmData.boundary_Q
    by spin row, (2, n k, N), as the factors.
    """
    n, k = data.n, data.k
    B = np.swapaxes(blocks, -3, -2).reshape(blocks.shape[:-4] + (n * k, n * k))
    Qs = data.boundary_Q.reshape(n, 2, k, -1).swapaxes(0, 1).reshape(2, n * k, -1)
    return Qs.conj().swapaxes(-1, -2)[:, None] @ B[..., None, None, :, :] @ Qs


def identity_sandwich(Z):
    """The sandwich with the spin identity, sum_s Z[..., s, s], from
    boundary_sandwich output."""
    return Z[..., 0, 0, :, :] + Z[..., 1, 1, :, :]


def qfq_matrix(data, bg):
    """The N x N matrix with blocks Q_beta^dag (id2 (x) F[beta,alpha]) Q_alpha."""
    return identity_sandwich(boundary_sandwich(data, bg.F))


def boundary_greens(data, t, tol=1e-10):
    """All marked-point blocks F at one t."""
    return GreensEvaluator(data, t, tol).boundary()

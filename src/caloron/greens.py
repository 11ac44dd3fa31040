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
lambda_alpha) and G(lambda_beta, lambda_alpha) from one periodic solve
with a unit source at every marked point (GreensEvaluator.loop_solution):
the states at the start of every interval are the kernels sourced at all
marked points, side by side; sandwiching with the boundary matrices Q
gives the N x N matrices entering the gauge potential, N = sum of the Q
widths.

All evaluations at a fixed (data, t) share one GreensEvaluator: the
circle walk and transfer caches of monodromy.Propagator.
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

    def _checked_inverse_apply(self, M, rhs, where):
        A = M - np.eye(M.shape[0])
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise IrregularPointError(
                f"monodromy has a (near-)unit eigenvalue at t = "
                f"{tuple(self.t.tolist())} ({where}; cond = {cond:.3e})",
                gap=_gap_from_unity(M), cond=float(cond))
        return np.linalg.solve(A, rhs)

    def loop_solution(self, tag, sources):
        """Periodic solution of flow `tag` with a source at every marked
        point: its states X_i at the start of every interval (right limits
        at lambda_i), (n, rows, w), and the closing defect of the flow's own
        state.

        sources[beta] (rows, w) enters at lambda_beta after the jump, so with
        the closed interval transfers T_i and jumps J,
        X_{i+1} = J_{i+1} T_i X_i + S_{i+1}.  One pass sums the carried
        sources into c, and going once round from lambda_0 gives
        (iota - id) X_0 = -c, iota the loop based at lambda_0: one checked
        solve.  A t-jet flow (nahm.JET) stacks the states d_s X in the
        order of nahm.jet_states; its loop carries iota on the diagonal and
        every d_s iota in its last block column, so the derivative states
        follow by block back-substitution through the same matrix,

            (iota - id) X_s = -c_s - sum_a d_a iota X_rest

        over nahm.leibniz_splits(s), one solve per order with its
        right-hand sides side by side.  The forward recurrence then gives
        the other starts, and its return to lambda_0 must reproduce the
        value rows of X_0, state by state at the state's own scale, so that
        large d_nu F states cannot mask a defect of F; every row of the
        first-order flow is a value row.
        """
        n = self.data.n
        T, J = self.interval_transfers(tag), self.jumps(tag)

        def across(i, X):
            X = T[i] @ X
            return (X if J is None else J[(i + 1) % n] @ X) + sources[(i + 1) % n]

        c = np.zeros_like(sources[0])
        for i in range(n):
            c = across(i, c)
        order = nahm.JET.get(tag, 0)
        states = nahm.jet_states(order)
        loop = self.loop(tag, self.data.lambdas[0])
        m = len(loop) // len(states)
        d_iota = dict(zip(states, loop[:, -m:].reshape(-1, m, m)))
        iota = d_iota[()]
        c = dict(zip(states, c.reshape(len(states), m, -1)))
        X = {(): self._checked_inverse_apply(
            iota, -c[()], f"{tag} loop at marked point 0")}
        for r in range(1, order + 1):
            group = [s for s in states if len(s) == r]
            rhs = np.stack([-c[s] - sum(d_iota[a] @ X[rest]
                                        for a, rest in nahm.leibniz_splits(s))
                            for s in group], axis=1)
            dX = np.linalg.solve(iota - np.eye(m), rhs.reshape(m, -1))
            X.update(zip(group, dX.reshape(rhs.shape).swapaxes(0, 1)))
        starts = [np.concatenate([X[s] for s in states])]
        for i in range(n):
            starts.append(across(i, starts[i]))
        rows = m if J is None else m // 2
        first, last = (x.reshape(len(states), m, -1)[:, :rows]
                       for x in (starts[0], starts.pop()))
        defects = np.max(np.abs(last - first), axis=(1, 2))
        scales = np.maximum(1.0, np.max(np.abs(first), axis=(1, 2)))
        if np.any(defects > _DIAG_TOL * scales):
            worst = float(np.max(defects[defects > _DIAG_TOL * scales]))
            raise IntegrationError(
                f"diagonal limits of the {tag} solution disagree at marked "
                f"point 0 (closing defect {worst:.3e}); tighten the tolerance")
        return np.array(starts), float(defects[-1])

    def unit_kicks(self, tag):
        """Sources of the Green's function of a second-order flow: a unit
        kick -pi_1 into the derivative rows of the flow's own state at
        lambda_beta, in column block beta, (n, rows, n v) for v value rows."""
        n, S = self.data.n, len(nahm.jet_states(nahm.JET[tag]))
        v = len(self.interval_transfers(tag)[0]) // (2 * S)
        kicks = np.zeros((n, S, 2, v, n, v), dtype=complex)
        for beta in range(n):
            kicks[beta, -1, 1, :, beta] = -np.eye(v)
        return kicks.reshape(n, 2 * S * v, n * v)

    # -- boundary matrices --------------------------------------------------

    def boundary(self, order=0, want_G=False):
        """Blocks F(lambda_beta, lambda_alpha) at every pair of marked points
        and their t-derivatives up to `order` (0, 1 or 2), from one periodic
        solve with a unit source at every marked point.

        The solve runs on the finv jet of that order (nahm.FINV_JET), whose
        states carry d_s F: jet[s, beta, alpha] is the value block of state
        s at lambda_beta in column block alpha, so one solve yields F,
        d_nu F and, at order 2, d_rho d_nu F (BoundaryGreens.jet).  G
        (want_G) comes from the ddagd flow.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")

        def blocks(tag):
            starts, defect = self.loop_solution(tag, self.unit_kicks(tag))
            n = len(starts)
            v = starts.shape[-1] // n
            vals = starts.reshape(n, -1, 2, v, n, v)[:, :, 0]
            return vals.transpose(1, 0, 3, 2, 4), defect

        jet, diag_defect = blocks(nahm.FINV_JET[order])
        G = None
        if want_G:
            (G,), defect = blocks("ddagd")
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


@dataclass(frozen=True)
class BoundaryGreens:
    """Marked-point blocks of the Green's functions at one t.

    jet[s, beta, alpha] is the k x k block d_s F for each state s of
    nahm.jet_states(order), read-only: F, dF[nu] = d_nu F (order >= 1) and
    ddF[rho, nu] = d_rho d_nu F (order 2) pick it apart.  G[beta, alpha]
    (if requested) is 2k x 2k.  diag_defect records the closing defect at
    lambda_0 of F and G, the larger one (GreensEvaluator.loop_solution),
    herm_defect the block-hermiticity defect of F.
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

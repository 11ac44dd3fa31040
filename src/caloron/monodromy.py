"""Transfer matrices and circle monodromies of the kernel ODEs.

The first-order flow comes from the Weyl operator D^dagger: solutions of
D^dagger f = 0 satisfy f' = M(s) f with M = flow_coefficient(..., 'ddag').
The flow of D is its adjoint, M_D = -M^dagger, so D's loop is the inverse
adjoint of D^dagger's and regularity reads both gaps off the one D^dagger
loop.  First-order solutions are continuous across marked points, so the
circle monodromy is a plain product of interval transfers.

Second-order flows belong to the two laplacians built from the data:

* operator_tag='finv'  : k-dimensional,
      f'' = [i T_0' + (T_0+t_0)^2 + sum_j (T_j+t_j)^2] f + 2i (T_0+t_0) f'
* operator_tag='ddagd' : 2k-dimensional, the same coefficients lifted by
      kron(id2, .), spin-diagonal in the interval interiors.

Both are integrated as companion systems on the state (f, f'); at a
marked point the state jumps by [[id, 0], [J, id]] (the value stays
continuous, the derivative picks up J times the value):

* finv  : J = i Delta T_0 + (1/2) spin_trace(Q Q^dagger)
* ddagd : J = kron(id2, i Delta T_0) - sum_j kron(E[j], (Q Q^dagger)_j)

and the t-jets of finv (nahm.JET) jump by the finv map in every state.

An interval transfer is the exact exponential of the constant coefficient
on a degree-0 interval and an adaptive DP45 integration on the others,
whose coefficient (nahm.flow_coefficient) is a precomputed Chebyshev
series: an evaluation per stage is one small product, and a Propagator
builds it once per (flow, interval) for all the spans it integrates.
Every composed transfer is one walk of a Propagator: from a base point y
it multiplies interval transfers (and transfers of partial spans) in order
and applies the jump of every marked point crossed, i.e. those in
(y, x] for a walk to x; a loop based on a marked point gets its own jump
applied once, at the end.  Periodic solutions with sources at the marked
points walk no loop: they solve one block-cyclic system of the closed
transfers and the jumps (greens.GreensEvaluator.loop_solution), and only
their irregular-point report reads the loop at lambda_0.  Within one
interval, interval_states carries a state to many points at once: one
stacked exponential on a degree-0 interval.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import nahm
from .errors import IntegrationError
from .nahm import TWO_PI, locate, q_spin_parts
from .spin import E, kron_spin

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - bhat: weights of the embedded 4th-order error estimate
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])

_MIN_STEP_FACTOR = 1e-14
_MAX_STEPS = 1_000_000


# [13/13] Pade numerator coefficients, and the largest 1-norm for which the
# approximant's backward error stays below the unit roundoff (Higham,
# SIMAX 26 (2005) 1179).  Normalised to b_0 = 1, so that a nilpotent A meets
# exact unit pivots in the solve: [[0, s], [0, 0]] gives exactly
# [[1, s], [0, 1]].
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600,
    1187353796428800, 129060195264000, 10559470521600, 670442572800,
    33522128640, 1323241920, 40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def expm(A):
    """Matrix exponential: [13/13] Pade approximant with scaling and squaring.

    A is one square matrix or a (..., m, m) stack of them.  Each is scaled
    by 2**-s so that its 1-norm is at most _THETA13, and the approximant of
    the scaled matrix is squared s times.
    """
    A = np.asarray(A, dtype=complex)
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    A = A / (2.0 ** s)[..., None, None]
    b = _PADE13
    ident = np.eye(A.shape[-1], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (b[1] * ident + b[3] * A2 + b[5] * A4 + b[7] * A6
             + A6 @ (b[9] * A2 + b[11] * A4 + b[13] * A6))
    V = (b[0] * ident + b[2] * A2 + b[4] * A4 + b[6] * A6
         + A6 @ (b[8] * A2 + b[10] * A4 + b[12] * A6))
    R = np.linalg.solve(V - U, V + U)
    for r in range(int(s.max(initial=0))):
        squared = s > r
        R = R @ R if squared.all() else np.where(squared[..., None, None], R @ R, R)
    return R


def _checked_expm(M, location):
    """expm of M (one matrix or a stack), IntegrationError unless finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        Y = expm(M) if np.isfinite(np.abs(M).sum()) else None
    if Y is None or not np.all(np.isfinite(Y)):
        raise IntegrationError(
            f"non-finite exponential of the coefficient at s = {location:.6g}",
            location=location)
    return Y


def transfer(coeff, s0, s1, tol=1e-10, constant=False):
    """Transfer matrix of Y' = coeff(s) Y from s0 to s1 (Y(s0) = id).

    coeff maps s to a square complex matrix.  With constant=True coeff is
    taken to be constant on [s0, s1]: it is evaluated once, at s0, and the
    transfer is the exact exponential expm(coeff(s0) * (s1 - s0)).
    Otherwise adaptive Dormand-Prince 5(4) with mixed absolute/relative
    per-step error control at tol.
    """
    if constant:
        with np.errstate(over="ignore", invalid="ignore"):
            M = np.asarray(coeff(s0), dtype=complex) * (s1 - s0)
        return _checked_expm(M, s0)
    span = s1 - s0
    C0 = np.asarray(coeff(s0), dtype=complex)
    m = C0.shape[0]
    Y = np.eye(m, dtype=complex)
    if span == 0.0:
        return Y
    direction = 1.0 if span > 0 else -1.0
    scale = np.max(np.abs(C0)) + 1e-30
    h = direction * min(abs(span), max(0.1 / scale, 1e-6 * abs(span)))
    s = s0
    K1 = C0  # f(s0, id)
    steps = 0
    while (s1 - s) * direction > 0:
        if abs(h) < _MIN_STEP_FACTOR * max(1.0, abs(s)):
            raise IntegrationError(
                f"step size underflow at s = {s:.6g}", location=s)
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegrationError(
                f"step limit exceeded near s = {s:.6g}", location=s)
        if (s + h - s1) * direction > 0:
            h = s1 - s
        # the stages stacked, each weighted sum one real product over them
        K = np.empty((7, m, m), dtype=complex)
        Kr = K.reshape(7, m * m).view(float)
        K[0] = K1
        for i in range(1, 7):
            Zi = Y + h * (_DP_A[i] @ Kr[:i]).view(complex).reshape(m, m)
            K[i] = np.asarray(coeff(s + _DP_C[i] * h), dtype=complex) @ Zi
        Ynew = Y + h * (_DP_B @ Kr).view(complex).reshape(m, m)
        err = h * (_DP_E @ Kr).view(complex)
        sc = tol + tol * max(np.abs(Y).max(), np.abs(Ynew).max())
        enorm = np.abs(err).max() / sc
        if enorm <= 1.0:
            s = s + h
            Y = Ynew
            K1 = K[6]  # FSAL: stage 7 was evaluated at (s+h, Ynew)
            grow = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
            h *= grow
        else:
            h *= max(0.2, 0.9 * enorm ** -0.2)
            K1 = K[0]
    return Y


def second_order_jump(data, alpha, tag="finv"):
    """Marked-point jump map of the second-order flow `tag`, kron(id_S,
    [[id, 0], [J, id]]) on its S stacked companion states (nahm.JET).

    J is t-independent: crossing lambda_alpha, the derivative of a kernel
    element jumps by J times its (continuous) value, in every state of a jet.
    """
    states = nahm.jet_states(nahm.JET[tag])
    dT0 = nahm.jump_T(data, alpha, 0)
    parts = q_spin_parts(data, alpha)
    if tag == "ddagd":
        J = kron_spin(np.eye(2), 1j * dT0)
        for j in (1, 2, 3):
            J = J - kron_spin(E[j], parts[j])
    else:
        J = 1j * dT0 + parts[0]  # (1/2) spin_trace(QQ^dag) = parts[0]
    m = J.shape[0]
    jump = np.eye(2 * m, dtype=complex)
    jump[m:, :m] = J
    return np.kron(np.eye(len(states)), jump)


def _interval_transfer(data, i, coeff, s0, s1, tol):
    """Transfer of the flow with coefficient `coeff` on interval i over
    [s0, s1], in the interval's own coordinate.

    A degree-0 interval has a constant coefficient, whose transfer is the
    exact exponential; the others are integrated by DP45 at tol.
    """
    return transfer(coeff, s0, s1, tol, constant=data.intervals[i].degree == 0)


def _closed_transfers(data, coefficient, tol):
    return [_interval_transfer(data, i, coefficient(i),
                               *data.interval_bounds(i), tol)
            for i in range(data.n)]


def interval_transfers_first_order(data, which, coefficient, tol):
    """Transfer matrices over each closed interval [lambda_i, lambda_{i+1}]
    of the first-order flow `which` ('ddag', the only one); coefficient(i)
    is its coefficient on interval i."""
    if which != "ddag":
        raise ValueError(f"which must be 'ddag', got {which!r}")
    return _closed_transfers(data, coefficient, tol)


def interval_transfers_second_order(data, operator_tag, coefficient, tol):
    """Companion-system transfers over each closed interval of the flow
    `operator_tag` (one of nahm.JET); coefficient as for
    interval_transfers_first_order (nahm.flow_coefficient rejects an
    unknown tag)."""
    return _closed_transfers(data, coefficient, tol)


class Propagator:
    """The kernel flows at one (data, t): cached transfers and the circle walk.

    Caches per flow tag (nahm.FLOWS) the interval transfers and the jump
    maps, per (tag, interval) the flow coefficient, which the closed and the
    partial spans of an interval share, and per (tag, interval, s0, s1) the
    transfer of every partial span, kept in the interval's own coordinate,
    so that walks from different base points share the spans they have in
    common.  tol is the DP45 tolerance of the degree>0 intervals.
    """

    def __init__(self, data, t, tol=1e-10):
        self.data = data
        self.t = np.asarray(t, dtype=float)
        self.tol = tol
        self._transfers = {}
        self._jumps = {}
        self._coeffs = {}
        self._spans = {}

    def interval_transfers(self, tag):
        """Transfers of flow `tag` over each closed interval."""
        if tag not in self._transfers:
            build = (interval_transfers_first_order if tag == "ddag"
                     else interval_transfers_second_order)
            self._transfers[tag] = build(self.data, tag,
                                         partial(self._coefficient, tag), self.tol)
        return self._transfers[tag]

    def jumps(self, tag):
        """Marked-point jump maps of a second-order flow (None for first order)."""
        if tag == "ddag":
            return None
        if tag not in self._jumps:
            self._jumps[tag] = [second_order_jump(self.data, alpha, tag)
                                for alpha in range(self.data.n)]
        return self._jumps[tag]

    def _coefficient(self, tag, i):
        key = (tag, i)
        if key not in self._coeffs:
            self._coeffs[key] = nahm.flow_coefficient(self.data, self.t, i, tag)
        return self._coeffs[key]

    def _span(self, tag, i, s0, s1):
        key = (tag, i, s0, s1)
        if key not in self._spans:
            self._spans[key] = _interval_transfer(
                self.data, i, self._coefficient(tag, i), s0, s1, self.tol)
        return self._spans[key]

    def interval_states(self, tag, i, s, state):
        """A state at the start of interval i carried to each of the points
        s (increasing, in the interval's own coordinate), (len(s), m, w).

        On a degree-0 interval the transfers are one stacked exponential
        expm(M * (s - a)); on the others the cached DP45 spans between
        consecutive points are chained.  No marked point is crossed, so no
        jump applies.
        """
        a = self.data.interval_bounds(i)[0]
        s = np.asarray(s, dtype=float)
        if self.data.intervals[i].degree == 0:
            M = np.asarray(self._coefficient(tag, i)(a), dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                M = M * (s - a)[:, None, None]
            return _checked_expm(M, a) @ state
        out = np.empty((len(s),) + state.shape, dtype=complex)
        pos = a
        for q, x in enumerate(s):
            if x != pos:
                state = self._span(tag, i, pos, x) @ state
                pos = x
            out[q] = state
        return out

    def walk(self, tag, y, stop):
        """Transport from y forward to stop, an (interval, coordinate)
        location as nahm.locate returns it, within (y, y + 2*pi]; a stop at
        y itself stands for y + 2*pi.  Second-order flows apply the jump of
        every marked point in (y, stop].
        """
        data, n = self.data, self.data.n
        T = self.interval_transfers(tag)
        J = self.jumps(tag)
        i0, pos = locate(data, y)
        i, s = stop
        passes = (i - i0) % n
        if passes == 0 and s <= pos:
            passes = n
        state = np.eye(len(T[0]), dtype=complex)
        for done in range(passes):
            j = (i0 + done) % n
            a, b = data.interval_bounds(j)
            state = (T[j] if pos == a else self._span(tag, j, pos, b)) @ state
            if J is not None:
                state = J[(j + 1) % n] @ state
            pos = data.lambdas[(j + 1) % n]
        if s != pos:
            state = self._span(tag, i, pos, s) @ state
        return state

    def loop(self, tag, y):
        """Full-circle transfer based at y.

        A base point on a marked point gets its own jump once, at the end.
        A loop that overflows (its norm grows like e^{2 pi |t|}) raises
        IntegrationError.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            M = self.walk(tag, y, locate(self.data, y))
        if not np.all(np.isfinite(M)):
            raise IntegrationError(
                f"non-finite {tag} loop based at s = {y:.6g}", location=y)
        return M

    def path_matrix(self, tag, y, x):
        """Transport from y to x, x in (y, y + 2*pi] up to winding.

        Second-order tags compose the jump of every marked point in
        (y, x]; returned derivative blocks at a marked x are therefore
        right limits.  The unreduced difference x - y decides the two ends:
        within the marked-point tolerance of 0 the path is the identity,
        within it of a nonzero multiple of 2*pi it is the loop.
        """
        turns = round((x - y) / TWO_PI)
        if abs(x - y - turns * TWO_PI) < nahm._MARKED_ATOL:
            if turns == 0:
                return np.eye(len(self.interval_transfers(tag)[0]), dtype=complex)
            return self.loop(tag, y)
        return self.walk(tag, y, locate(self.data, y + (x - y) % TWO_PI))


@dataclass(frozen=True)
class RegularityReport:
    gap_ddag: float
    gap_d: float
    is_regular: bool
    threshold: float


def regularity(data, t, tol=1e-10, threshold=1e-6):
    """Distance of the first-order monodromy spectra from 1.

    The Green's functions exist iff neither first-order monodromy has a
    unit eigenvalue; is_regular requires both gaps to exceed threshold.
    Only the D^dagger loop is walked: D is the adjoint flow, so its loop is
    the inverse adjoint of that loop, and an eigenvalue lam of the D^dagger
    loop gives 1/conj(lam) of the D loop, at |lam - 1| / |lam| from 1.
    """
    eig = np.linalg.eigvals(Propagator(data, t, tol).loop("ddag", data.lambdas[0]))
    dist = np.abs(eig - 1.0)
    gap_ddag, gap_d = float(np.min(dist)), float(np.min(dist / np.abs(eig)))
    return RegularityReport(gap_ddag=gap_ddag, gap_d=gap_d,
                            is_regular=min(gap_ddag, gap_d) > threshold,
                            threshold=threshold)

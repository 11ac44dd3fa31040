"""Transfer matrices and circle monodromies of the kernel ODEs.

The first-order flow comes from the Weyl operator D^dagger: solutions of
D^dagger f = 0 satisfy f' = M(s) f with M = flow_coefficient(..., 'ddag').
The flow of D is its adjoint, M_D = -M^dagger, so D's loop is the inverse
adjoint of D^dagger's and regularity reads both gaps off the one D^dagger
loop.  First-order solutions are continuous across marked points, so the
circle monodromy is a plain product of interval transfers.

The second-order flow 'finv' of the laplacian D^dagger D is k-dimensional,

    f'' = [i T_0' + (T_0+t_0)^2 + sum_j (T_j+t_j)^2] f + 2i (T_0+t_0) f',

integrated with its t-jets (nahm.JET) as a companion system on the state
(f, f').  At a marked point the value stays continuous and the derivative
picks up J = i Delta T_0 + (1/2) spin_trace(Q Q^dagger) times the value, in
every state of a jet (jump_block; Delta T_0 from the Chebyshev ends).

Every interval transfer comes from transfer: the exact exponential of the
constant coefficient on a degree-0 interval and an adaptive DOP853 (order
8) integration on the others, whose coefficient (nahm.flow_coefficient) is
a precomputed Chebyshev series: the coefficient at all stages of a step is
one small product, and a Propagator builds the series once per (flow,
interval) for all the spans it integrates.

The circle is composed from one place, the block-cyclic steps of a
Propagator: Phi_i = J_{i+1} T_i, the closed transfer of interval i and then
the jump at its end (Phi_i = T_i on the first-order flow).  The loop based
at lambda_0 is their ordered product, and periodic solutions with sources
at the marked points solve one block-cyclic system of them
(greens.GreensEvaluator.loop_solution), which inverts no loop.  Within one
interval, interval_states carries a state to many points at once: one
stacked transfer to all of them on a degree-0 interval, the transfers
between consecutive points chained on the others.
"""

from dataclasses import dataclass
from functools import partial, reduce
from numbers import Real

import numpy as np

from . import nahm
from .errors import IntegrationError
from .spin import spin_trace

# DOP853, the explicit Runge-Kutta pair of order 8 with 5th- and 3rd-order
# error estimators (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10;
# the coefficients of their dop853 code).  Stage i (from 0) sits at s +
# _C[i] h and weighs the stages before it by _A[i]; _B gives the 8th-order
# step, _E5 and _E3 the two estimators (b - bhat, each summing to 0).  The
# 13th stage, f at (s + h, Y_new), weighs in neither: it is the next step's
# first (FSAL).
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0])
_A = tuple(np.array(row) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
))
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])
# the 3rd-order weights bhat sit on stages 1, 9 and 12 alone
_E3 = _B - np.array([0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.733846688281611857341361741547, 0.0, 0.0,
                     0.220588235294117647058823529412e-1])
# the step and both estimators as one real product over the stacked stages
_WEIGHTS = np.stack([_B, _E5, _E3])

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


# The exponential's error grows like the unit roundoff times |M ds|_1 (the
# squarings); past this norm it would exceed the 1e-8 tolerance the Green's
# blocks are checked to at the marked points.
_EXPM_MAX_NORM = 1e-8 / 2.0 ** -53


def transfer(coeff, s0, s1, tol=1e-10, constant=False):
    """Transfer matrix of Y' = coeff(s) Y forward from s0 to s1 >= s0
    (Y(s0) = id); an end point below s0, or not a number, is a ValueError.

    coeff maps a point s to a square complex matrix, and a 1-D array of
    points to the stack of those matrices.  With constant=True coeff is
    taken to be constant on [s0, s1]: it is evaluated once, at s0, and the
    transfer is the exact exponential expm(coeff(s0) * (s1 - s0)); s1 may
    also be an increasing 1-D array of end points, whose transfers come
    back stacked.  A non-finite exponential, or one whose |coeff * (s1 -
    s0)|_1 is too large for it to be accurate, raises IntegrationError at
    s0.  Otherwise adaptive DOP853 (order 8) with mixed absolute/relative
    max-norm error control at tol: coeff is called once per step attempt,
    on all its stage points, and a non-finite coefficient or stage raises
    IntegrationError.
    """
    span = np.asarray(s1, dtype=float) - s0
    if not (span.min() if span.ndim else span) >= 0.0:   # NaN fails too
        raise ValueError(f"transfer runs forward: end point {s1} is not >= s0 = {s0}")
    if constant:
        with np.errstate(over="ignore", invalid="ignore"):
            M = np.asarray(coeff(s0), dtype=complex) * span[..., None, None]
            norm = np.abs(M).sum(axis=-2).max()
            Y = expm(M) if np.isfinite(norm) else None
        if Y is None or not np.all(np.isfinite(Y)):
            raise IntegrationError(
                f"non-finite exponential of the coefficient at s = {s0:.6g}",
                location=s0)
        if norm > _EXPM_MAX_NORM:
            raise IntegrationError(
                f"inaccurate exponential of the coefficient at s = {s0:.6g}: "
                f"|M ds|_1 = {norm:.3g} exceeds {_EXPM_MAX_NORM:.3g}", location=s0)
        return Y
    with np.errstate(over="ignore", invalid="ignore"):
        C0 = np.asarray(coeff(s0), dtype=complex)
        m = C0.shape[0]
        Y = np.eye(m, dtype=complex)
        scale = np.max(np.abs(C0)) + 1e-30
        h = min(span, max(0.1 / scale, 1e-6 * span))
        # the stages stacked, each weighted sum one real product over them;
        # K[0] = f(s, Y), carried over from the last accepted step (FSAL)
        K = np.empty((len(_C), m, m), dtype=complex)
        Kr = K.reshape(len(_C), m * m).view(float)
        K[0] = C0
        stages = K[1:].shape
        s, y_max, steps = s0, 1.0, 0
        while s1 - s > 0:
            if h < _MIN_STEP_FACTOR * max(1.0, abs(s)):
                raise IntegrationError(
                    f"step size underflow at s = {s:.6g}", location=s)
            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(
                    f"step limit exceeded near s = {s:.6g}", location=s)
            if s + h - s1 > 0:
                h = s1 - s
            Ms = np.asarray(coeff(s + _C[1:] * h), dtype=complex)
            if Ms.shape != stages:
                raise ValueError(f"coeff gave shape {Ms.shape} for the "
                                 f"stage points, not {stages}")
            for i in range(1, len(_C)):
                Z = Y + ((h * _A[i]) @ Kr[:i]).view(complex).reshape(m, m)
                np.matmul(Ms[i - 1], Z, out=K[i])
            step, e5, e3 = _WEIGHTS @ Kr
            Ynew = Y + h * step.view(complex).reshape(m, m)
            ynew_max = np.abs(Ynew).max()
            e5, e3 = np.abs(e5.view(complex)).max(), np.abs(e3.view(complex)).max()
            if not (np.isfinite(e5) and np.isfinite(ynew_max)):
                raise IntegrationError(
                    f"non-finite coefficient or stage at s = {s:.6g}", location=s)
            # dop853's blend of the two estimators, against the max-norm scale
            sc = tol + tol * max(y_max, ynew_max)
            enorm = 0.0 if e5 == 0.0 else (
                h * e5 / sc * (e5 / np.hypot(e5, 0.1 * e3)))
            if enorm <= 1.0:
                s = s + h
                Y, y_max = Ynew, ynew_max
                np.matmul(Ms[-1], Y, out=K[0])   # FSAL: f at the new (s, Y)
                h *= 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.125)
            else:
                h *= max(0.2, 0.9 * enorm ** -0.125)
    return Y


def jump_block(data, alpha):
    """The t-independent block J = i Delta T_0 + (1/2) spin_trace(Q Q^dagger)
    of the finv flow's jump at lambda_alpha."""
    q = data.Q[alpha]
    return 1j * nahm.jump_T(data, alpha, 0) + 0.5 * spin_trace(q @ q.conj().T)


def _closed_transfers(data, coefficient, tol):
    return [transfer(coefficient(i), *data.interval_bounds(i), tol,
                     constant=data.intervals[i].degree == 0)
            for i in range(data.n)]


def interval_transfers_first_order(data, which, coefficient, tol):
    """Transfer matrices over each closed interval [lambda_i, lambda_{i+1}]
    of the first-order flow `which` ('ddag', the only one); coefficient(i)
    is its coefficient on interval i."""
    if which != "ddag":
        raise ValueError(f"which must be 'ddag', got {which!r}")
    return _closed_transfers(data, coefficient, tol)


def interval_transfers_second_order(data, operator_tag, coefficient, tol):
    """Companion-system transfers of the finv jet `operator_tag` (nahm.JET)
    over each closed interval; coefficient as for the first order."""
    return _closed_transfers(data, coefficient, tol)


class Propagator:
    """The kernel flows at one (data, t): cached transfers and their steps.

    Caches per flow tag (nahm.FLOWS) the interval transfers, and per (tag,
    interval) the flow coefficient, which the closed and the partial spans
    of an interval share.  tol is the DOP853 tolerance of the degree>0
    intervals, a positive finite real (ValueError otherwise).
    """

    def __init__(self, data, t, tol=1e-10):
        if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 < tol < np.inf):
            raise ValueError(f"tol must be a positive finite real, got {tol!r}")
        self.data = data
        self.t = np.asarray(t, dtype=float)
        self.tol = tol
        self._transfers = {}
        self._coeffs = {}

    def interval_transfers(self, tag):
        """Transfers of flow `tag` over each closed interval."""
        if tag not in self._transfers:
            build = (interval_transfers_first_order if tag == "ddag"
                     else interval_transfers_second_order)
            self._transfers[tag] = build(self.data, tag,
                                         partial(self._coefficient, tag), self.tol)
        return self._transfers[tag]

    def _coefficient(self, tag, i):
        key = (tag, i)
        if key not in self._coeffs:
            self._coeffs[key] = nahm.flow_coefficient(self.data, self.t, i, tag)
        return self._coeffs[key]

    def interval_states(self, tag, i, s, state):
        """A state at the start of interval i carried to each of the points
        s (increasing, in the interval's own coordinate), (len(s), m, w).

        On a degree-0 interval the transfers to all the points are one
        stacked transfer; on the others the transfers between consecutive
        points are chained.  No marked point is crossed, so no jump applies.
        """
        a = self.data.interval_bounds(i)[0]
        coeff = self._coefficient(tag, i)
        if self.data.intervals[i].degree == 0:
            return transfer(coeff, a, s, self.tol, constant=True) @ state
        out = np.empty((len(s),) + state.shape, dtype=complex)
        pos = a
        for q, x in enumerate(np.asarray(s, dtype=float)):
            if x != pos:
                state = transfer(coeff, pos, x, self.tol) @ state
                pos = x
            out[q] = state
        return out

    def steps(self, tag):
        """The block-cyclic steps Phi_i = J_{i+1} T_i of flow `tag`, (n, m, m):
        the transfer over closed interval i, then the jump at its end (Phi_i
        = T_i on the first-order flow), as a row update: every state's
        derivative rows gain jump_block times its value rows."""
        T = np.array(self.interval_transfers(tag))
        if tag == "ddag":
            return T
        n = self.data.n
        J = np.array([jump_block(self.data, (i + 1) % n) for i in range(n)])
        X = T.reshape(n, -1, 2, len(J[0]), T.shape[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            X[:, :, 1] += J[:, None] @ X[:, :, 0]
        return T

    def loop(self, tag):
        """Full-circle transfer based at lambda_0 (right limit), the ordered
        product Phi_{n-1} ... Phi_0 of the steps.

        A loop that overflows (its norm grows like e^{2 pi |t|}) raises
        IntegrationError.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            M = reduce(lambda done, step: step @ done, self.steps(tag))
        if not np.all(np.isfinite(M)):
            y = self.data.lambdas[0]
            raise IntegrationError(
                f"non-finite {tag} loop based at s = {y:.6g}", location=y)
        return M


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
    Only the D^dagger loop is built: D is the adjoint flow, so its loop is
    the inverse adjoint of that loop, and an eigenvalue lam of the D^dagger
    loop gives 1/conj(lam) of the D loop, at |lam - 1| / |lam| from 1.
    """
    eig = np.linalg.eigvals(Propagator(data, t, tol).loop("ddag"))
    dist = np.abs(eig - 1.0)
    gap_ddag, gap_d = float(np.min(dist)), float(np.min(dist / np.abs(eig)))
    return RegularityReport(gap_ddag=gap_ddag, gap_d=gap_d,
                            is_regular=min(gap_ddag, gap_d) > threshold,
                            threshold=threshold)

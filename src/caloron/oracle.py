"""Independent cross-checks: closed forms, a dense discretization of the
second-order operator, reference datasets, the integral route to the
t-derivatives of the boundary F-blocks, the classical (integral)
route to the gauge potential through the normalized zero modes, and the
central-difference curvature of the exact gauge potential.

Everything here deliberately avoids the monodromy machinery wherever an
independent method exists, so agreement is meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import connection, greens, monodromy, nahm
from .errors import IntegrationError
from .nahm import TWO_PI, eval_T, locate, to_pairs

_UNIT = np.eye(4)
_MAX_PANELS = 64   # Gauss-Legendre panels per interval, at most
_QUAD_TOL = 1e-8   # the zero modes' Gram quadrature converges to this
_FD_STEP = 1e-4    # central-difference step of classical_gauge_potential
_MIN_GAP = 0.5     # least spacing of random_valid_data's marked points
_REGULAR_GAP = 1e-3   # least monodromy gap of a random_regular_t point
_REGULAR_TRIES = 50   # draws random_regular_t makes before it gives up

# the 12-point Gauss-Legendre rule of every quadrature panel, read-only
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_X.setflags(write=False)
_GL_W.setflags(write=False)

# ---------------------------------------------------------------------------
# closed form for data with T = 0, Q = 0

def free_field_F(r, x, y):
    """Green's function of -d^2/ds^2 + r^2 on the circle, r > 0.

    Closed form cosh(r*(pi - |d|)) / (2 r sinh(pi r)) with d = x - y
    reduced to [-pi, pi]; the diagonal value is coth(pi r)/(2 r).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    d = math.remainder(x - y, TWO_PI)
    return math.cosh(r * (math.pi - abs(d))) / (2.0 * r * math.sinh(math.pi * r))


# ---------------------------------------------------------------------------
# dense grid discretization

def dense_greens(data, t, N):
    """Boundary F-blocks from the lattice covariant laplacian (oracle path).

    Discretizes the finv operator -(d/ds - i A_0)^2 + W, A_0 = T_0 + t_0,
    W = sum_j (T_j + t_j)^2, on the nodes s_i = i h, h = 2 pi / N: the edge
    (i, i+1) carries the link U_i = exp(-i h A_0) with A_0 at its midpoint,
    W on a marked node is the mean of its one-sided limits, and the node
    adds 1/h times the jump coefficient.  Marked points must be distinct
    nodes.  Solves with sources 1/h at the marked nodes and reads the values
    there, second order in h on every dataset; returns a BoundaryGreens
    with G = None.
    """
    k, n = data.k, data.n
    h = TWO_PI / N
    t = np.asarray(t, dtype=float)
    nodes = np.rint(data.lambdas / h).astype(int)
    for lam, node in zip(data.lambdas, nodes):
        if abs(lam - node * h) > 1e-10:
            raise ValueError(f"marked point {lam} does not sit on the N = {N} grid")
    nodes %= N
    if len(set(nodes)) < n:
        raise ValueError(f"two marked points share a node of the N = {N} grid")
    idk = np.eye(k)

    def square_sum(s, side="right"):
        Tj = [eval_T(data, j, s, side) + t[j] * idk for j in (1, 2, 3)]
        return sum(X @ X for X in Tj)

    diag = np.array([2.0 / h ** 2 * idk + square_sum(i * h) for i in range(N)],
                    dtype=complex)
    for alpha, (lam, node) in enumerate(zip(data.lambdas, nodes)):
        diag[node] = (2.0 / h ** 2 * idk + nahm.q_spin_parts(data, alpha)[0] / h
                      + 0.5 * (square_sum(lam, "left") + square_sum(lam)))
    A0 = np.array([eval_T(data, 0, (i + 0.5) * h) for i in range(N)]) + t[0] * idk
    w, V = np.linalg.eigh(A0)
    hop = -(V * np.exp(-1j * h * w)[:, None, :]) @ V.conj().swapaxes(1, 2) / h ** 2
    i = np.arange(N)
    L = np.zeros((N, k, N, k), dtype=complex)
    L[i, :, i] = diag
    L[i, :, (i + 1) % N] = hop
    L[(i + 1) % N, :, i] = hop.conj().swapaxes(1, 2)
    rhs = np.zeros((N, k, n, k), dtype=complex)
    rhs[nodes, :, np.arange(n)] = idk / h
    sol = np.linalg.solve(L.reshape(N * k, N * k), rhs.reshape(N * k, n * k))
    F = sol.reshape(N, k, n, k)[nodes].transpose(0, 2, 1, 3)
    return greens.BoundaryGreens(t=tuple(float(x) for x in t), jet=F[None],
                                 G=None, diag_defect=0.0,
                                 herm_defect=greens._hermiticity_defect(F))


# ---------------------------------------------------------------------------
# reference and random datasets

def _bloch_spinor(direction):
    """Unit spinor with Bloch vector along the given 3-direction."""
    nx, ny, nz = direction
    theta = math.acos(max(-1.0, min(1.0, nz)))
    phi = math.atan2(ny, nx)
    return np.array([math.cos(theta / 2.0),
                     complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)],
                    dtype=complex)


def su2_reference_data():
    """The SU(2) reference dataset of configs/su2_reference.json: k = 1,
    T_0 = 0, and T_vec = +-(0, 0, 1/2) on (pi/2, 3 pi/2) and on the wrapping
    interval, so it jumps by n_alpha = +-e_3 at lambda = pi/2, 3 pi/2, where
    the rank-1 Q_alpha = sqrt(2) xi(-n_alpha) realizes the matching condition
    (other data: random_valid_data)."""
    # the rows are n_alpha, so -n_alpha has the file's signed zeros
    jumps = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    cfg = {
        "k": 1,
        "lambdas": [math.pi / 2.0, 3.0 * math.pi / 2.0],
        "intervals": [{"degree": 0, "T": {str(mu): to_pairs([[[x]]])
                                          for mu, x in enumerate((0.0, *vec))}}
                      for vec in (0.5 * jumps[0], -0.5 * jumps[0])],
        "Q": [to_pairs(math.sqrt(2.0) * _bloch_spinor(-n).reshape(2, 1))
              for n in jumps],
        "description": "SU(2) reference: opposite scalar jumps, rank-1 Q",
    }
    return nahm.from_dict(cfg)


def random_valid_data(rng, k=1, n=2, magnitude=0.6):
    """Random dataset with vanishing Nahm and matching residuals.

    Block-diagonal superposition of k scalar datasets: piecewise-constant
    T_vec per 1x1 block whose jumps close up around the circle, constant
    T_0, and rank-1 Q columns aligned with each block.  Marked points are
    drawn with a minimum gap; every marked point carries width-1 Q (zero
    for blocks with no jump there).
    """
    k = int(k)
    n = int(n)
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    # marked points with decent spacing
    while True:
        lams = np.sort(rng.uniform(0.0, TWO_PI, size=n))
        gaps = np.diff(np.concatenate([lams, [lams[0] + TWO_PI]]))
        if n == 1 or np.min(gaps) > _MIN_GAP:
            break
    owner = rng.integers(0, k, size=n)          # block owning each marked point
    # per block: jump vectors at its points, summing to zero
    jumps = np.zeros((n, 3))
    for b in range(k):
        pts = np.flatnonzero(owner == b)
        if pts.size >= 2:
            d = rng.normal(0.0, magnitude, size=(pts.size, 3))
            d -= d.mean(axis=0)
            jumps[pts] = d
    # interval values per block: start random, add jumps while walking
    t0 = rng.normal(0.0, magnitude, size=k)
    base = rng.normal(0.0, magnitude, size=(k, 3))
    values = np.zeros((n, k, 3))
    values[0] = base
    for i in range(1, n):
        values[i] = values[i - 1]
        values[i, owner[i]] += jumps[i]
    # closure: walking past lambda_0 back to interval 0 must reproduce base
    check = values[n - 1].copy()
    check[owner[0]] += jumps[0]
    assert np.allclose(check, values[0], atol=1e-12)

    # T_0 = diag(t0) throughout, T_j = diag(values[i, :, j - 1]) on interval i
    intervals = [{"degree": 0, "T": {str(mu): to_pairs([np.diag(v)])
                                     for mu, v in enumerate([t0, *values[i].T])}}
                 for i in range(n)]
    qs = []
    for alpha in range(n):
        b = owner[alpha]
        d = jumps[alpha]
        mag = float(np.linalg.norm(d))
        col = np.zeros(2 * k, dtype=complex)
        if mag > 1e-14:
            xi = _bloch_spinor(-d / mag)
            eb = np.zeros(k)
            eb[b] = 1.0
            col = math.sqrt(2.0 * mag) * np.kron(xi, eb)
        qs.append(to_pairs(col[:, None]))
    cfg = {
        "k": k,
        "lambdas": [float(x) for x in lams],
        "intervals": intervals,
        "Q": qs,
        "description": f"random valid block-scalar data (k={k}, n={n})",
    }
    return nahm.from_dict(cfg)


def random_regular_t(data, rng):
    """Draw a t where both first-order monodromies stay _REGULAR_GAP away
    from 1, RuntimeError after _REGULAR_TRIES draws."""
    for _ in range(_REGULAR_TRIES):
        t = np.array([rng.uniform(0.05, 0.95),
                      rng.uniform(-0.8, 0.8),
                      rng.uniform(-0.8, 0.8),
                      rng.uniform(-0.8, 0.8)])
        if monodromy.regularity(data, t, threshold=_REGULAR_GAP).is_regular:
            return t
    raise RuntimeError("no regular t found")


# ---------------------------------------------------------------------------
# quadrature over the circle, and the integral route to the boundary derivative

def _gl_nodes(a, b, panels):
    """Composite Gauss-Legendre nodes and weights on (a, b), the 12-point
    rule on each of `panels` equal panels."""
    edges = np.linspace(a, b, panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
    return (half * _GL_X + mid).ravel(), (half * _GL_W).ravel()


def _refine_panels(data, quantity, quad_tol, what):
    """Panel-doubling quadrature over the intervals of the circle.

    quantity(nodes, weights) takes per-interval Gauss-Legendre nodes and
    weights (_gl_nodes on each interval) and returns an array.  The panels
    per interval double from 2 until two successive results differ by less
    than quad_tol, IntegrationError past _MAX_PANELS; returns the last
    result with its nodes and weights.
    """
    prev = None
    panels = 2
    while panels <= _MAX_PANELS:
        nodes, weights = zip(*(_gl_nodes(*data.interval_bounds(i), panels)
                               for i in range(data.n)))
        out = quantity(nodes, weights)
        if prev is not None and np.max(np.abs(out - prev)) < quad_tol:
            return out, nodes, weights
        prev = out
        panels *= 2
    raise IntegrationError(
        f"{what} did not reach {quad_tol:.1e} within {_MAX_PANELS} panels "
        f"per interval")


def _states_at_nodes(ev, tag, starts, nodes):
    """States at the nodes of every interval from the states at the interval
    starts, stacked in base order (interval 0 first)."""
    return np.concatenate([ev.interval_states(tag, i, nodes[i], starts[i])
                           for i in range(ev.data.n)])


def df_integral(ev, nu, quad_tol):
    """t_nu-derivative of the boundary F-blocks by quadrature, (n, n, k, k):

        d_nu F(l_b, l_a) = -2 int F(l_b, s) D_nu(s) F(s, l_a) ds

    with D_j = T_j + t_j and D_0 = i d/ds + T_0 + t_0, on composite
    Gauss-Legendre panels refined until the result moves less than
    quad_tol; the cross-check of GreensEvaluator.boundary(order=1).
    """
    data = ev.data
    n, k = data.n, data.k
    starts, _ = ev.loop_solution("finv", ev.unit_kicks("finv"))

    def integral(nodes, weights):
        # (nodes, 2k, n k): F(s, l_a) and d_s F(s, l_a), alpha by column block
        states = _states_at_nodes(ev, "finv", starts, nodes)
        vals = states[:, :k]
        Tnu = np.array([eval_T(data, nu, s) for s in np.concatenate(nodes)])
        rhs = (Tnu + ev.t[nu] * np.eye(k)) @ vals
        if nu == 0:
            rhs = rhs + 1j * states[:, k:]
        w = np.concatenate(weights)
        return -2.0 * np.einsum("q,qjbi,qjal->bail", w,
                                vals.conj().reshape(-1, k, n, k),
                                rhs.reshape(-1, k, n, k))

    return _refine_panels(data, integral, quad_tol,
                          "boundary-derivative quadrature")[0]


# ---------------------------------------------------------------------------
# zero modes and the classical gauge potential

@dataclass(frozen=True)
class ZeroModeSet:
    """Normalized kernel frame psi of the adjoint Weyl operator at one t.

    psi(s) is (2k, N); the columns satisfy the defining flow between
    marked points and jump by i Q_alpha chi_alpha at lambda_alpha.
    gram_defect is | int psi^dag psi ds + chi^2 - id | from the
    normalization identity.
    """
    t: tuple
    chi: np.ndarray
    gram: np.ndarray
    gram_defect: float
    _starts: tuple
    _evaluator: object

    def psi(self, s):
        """psi at s; the right limit on a marked point."""
        i, x = locate(self._evaluator.data, s)
        return self._evaluator.interval_states("ddag", i, [x], self._starts[i])[0]


def _zero_mode_starts(ev, chi_mat):
    """psi at the start of every interval (right limits), (n, 2k, N).

    Between marked points psi' = M psi for the D^dagger flow, and at
    lambda_alpha psi jumps by i Q_alpha chi_alpha, with chi_alpha the rows
    of chi at alpha's columns: the periodic solution with the sources
    i boundary_Q chi (GreensEvaluator.loop_solution).
    """
    return ev.loop_solution("ddag", 1j * ev.data.boundary_Q @ chi_mat)[0]


def _inner(weights, left, right):
    """Quadrature sum of w_q left_q^dag right_q over the stacked nodes."""
    w = np.concatenate(weights)[:, None, None]
    N = left.shape[-1]
    return left.reshape(-1, N).conj().T @ (w * right).reshape(-1, N)


def _gram(ev, starts, quad_tol):
    """Gram integral of psi, refined by panel doubling; (gram, nodes, weights)."""
    def gram(nodes, weights):
        vals = _states_at_nodes(ev, "ddag", starts, nodes)
        return _inner(weights, vals, vals)
    return _refine_panels(ev.data, gram, quad_tol, "Gram quadrature")


def zero_modes(data, t, tol=1e-10):
    """Zero-mode frame with its Gram matrix over the circle.

    The Gram integral is refined (panel doubling) until it stabilizes
    below _QUAD_TOL; the normalization identity gram + chi^2 = id gives
    gram_defect.
    """
    ev = greens.GreensEvaluator(data, t, tol)
    chi_mat = connection.chi_from_boundary(data, ev.boundary())
    starts = _zero_mode_starts(ev, chi_mat)
    N = chi_mat.shape[0]
    gram = _gram(ev, starts, _QUAD_TOL)[0]
    defect = float(np.max(np.abs(gram + chi_mat @ chi_mat - np.eye(N))))
    return ZeroModeSet(t=tuple(float(x) for x in np.asarray(t, float)),
                       chi=chi_mat, gram=gram, gram_defect=defect,
                       _starts=tuple(starts), _evaluator=ev)


def classical_gauge_potential(data, t, tol=1e-10):
    """Gauge potential by direct integration over the circle:

        A_mu = int psi^dag d_mu psi ds + chi d_mu chi,

    with the t-derivatives by central differences of step _FD_STEP and the
    Gram quadrature's panels fixed at the centre point to _QUAD_TOL.  This
    is the slow reference route; it must agree with gauge_potential (to
    1e-4 on the reference, criterion 6).
    """
    h = _FD_STEP
    t = np.asarray(t, dtype=float)

    def frame(tp):
        ev = greens.GreensEvaluator(data, tp, tol)
        chi_mat = connection.chi_from_boundary(data, ev.boundary())
        return ev, chi_mat, _zero_mode_starts(ev, chi_mat)

    ev0, chi0, starts0 = frame(t)
    N = chi0.shape[0]

    # fix the panel structure with the center-point Gram integral
    _, nodes, weights = _gram(ev0, starts0, _QUAD_TOL)
    vals0 = _states_at_nodes(ev0, "ddag", starts0, nodes)

    A = np.zeros((4, N, N), dtype=complex)
    for mu in range(4):
        evp, chip, startsp = frame(t + h * _UNIT[mu])
        evm, chim, startsm = frame(t - h * _UNIT[mu])
        dpsi = (_states_at_nodes(evp, "ddag", startsp, nodes)
                - _states_at_nodes(evm, "ddag", startsm, nodes)) / (2.0 * h)
        A[mu] = _inner(weights, vals0, dpsi) + chi0 @ ((chip - chim) / (2.0 * h))
    return connection.GaugePotential(
        t=tuple(float(x) for x in t), A=A, chi=chi0,
        chi_min_eigenvalue=float(np.linalg.eigvalsh(chi0 @ chi0).min()),
        antiherm_defect=float(max(np.max(np.abs(A[mu] + A[mu].conj().T))
                                  for mu in range(4))))


# ---------------------------------------------------------------------------
# finite-difference curvature

def fd_curvature(data, t, h):
    """Curvature with the outer derivatives d_rho A_mu by central
    differences of step h of the exact gauge_potential: the cross-check of
    connection.curvature, whose error falls as h^2."""
    t = np.asarray(t, dtype=float)

    def potential(tp):
        return connection.gauge_potential(data, tp).A

    dA = np.stack([(potential(t + h * e) - potential(t - h * e)) / (2.0 * h)
                   for e in _UNIT])
    return connection.Curvature(t=tuple(float(x) for x in t),
                                F=connection.field_strength(potential(t), dA))

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
from functools import lru_cache

import numpy as np

from . import connection, greens, monodromy, nahm
from .errors import ConfigError, IntegrationError
from .nahm import TWO_PI, eval_T, locate

_UNIT = np.eye(4)
_MAX_PANELS = 64   # Gauss-Legendre panels per interval, at most

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

def _node_values(data, t, N):
    """Per-node coefficient blocks, averaging one-sided limits on marked nodes.

    Returns (A0, W, idx_marked): A0[i] = T_0(s_i) + t_0 and
    W[i] = sum_j (T_j + t_j)^2, each k x k; idx_marked maps marked-point
    index -> node index (marked points must sit on grid nodes).
    """
    k = data.k
    h = TWO_PI / N
    t = np.asarray(t, dtype=float)
    idx_marked = {}
    for alpha, lam in enumerate(data.lambdas):
        pos = lam / h
        node = int(round(pos))
        if abs(pos - node) * h > 1e-10:
            raise ValueError(
                f"marked point {lam} does not sit on the N = {N} grid")
        idx_marked[alpha] = node % N
    marked_nodes = {v: a for a, v in idx_marked.items()}
    idk = np.eye(k)
    A0 = np.empty((N, k, k), dtype=complex)
    W = np.empty((N, k, k), dtype=complex)
    for i in range(N):
        s = i * h
        sides = ("left", "right") if i in marked_nodes else ("right",)
        a_acc = np.zeros((k, k), dtype=complex)
        w_acc = np.zeros((k, k), dtype=complex)
        for side in sides:
            a_s = eval_T(data, 0, s, side) + t[0] * idk
            a_acc += a_s
            for j in (1, 2, 3):
                Tj = eval_T(data, j, s, side) + t[j] * idk
                w_acc += Tj @ Tj
        A0[i] = a_acc / len(sides)
        W[i] = w_acc / len(sides)
    return A0, W, idx_marked


def dense_second_order(data, t, N):
    """Dense hermitian discretization of the finv operator on an N-point
    periodic grid (marked points must be grid nodes).

    Uses the compact 3-point laplacian, the symmetrized first-order part
    i (A Dc + Dc A) with the central difference Dc, multiplication terms
    averaged at marked nodes, and the marked-point potentials as 1/h
    times the jump coefficient on the node.
    """
    k = data.k
    h = TWO_PI / N
    A0, W, idx_marked = _node_values(data, t, N)
    dim = N * k
    L = np.zeros((dim, dim), dtype=complex)
    eye_k = np.eye(k)
    for i in range(N):
        ip, im_ = (i + 1) % N, (i - 1) % N
        sl = slice(i * k, (i + 1) * k)
        # compact laplacian -d^2/ds^2
        L[sl, sl] += (2.0 / h ** 2) * eye_k
        L[sl, ip * k:(ip + 1) * k] += (-1.0 / h ** 2) * eye_k
        L[sl, im_ * k:(im_ + 1) * k] += (-1.0 / h ** 2) * eye_k
        # i (A Dc + Dc A), Dc the central difference
        L[sl, ip * k:(ip + 1) * k] += 1j * (A0[i] + A0[ip]) / (2.0 * h)
        L[sl, im_ * k:(im_ + 1) * k] += -1j * (A0[i] + A0[im_]) / (2.0 * h)
        # multiplication terms A^2 + sum (T_j + t_j)^2
        L[sl, sl] += A0[i] @ A0[i] + W[i]
    for alpha, node in idx_marked.items():
        sl = slice(node * k, (node + 1) * k)
        L[sl, sl] += nahm.q_spin_parts(data, alpha)[0] / h
    return L


def dense_greens(data, t, N):
    """Boundary F-blocks from the dense discretization (oracle path).

    Solves the dense system with discrete delta sources at the marked
    nodes and reads off the values there; returns a BoundaryGreens with
    G = None.
    """
    k = data.k
    h = TWO_PI / N
    L = dense_second_order(data, t, N)
    _, _, idx_marked = _node_values(data, t, N)
    n = data.n
    rhs = np.zeros((N * k, n * k), dtype=complex)
    for alpha in range(n):
        node = idx_marked[alpha]
        for c in range(k):
            rhs[node * k + c, alpha * k + c] = 1.0 / h
    sol = np.linalg.solve(L, rhs)
    F = np.empty((n, n, k, k), dtype=complex)
    for beta in range(n):
        nb = idx_marked[beta]
        for alpha in range(n):
            F[beta, alpha] = sol[nb * k:(nb + 1) * k,
                                 alpha * k:(alpha + 1) * k]
    herm = greens._hermiticity_defect(F)
    return greens.BoundaryGreens(t=tuple(float(x) for x in np.asarray(t, float)),
                                 jet=F[None], G=None, diag_defect=0.0,
                                 herm_defect=herm)


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


def _pairs(x):
    x = complex(x)
    return [x.real, x.imag]


def su2_reference_data(m1=1.0, m2=1.0, n1=(0.0, 0.0, 1.0), n2=(0.0, 0.0, -1.0),
                       lambda1=math.pi / 2.0, lambda2=3.0 * math.pi / 2.0):
    """Two marked points, k = 1: piecewise-constant T_vec with jumps
    m1*n1 at lambda1 and m2*n2 at lambda2, T_0 = 0, and rank-1 Q realizing
    the matching condition at both points.

    The jumps must close up (m1*n1 + m2*n2 = 0) for the interval values
    to be consistent.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    for v, name in ((n1, "n1"), (n2, "n2")):
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ConfigError(f"{name} must be a unit vector")
    if m1 < 0 or m2 < 0:
        raise ConfigError("jump magnitudes must be non-negative")
    d1 = m1 * n1
    d2 = m2 * n2
    if np.max(np.abs(d1 + d2)) > 1e-12:
        raise ConfigError("inconsistent parameters: jumps do not close up "
                          f"(sum {tuple(d1 + d2)})")
    if not 0.0 <= lambda1 < lambda2 < TWO_PI:
        raise ConfigError("need 0 <= lambda1 < lambda2 < 2*pi")

    v_mid = 0.5 * d1          # value on (lambda1, lambda2)
    v_out = -0.5 * d1         # value on the wrapping interval

    def q_for(m, direction):
        if m == 0.0:
            return np.zeros((2, 1), dtype=complex)
        xi = _bloch_spinor(-np.asarray(direction, dtype=float))
        return (math.sqrt(2.0 * m) * xi).reshape(2, 1)

    qs = [q_for(m1, n1), q_for(m2, n2)]
    intervals = []
    for vec in (v_mid, v_out):
        intervals.append({
            "degree": 0,
            "T": {"0": [[[[0.0, 0.0]]]],
                  "1": [[[_pairs(vec[0])]]],
                  "2": [[[_pairs(vec[1])]]],
                  "3": [[[_pairs(vec[2])]]]},
        })
    cfg = {
        "k": 1,
        "lambdas": [lambda1, lambda2],
        "intervals": intervals,
        "Q": [[[_pairs(q[0, 0])], [_pairs(q[1, 0])]] for q in qs],
        "description": "SU(2) reference: opposite scalar jumps, rank-1 Q",
    }
    return nahm.from_dict(cfg)


def random_valid_data(rng, k=1, n=2, magnitude=0.6, min_gap=0.5):
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
        if n == 1 or np.min(gaps) > min_gap:
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

    intervals = []
    for i in range(n):
        tmats = {"0": [np.diag(t0).astype(complex)]}
        for j in (1, 2, 3):
            tmats[str(j)] = [np.diag(values[i, :, j - 1]).astype(complex)]
        intervals.append({
            "degree": 0,
            "T": {key: [[[_pairs(mat[r, c]) for c in range(k)]
                         for r in range(k)] for mat in mats]
                  for key, mats in tmats.items()},
        })
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
        qs.append([[_pairs(col[r])] for r in range(2 * k)])
    cfg = {
        "k": k,
        "lambdas": [float(x) for x in lams],
        "intervals": intervals,
        "Q": qs,
        "description": f"random valid block-scalar data (k={k}, n={n})",
    }
    return nahm.from_dict(cfg)


def random_regular_t(data, rng, tol=1e-10, gap=1e-3, tries=50):
    """Draw a t where both first-order monodromies stay away from 1."""
    for _ in range(tries):
        t = np.array([rng.uniform(0.05, 0.95),
                      rng.uniform(-0.8, 0.8),
                      rng.uniform(-0.8, 0.8),
                      rng.uniform(-0.8, 0.8)])
        rep = monodromy.regularity(data, t, tol=tol, threshold=gap)
        if rep.is_regular:
            return t
    raise RuntimeError("no regular t found")


# ---------------------------------------------------------------------------
# quadrature over the circle, and the integral route to the boundary derivative

@lru_cache(maxsize=None)
def _leggauss(order):
    """leggauss(order), computed once per order and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gl_nodes(a, b, panels, order=12):
    """Composite Gauss-Legendre nodes and weights on (a, b)."""
    x, w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


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


def _df_integral(ev, nu, quad_tol):
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
    of chi at alpha's columns: the periodic solution with those sources
    (GreensEvaluator.loop_solution).
    """
    offs, _ = greens.block_offsets(ev.data)
    sources = [1j * q @ chi_mat[o:o + q.shape[1]] for q, o in zip(ev.data.Q, offs)]
    return ev.loop_solution("ddag", sources)[0]


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


def zero_modes(data, t, quad_tol=1e-8, tol=1e-10):
    """Zero-mode frame with its Gram matrix over the circle.

    The Gram integral is refined (panel doubling) until it stabilizes
    below quad_tol; the normalization identity gram + chi^2 = id gives
    gram_defect.
    """
    ev = greens.GreensEvaluator(data, t, tol)
    chi_mat = connection.chi_from_boundary(data, ev.boundary())
    starts = _zero_mode_starts(ev, chi_mat)
    N = chi_mat.shape[0]
    gram = _gram(ev, starts, quad_tol)[0]
    defect = float(np.max(np.abs(gram + chi_mat @ chi_mat - np.eye(N))))
    return ZeroModeSet(t=tuple(float(x) for x in np.asarray(t, float)),
                       chi=chi_mat, gram=gram, gram_defect=defect,
                       _starts=tuple(starts), _evaluator=ev)


def classical_gauge_potential(data, t, h=1e-4, quad_tol=1e-8, tol=1e-10):
    """Gauge potential by direct integration over the circle:

        A_mu = int psi^dag d_mu psi ds + chi d_mu chi,

    with the t-derivatives by central differences of step h.  This is the
    slow reference route; it must agree with gauge_potential.
    """
    t = np.asarray(t, dtype=float)

    def frame(tp):
        ev = greens.GreensEvaluator(data, tp, tol)
        chi_mat = connection.chi_from_boundary(data, ev.boundary())
        return ev, chi_mat, _zero_mode_starts(ev, chi_mat)

    ev0, chi0, starts0 = frame(t)
    N = chi0.shape[0]

    # fix the panel structure with the center-point Gram integral
    _, nodes, weights = _gram(ev0, starts0, quad_tol)
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

def fd_curvature(data, t, h, tol=1e-10):
    """Curvature with the outer derivatives d_rho A_mu by central
    differences of step h of the exact gauge_potential: the cross-check of
    connection.curvature, whose error falls as h^2."""
    t = np.asarray(t, dtype=float)

    def potential(tp):
        return connection.gauge_potential(data, tp, tol=tol).A

    dA = np.stack([(potential(t + h * e) - potential(t - h * e)) / (2.0 * h)
                   for e in _UNIT])
    return connection.Curvature(t=tuple(float(x) for x in t),
                                F=connection.field_strength(potential(t), dA))

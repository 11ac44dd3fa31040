"""Nahm data on the circle: types, JSON loading, evaluation, residuals.

The circle has circumference 2*pi.  A dataset consists of

* marked points ``lambdas`` (strictly increasing, in [0, 2*pi)),
* on each open interval between consecutive marked points (the last one
  wraps around), four k x k hermitian matrix functions T_0..T_3 given by
  Chebyshev coefficients in the affine coordinate of that interval,
* at each marked point, a boundary matrix Q of shape (2k, w) whose
  columns live in C^2 (x) C^k (spin factor outermost).

JSON schema (all complex numbers are [re, im] pairs)::

    {
      "k": int,
      "lambdas": [float, ...],
      "intervals": [
        {"degree": int,
         "T": {"0": [[[re,im], ...], ...],   # [p][row][col], p = 0..degree
               "1": ..., "2": ..., "3": ...}},
        ...
      ],
      "Q": [ [[ [re,im], ... ], ...], ... ],  # per marked point, 2k rows x w cols
      "description": str
    }

Interval i runs from lambdas[i] to lambdas[i+1] (the last from
lambdas[n-1] to lambdas[0] + 2*pi); its Chebyshev coefficients are in the
variable u = (2*s - a - b)/(b - a) mapping [a, b] -> [-1, 1].
"""

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConfigError
from .spin import pauli, spin_decompose

TWO_PI = 2.0 * np.pi

# absolute tolerance for "s sits exactly on a marked point"
_MARKED_ATOL = 1e-12

# allowed anti-hermitian defect in input coefficient matrices
_HERM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IntervalModel:
    """Chebyshev model of (T_0..T_3) on one interval.

    coeffs has shape (4, degree+1, k, k), complex, hermitian in the last
    two axes for every (mu, p).
    """

    degree: int
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class NahmData:
    """Nahm data of the schema above, read-only.  The boundary space is C^N,
    N = total_width; boundary_Q is the one place that lays out the columns
    of every Q_alpha in it."""
    k: int
    lambdas: np.ndarray          # (n,) increasing, in [0, 2*pi)
    intervals: tuple             # n IntervalModel, intervals[i] on (lambdas[i], lambdas[i+1])
    Q: tuple                     # n arrays of shape (2k, w_alpha)
    description: str = ""

    @property
    def n(self):
        return len(self.lambdas)

    @property
    def widths(self):
        return tuple(q.shape[1] for q in self.Q)

    @property
    def total_width(self):
        """N = sum of the w_alpha: dimension of the boundary space."""
        return sum(self.widths)

    @property
    def boundary_Q(self):
        """𝐐 by marked point, (n, 2k, N): Q_alpha at its own columns of the
        boundary space (the widths in marked-point order), zero elsewhere."""
        out = np.zeros((self.n, 2 * self.k, self.total_width), dtype=complex)
        for alpha, (q, end) in enumerate(zip(self.Q, accumulate(self.widths))):
            out[alpha, :, end - q.shape[1]:end] = q
        return out

    def interval_bounds(self, i):
        """Endpoints (a, b) of interval i, with b unwrapped (a < b)."""
        a = self.lambdas[i]
        b = self.lambdas[i + 1] if i + 1 < self.n else self.lambdas[0] + TWO_PI
        return a, b


def _as_complex_matrix(entry, rows, cols, where):
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric array ({exc})") from None
    if arr.shape != (rows, cols, 2):
        raise ConfigError(
            f"{where}: expected shape {(rows, cols)} of [re,im] pairs, "
            f"got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def _check_hermitian(mat, where):
    defect = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if defect > _HERM_TOL:
        raise ConfigError(f"{where}: not hermitian (defect {defect:.3e})")
    return 0.5 * (mat + mat.conj().T)


def from_dict(cfg):
    """Build NahmData from a schema dict.  Raises ConfigError on any defect."""
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected an object")
    for key in ("k", "lambdas", "intervals", "Q"):
        if key not in cfg:
            raise ConfigError(f"missing required key '{key}'")
    k = cfg["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ConfigError(f"k: expected a positive integer, got {k!r}")

    try:
        lambdas = np.asarray(cfg["lambdas"], dtype=float)
        if lambdas.ndim != 1 or lambdas.size < 1:
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError("lambdas: expected a non-empty list of reals") from None
    if not np.all(np.isfinite(lambdas)):
        raise ConfigError("lambdas: non-finite entry")
    if np.any(lambdas < 0.0) or np.any(lambdas >= TWO_PI):
        raise ConfigError("lambdas: entries must lie in [0, 2*pi)")
    if np.any(np.diff(lambdas) <= 0.0):
        raise ConfigError("lambdas: entries must be strictly increasing")
    n = lambdas.size

    raw_intervals = cfg["intervals"]
    if not isinstance(raw_intervals, list) or len(raw_intervals) != n:
        raise ConfigError(f"intervals: expected a list of length {n}")
    intervals = []
    for i, item in enumerate(raw_intervals):
        where = f"intervals[{i}]"
        if not isinstance(item, dict) or "degree" not in item or "T" not in item:
            raise ConfigError(f"{where}: expected an object with 'degree' and 'T'")
        deg = item["degree"]
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
            raise ConfigError(f"{where}.degree: expected a non-negative integer")
        tdict = item["T"]
        if not isinstance(tdict, dict) or set(tdict) != {"0", "1", "2", "3"}:
            raise ConfigError(f"{where}.T: expected keys '0','1','2','3'")
        coeffs = []   # allocated from the checked matrices, not from deg or k
        for mu in range(4):
            arr = tdict[str(mu)]
            if not isinstance(arr, list) or len(arr) != deg + 1:
                raise ConfigError(
                    f"{where}.T['{mu}']: expected {deg + 1} coefficient matrices")
            for p in range(deg + 1):
                mat = _as_complex_matrix(arr[p], k, k, f"{where}.T['{mu}'][{p}]")
                coeffs.append(_check_hermitian(mat, f"{where}.T['{mu}'][{p}]"))
        coeffs = np.array(coeffs, dtype=complex).reshape(4, deg + 1, k, k)
        coeffs.setflags(write=False)
        intervals.append(IntervalModel(degree=deg, coeffs=coeffs))

    raw_q = cfg["Q"]
    if not isinstance(raw_q, list) or len(raw_q) != n:
        raise ConfigError(f"Q: expected a list of length {n}")
    qs = []
    for alpha, entry in enumerate(raw_q):
        where = f"Q[{alpha}]"
        if not isinstance(entry, list) or len(entry) != 2 * k:
            raise ConfigError(f"{where}: expected 2k = {2 * k} rows")
        widths = {len(row) if isinstance(row, list) else -1 for row in entry}
        if len(widths) != 1 or -1 in widths:
            raise ConfigError(f"{where}: rows must be lists of equal length")
        w = widths.pop()
        if w < 1:
            raise ConfigError(f"{where}: width must be at least 1")
        mat = _as_complex_matrix(entry, 2 * k, w, where)
        mat.setflags(write=False)
        qs.append(mat)

    desc = cfg.get("description", "")
    if not isinstance(desc, str):
        raise ConfigError("description: expected a string")

    lambdas.setflags(write=False)
    return NahmData(k=k, lambdas=lambdas, intervals=tuple(intervals),
                    Q=tuple(qs), description=desc)


def load(path):
    """Load NahmData from a JSON config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except ValueError as exc:   # not JSON, or not text
        raise ConfigError(f"invalid JSON: {exc}") from None
    return from_dict(cfg)


def to_pairs(mat):
    """An array-like of complex numbers as the schema's nested [re, im] lists."""
    mat = np.asarray(mat)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def to_dict(data):
    """Serialize NahmData back to the JSON schema dict."""
    return {
        "k": data.k,
        "lambdas": [float(x) for x in data.lambdas],
        "intervals": [
            {"degree": iv.degree,
             "T": {str(mu): to_pairs(iv.coeffs[mu]) for mu in range(4)}}
            for iv in data.intervals
        ],
        "Q": [to_pairs(q) for q in data.Q],
        "description": data.description,
    }


def _circular_gap(s, lam):
    d = abs((s - lam) % TWO_PI)
    return min(d, TWO_PI - d)


def marked_index(data, s):
    """Index alpha if s sits on a marked point (circularly), else None."""
    for alpha, lam in enumerate(data.lambdas):
        if _circular_gap(s, lam) < _MARKED_ATOL:
            return alpha
    return None


def locate(data, s, side="right"):
    """Interval index and unwrapped coordinate for the point s.

    Returns (i, s_unwrapped) with s_unwrapped in [a_i, b_i].  On a marked
    point, side='right' picks the interval starting there and side='left'
    the one ending there.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    lambdas = data.lambdas
    n = data.n
    alpha = marked_index(data, s)
    if alpha is not None:
        if side == "right":
            return alpha, lambdas[alpha]
        i = (alpha - 1) % n
        return i, data.interval_bounds(i)[1]
    sm = s % TWO_PI
    if sm < lambdas[0]:
        return n - 1, sm + TWO_PI
    i = bisect_right(lambdas, sm) - 1
    return i, sm


def eval_T(data, mu, s, side="right"):
    """T_mu(s) as a k x k array.  side resolves marked-point ambiguity."""
    i, su = locate(data, s, side)
    a, b = data.interval_bounds(i)
    u = (2.0 * su - a - b) / (b - a)
    return chebyshev.chebval(u, data.intervals[i].coeffs[mu])


def jump_T(data, alpha, mu):
    """Discontinuity T_mu(lambda_alpha^+) - T_mu(lambda_alpha^-) from the
    Chebyshev ends T_p(-1) = (-1)^p of interval alpha, T_p(1) = 1 of alpha-1."""
    right = data.intervals[alpha].coeffs[mu]
    left = data.intervals[alpha - 1].coeffs[mu]
    signs = (-1.0) ** np.arange(len(right))
    return (signs[:, None, None] * right).sum(axis=0) - left.sum(axis=0)


def nahm_residual(data, s):
    """Interior Nahm-equation residual at s, shape (3, k, k): interval_residual
    of the interval holding s.  s must not be a marked point."""
    if marked_index(data, s) is not None:
        raise ValueError(
            f"s = {s} is a marked point; use matching_residual there")
    i, su = locate(data, s)
    a, b = data.interval_bounds(i)
    return interval_residual(data, i, (2.0 * su - a - b) / (b - a))


def interval_residual(data, i, u):
    """Nahm-equation residual on interval i at its Chebyshev coordinate u,
    shape (3, k, k).

    R_j = i T_j' + [T_0, T_j] + [T_{j+1}, T_{j+2}] (indices cyclic in 1..3).
    Vanishes identically for valid data.  Needs no lookup on the circle, so
    it holds up however close two marked points are.
    """
    a, b = data.interval_bounds(i)
    coeffs = np.moveaxis(data.intervals[i].coeffs, 1, 0)   # (p, mu, k, k)
    T = chebyshev.chebval(u, coeffs)
    dT = chebyshev.chebval(u, chebyshev.chebder(coeffs)) * (2.0 / (b - a))
    out = np.empty((3, data.k, data.k), dtype=complex)
    for j in (1, 2, 3):
        jp, jpp = 1 + (j % 3), 1 + ((j + 1) % 3)
        out[j - 1] = (1j * dT[j]
                      + T[0] @ T[j] - T[j] @ T[0]
                      + T[jp] @ T[jpp] - T[jpp] @ T[jp])
    return out


def q_spin_parts(data, alpha):
    """Spin components (M_0..M_3) of Q_alpha Q_alpha^dagger, each k x k."""
    q = data.Q[alpha]
    return spin_decompose(q @ q.conj().T)


def matching_residual(data, alpha):
    """Defect of the matching condition at marked point alpha, shape (3, k, k).

    R_j = Delta T_j(lambda_alpha) - i (Q_alpha Q_alpha^dagger)_j.
    Vanishes for valid data.
    """
    if not 0 <= alpha < data.n:
        raise IndexError(f"marked-point index {alpha} out of range (n = {data.n})")
    parts = q_spin_parts(data, alpha)
    out = np.empty((3, data.k, data.k), dtype=complex)
    for j in (1, 2, 3):
        out[j - 1] = jump_T(data, alpha, j) - 1j * parts[j]
    return out


@lru_cache(maxsize=None)
def _cheb_basis(P):
    """Basis matrix V[q, p] = T_p(u_q) at the P Chebyshev points of the first
    kind u_q = cos(pi (q + 1/2) / P), and its inverse (2/P) V^T with the
    first row halved (discrete orthogonality)."""
    V = np.cos(np.outer(np.pi * (np.arange(P) + 0.5) / P, np.arange(P)))
    Vinv = V.T * (2.0 / P)
    Vinv[0] *= 0.5
    V.setflags(write=False)
    Vinv.setflags(write=False)
    return V, Vinv


# the finv flow's t-jets by order: the flow itself, 'dfinv' with its
# gradient, 'ddfinv' with the second derivatives as well
FINV_JET = ("finv", "dfinv", "ddfinv")
# every second-order flow with the order of its t-jet ('ddagd', the 2k-dim
# lift of finv, carries none), and every flow: 'ddag' is the first-order one
JET = {"ddagd": 0, **{tag: order for order, tag in enumerate(FINV_JET)}}
FLOWS = ("ddag",) + tuple(JET)


@lru_cache(maxsize=None)
def jet_states(order):
    """Multi-indices of a t-jet of the given order, in state order: the
    second derivatives (mu, nu) with mu <= nu, then the first (nu,), then ()
    for the flow itself."""
    return tuple(s for r in range(order, -1, -1)
                 for s in combinations_with_replacement(range(4), r))


@lru_cache(maxsize=None)
def jet_index(order):
    """Positions in jet_states(order) of the first derivatives d_nu, (4,),
    and of the second derivatives d_rho d_nu, (4, 4), symmetric in (rho,
    nu); None where the order does not reach."""
    pos = {s: c for c, s in enumerate(jet_states(order))}
    first = np.array([pos[(nu,)] for nu in range(4)]) if order >= 1 else None
    second = (np.array([[pos[tuple(sorted((rho, nu)))] for nu in range(4)]
                        for rho in range(4)]) if order >= 2 else None)
    return first, second


def _jet(M, dM, ddM, order):
    """Van Loan matrix of the t-jet of Y' = M Y, (P, S m, S m) for S states.

    The state of jet_states(order) with index s obeys the Leibniz rule
    (d_s Y)' = M d_s Y + sum over the positions i of s of d_{s_i} M d_rest Y,
    rest being s without its i-th index, plus d_mu d_mu M Y for s = (mu, mu);
    dM holds d_nu M, (4, P, m, m), and ddM d_mu d_mu M, the same for every
    mu and the only non-zero second derivative.
    """
    states = jet_states(order)
    pos = {s: c for c, s in enumerate(states)}
    m = M.shape[-1]
    out = np.kron(np.eye(len(states)), M)
    for c, s in enumerate(states):
        terms = [(s[:i] + s[i + 1:], dM[nu]) for i, nu in enumerate(s)]
        if len(s) == 2 and s[0] == s[1]:
            terms.append(((), ddM))
        for rest, X in terms:
            col = pos[rest]
            out[:, c * m:(c + 1) * m, col * m:(col + 1) * m] += X
    return out


def _flow_matrices(tag, C, B, A):
    """Flow matrices of `tag` at a stack of points, (P, dim, dim), affine in
    its blocks there: C and B, (P, k, k), and A, (P, 4, k, k) (see
    flow_coefficient); np.kron lifts every matrix of a stack at once."""
    if tag == "ddag":
        return np.kron(np.eye(2), 1j * A[:, 0]) - sum(
            np.kron(pauli(j), A[:, j]) for j in (1, 2, 3))
    if tag == "ddagd":
        C, B = np.kron(np.eye(2), C), np.kron(np.eye(2), B)
    m = C.shape[1]
    M = np.zeros((len(C), 2 * m, 2 * m), dtype=complex)
    M[:, :m, m:] = np.eye(m)
    M[:, m:, :m] = C
    M[:, m:, m:] = B
    if not JET[tag]:
        return M
    # d_nu C = 2 (T_nu + t_nu), d_0 B = 2i, d_mu d_mu C = 2
    dM = np.zeros((4,) + M.shape, dtype=complex)
    dM[:, :, m:, :m] = 2.0 * A.transpose(1, 0, 2, 3)
    dM[0, :, m:, m:] = 2j * np.eye(m)
    ddM = np.zeros(M.shape[1:], dtype=complex)
    ddM[m:, :m] = 2.0 * np.eye(m)
    return _jet(M, dM, ddM, JET[tag])


@lru_cache(maxsize=None)
def _assembly(tag, k):
    """The flow matrix of `tag` as a gather from its blocks, (index, weight).

    With the blocks stacked as z = (C, B, A_0, .., A_3, 1, 0), entry e of
    the flattened matrix is sum_r weight[r, e] z[index[r, e]].  Built by
    running _flow_matrices on the basis of one block at a time, and on zero
    blocks for the constant: an entry has at most two sources (iA_0 - A_3
    on 'ddag'), so both arrays are (2 or 1, dim^2), read-only."""
    def build(z):
        z = z.reshape(-1, 6, k, k)
        return _flow_matrices(tag, z[:, 0], z[:, 1], z[:, 2:]).reshape(len(z), -1)

    kk, nz = k * k, 6 * k * k
    const = build(np.zeros(nz, dtype=complex))
    z, e, w = [], [], []
    for block in range(7):
        x = build(np.eye(kk, nz, block * kk)) - const if block < 6 else const
        rows, cols = np.nonzero(x)
        z, e, w = z + [block * kk + rows], e + [cols], w + [x[rows, cols]]
    order = np.argsort(np.concatenate(e), kind="stable")
    z, e, w = (np.concatenate(x)[order] for x in (z, e, w))
    rank = np.arange(len(e)) - np.searchsorted(e, e)
    index = np.full((rank.max() + 1, const.size), nz + 1)
    weight = np.zeros(index.shape, dtype=complex)
    index[rank, e], weight[rank, e] = z, w
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def flow_coefficient(data, t, i, tag):
    """Coefficient s -> M(s) of the kernel flow `tag` (FLOWS) on interval i.

    s is in the interval's own coordinate, [a_i, b_i] of interval_bounds,
    clipped to it.  'ddag' gives the Weyl matrix of D^dagger,
    kron(id2, i (T_0+t_0)) - sum_j kron(sigma_j, T_j+t_j); the second-order
    flows the companion matrix [[0, id], [C, B]] with C = i T_0' + (T_0+t_0)^2
    + sum_j (T_j+t_j)^2 and B = 2i (T_0+t_0), lifted by kron(id2, .) for
    'ddagd'.  A flow of jet order r > 0 (JET) carries the finv flow's
    t-derivatives up to order r on the states jet_states(r), coupled by
    d_nu C = 2 (T_nu+t_nu), d_0 B = 2i and d_mu d_mu C = 2 (_jet); a
    transfer then carries every d_s Y in the last block column and Y on the
    diagonal (Van Loan, IEEE TAC 23 (1978) 395).

    M, affine in the blocks C, B and A_mu = T_mu+t_mu (placed by the cached
    gather of _assembly), is a polynomial of degree d (first order) or 2d
    (second order) in the interval's variable u for T of degree d.  So it
    is built once, exactly, as a Chebyshev series from its values at as
    many Chebyshev points as it has terms (exact on a degree-0 interval, a
    one-term series).  coeff of a 1-D array of q points is the (q, dim, dim)
    stack from one basis-matrix product, so an adaptive transfer evaluates
    all stages of a step at once; coeff of one point is its (dim, dim)
    matrix.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4,):
        raise ValueError("t must be a 4-vector (t0, t1, t2, t3)")
    if tag not in FLOWS:
        raise ValueError(f"unknown flow tag {tag!r}")
    iv = data.intervals[i]
    a, b = (float(x) for x in data.interval_bounds(i))
    d = iv.degree
    P = d + 1 if tag == "ddag" else 2 * d + 1
    V, Vinv = _cheb_basis(P)
    A = np.tensordot(V[:, :d + 1], iv.coeffs, axes=([1], [1]))
    A = A + t[None, :, None, None] * np.eye(data.k)
    dA0 = 0.0
    if d > 0:
        dc0 = chebyshev.chebder(iv.coeffs[0], m=1, axis=0)
        dA0 = np.tensordot(V[:, :d], dc0, axes=1) * (2.0 / (b - a))
    index, weight = _assembly(tag, data.k)
    dim = math.isqrt(index.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite block gives a non-finite M, which fails its transfer
        C = 1j * dA0 + (A @ A).sum(axis=1)
        blocks = np.concatenate([C[:, None], 2j * A[:, :1], A], axis=1)
        z = np.column_stack([blocks.reshape(P, -1), np.ones(P), np.zeros(P)])
        M = (weight * np.take(z, index, axis=1)).sum(axis=1)
        series = Vinv @ M.view(float)   # re and im side by side, both real
    orders = np.arange(P)

    def coeff(s):
        u = np.clip((2.0 * np.asarray(s, dtype=float) - a - b) / (b - a), -1.0, 1.0)
        basis = np.cos(np.multiply.outer(np.arccos(u), orders))
        return (basis @ series).view(complex).reshape(u.shape + (dim, dim))

    return coeff

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from caloron import monodromy, nahm, oracle, spin


def zero_mat(k):
    return [[[0.0, 0.0] for _ in range(k)] for _ in range(k)]


@pytest.fixture(scope="session")
def reference():
    """The standard two-interval SU(2) dataset used by most end-to-end tests."""
    return oracle.su2_reference_data()


@pytest.fixture(scope="session")
def free_config():
    # k=1, T == 0, Q == 0: everything about this dataset is exactly solvable
    return {
        "k": 1,
        "lambdas": [float(np.pi)],
        "intervals": [
            {"degree": 0, "T": {str(mu): [zero_mat(1)] for mu in range(4)}}
        ],
        "Q": [[[[0.0, 0.0]], [[0.0, 0.0]]]],
        "description": "free field: T = 0, Q = 0, exactly solvable",
    }


@pytest.fixture(scope="session")
def free_data(free_config):
    return nahm.from_dict(free_config)


TWIN_DEGREE = 16
TWIN_AMPLITUDE = 0.3   # phi(s) = TWIN_AMPLITUDE * sin(s)


def gauge_twin(data, X):
    """Degree-TWIN_DEGREE Chebyshev fit of data under the periodic gauge
    transformation g(s) = exp(i phi(s) X): T_0 -> g T_0 g^dag + phi'(s) X,
    T_j -> g T_j g^dag and Q_alpha -> (id2 (x) g(lambda_alpha)) Q_alpha.
    Valid degree-0 data give degree > 0, non-commuting valid data with the
    same Q^dag F Q, chi and A."""
    w, V = np.linalg.eigh(X)

    def g(s):
        return (V * np.exp(1j * TWIN_AMPLITUDE * np.sin(s) * w)) @ V.conj().T

    u = np.cos(np.pi * (np.arange(TWIN_DEGREE + 1) + 0.5) / (TWIN_DEGREE + 1))
    intervals = []
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        const = data.intervals[i].coeffs[:, 0]
        vals = np.empty((4, TWIN_DEGREE + 1, data.k, data.k), dtype=complex)
        for p, s in enumerate(0.5 * (a + b) + 0.5 * (b - a) * u):
            gs = g(s)
            for mu in range(4):
                vals[mu, p] = gs @ const[mu] @ gs.conj().T
            vals[0, p] += TWIN_AMPLITUDE * np.cos(s) * X
        T = {}
        for mu in range(4):
            c = chebyshev.chebfit(u, vals[mu].reshape(TWIN_DEGREE + 1, -1), TWIN_DEGREE)
            c = c.reshape(TWIN_DEGREE + 1, data.k, data.k)
            T[str(mu)] = nahm.to_pairs(0.5 * (c + c.conj().transpose(0, 2, 1)))
        intervals.append({"degree": TWIN_DEGREE, "T": T})
    return nahm.from_dict({
        "k": data.k,
        "lambdas": [float(x) for x in data.lambdas],
        "intervals": intervals,
        "Q": [nahm.to_pairs(np.kron(np.eye(2), g(lam)) @ q)
              for lam, q in zip(data.lambdas, data.Q)],
    })


@pytest.fixture(scope="session")
def twin_case():
    """(constant data, its degree-16 twin, a regular t): k = 2, n = 3."""
    rng = np.random.default_rng(42)
    data = oracle.random_valid_data(rng, k=2, n=3, magnitude=0.3)
    t = oracle.random_regular_t(data, rng)
    X = np.array([[0.6, 0.3 - 0.5j], [0.3 + 0.5j, -0.2]])
    return data, gauge_twin(data, X / np.linalg.norm(X)), t


def random_poly_data(rng, k=2, n=2, degree=3, magnitude=0.3):
    """Off-shell data: random non-commuting hermitian polynomial T_mu and Q.

    T_mu has Chebyshev coefficients of size magnitude / (p + 1) on every
    interval, so no gauge makes it constant; Q is random of width 1.  The
    second-order (finv) operator is self-adjoint for any hermitian T, so
    the F layer and its t-derivatives can be checked on such data.
    """
    def herm(scale):
        M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        return scale * 0.5 * (M + M.conj().T)

    def pairs(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()

    lambdas = (np.arange(n) + rng.uniform(0.1, 0.6)) * (2.0 * np.pi / n)
    return nahm.from_dict({
        "k": k,
        "lambdas": lambdas.tolist(),
        "intervals": [
            {"degree": degree,
             "T": {str(mu): [pairs(herm(magnitude / (p + 1)))
                             for p in range(degree + 1)] for mu in range(4)}}
            for _ in range(n)],
        "Q": [pairs(magnitude * (rng.normal(size=(2 * k, 1))
                                 + 1j * rng.normal(size=(2 * k, 1))))
              for _ in range(n)],
    })


def direct_flow_matrix(data, t, i, tag, u):
    """The flow matrix of `tag` at u on interval i, rebuilt pointwise from
    eval_T and, for T_0', numpy's chebder / chebval.

    Besides the flows of nahm.flow_coefficient it builds 'd', the Weyl
    matrix of D, which the package never integrates: the tests check the D
    loop it gives against the one regularity derives.
    """
    a, b = data.interval_bounds(i)
    s = 0.5 * (a + b) + 0.5 * (b - a) * u
    side = "left" if u > 0.0 else "right"   # both ends read interval i
    k = data.k
    A = [nahm.eval_T(data, mu, s, side) + t[mu] * np.eye(k) for mu in range(4)]
    if tag in ("ddag", "d"):
        sign = -1.0 if tag == "ddag" else 1.0
        return np.kron(np.eye(2), 1j * A[0]) + sign * sum(
            np.kron(spin.pauli(j), A[j]) for j in (1, 2, 3))
    dc0 = chebyshev.chebder(data.intervals[i].coeffs[0], axis=0)
    C = 1j * chebyshev.chebval(u, dc0) * (2.0 / (b - a)) + sum(X @ X for X in A)
    B = 2j * A[0]
    if tag == "ddagd":
        C, B = np.kron(np.eye(2), C), np.kron(np.eye(2), B)
    m = C.shape[0]
    M = np.block([[np.zeros((m, m)), np.eye(m)], [C, B]])
    if tag not in ("dfinv", "ddfinv"):
        return M
    # the jet by the Leibniz rule, from d_nu M and d_mu d_mu M
    dM = np.zeros((4, 2 * k, 2 * k), dtype=complex)
    for nu in range(4):
        dM[nu, k:, :k] = 2.0 * A[nu]
    dM[0, k:, k:] = 2j * np.eye(k)
    ddM = np.zeros((2 * k, 2 * k), dtype=complex)
    ddM[k:, :k] = 2.0 * np.eye(k)
    pairs = ([(mu, nu) for mu in range(4) for nu in range(mu, 4)]
             if tag == "ddfinv" else [])
    states = pairs + [(nu,) for nu in range(4)] + [()]
    pos = {state: c for c, state in enumerate(states)}
    out = np.kron(np.eye(len(states)), M)

    def add(row, col, X):
        r, c = 2 * k * pos[row], 2 * k * pos[col]
        out[r:r + 2 * k, c:c + 2 * k] += X

    for nu in range(4):
        add((nu,), (), dM[nu])
    for mu, nu in pairs:
        if mu == nu:
            add((mu, mu), (mu,), 2.0 * dM[mu])
            add((mu, mu), (), ddM)
        else:
            add((mu, nu), (nu,), dM[mu])
            add((mu, nu), (mu,), dM[nu])
    return out


def second_order_jump(data, alpha, tag="finv"):
    """Marked-point jump map kron(id_S, [[id, 0], [J, id]]) of the flow `tag`
    on its S stacked companion states (nahm.JET), J = jump_block(data, alpha,
    tag); Propagator.steps applies it as a row update instead."""
    J = monodromy.jump_block(data, alpha, tag)
    jump = np.eye(2 * len(J), dtype=complex)
    jump[len(J):, :len(J)] = J
    return np.kron(np.eye(len(nahm.jet_states(nahm.JET[tag]))), jump)


def degree1_config(data):
    """The config of degree-0 data with every interval rewritten as degree 1,
    its p = 1 coefficients zero: the same field, but its transfers take the
    adaptive path."""
    cfg = nahm.to_dict(data)
    for interval in cfg["intervals"]:
        interval["degree"] = 1
        for coeffs in interval["T"].values():
            coeffs.append(zero_mat(data.k))
    return cfg


def stacked(coeff):
    """A coefficient written for one point s, extended to the contract of
    monodromy.transfer: a 1-D array of points gives the stack of matrices."""
    def at(s):
        if np.ndim(s) == 0:
            return coeff(s)
        return np.array([coeff(x) for x in s])
    return at


def pointwise_flow(data, t, i, tag):
    """s -> direct_flow_matrix on interval i, s in the interval's own
    coordinate (interval_bounds), stacked over an array of points."""
    a, b = data.interval_bounds(i)
    return stacked(lambda s: direct_flow_matrix(data, t, i, tag,
                                                (2.0 * s - a - b) / (b - a)))


def steps_path(steps, alpha, count):
    """Product Phi_{alpha+count-1} ... Phi_alpha of block-cyclic steps
    (Propagator.steps, indices mod n): the transport from lambda_alpha
    across count intervals, right limit to right limit; count = n is the
    loop based at lambda_alpha."""
    out = np.eye(steps.shape[-1], dtype=complex)
    for j in range(alpha, alpha + count):
        out = steps[j % len(steps)] @ out
    return out

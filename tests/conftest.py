import numpy as np
import pytest

from caloron import nahm, oracle


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
        "description": "free field",
    }


@pytest.fixture(scope="session")
def free_data(free_config):
    return nahm.from_dict(free_config)


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

"""Quaternionic spin algebra on C^2.

Conventions used throughout the package:

* ``SIGMA[1..3]`` are the standard Pauli matrices and ``SIGMA[0] = i*id``,
  so that all four satisfy sigma_mu = i * E[mu].
* ``E[mu]`` are the quaternion units represented on C^2:
  ``E[0] = id``, ``E[j] = -i * SIGMA[j]``.  They obey
  ``E[1] @ E[2] = E[3]`` (cyclic) and ``E[j] @ E[j] = -id``.
* ``EBAR[mu]`` is the quaternion conjugate: ``EBAR[0] = E[0]``,
  ``EBAR[j] = -E[j]`` (equals the hermitian adjoint of ``E[mu]``).

A matrix on C^2 (x) C^k is stored with the spin factor as the *outer*
Kronecker factor: ``np.kron(s, m)`` has block structure
``[[s00*m, s01*m], [s10*m, s11*m]]``.  ``spin_decompose`` inverts the
expansion M = sum_mu kron(E[mu], M_mu).
"""

import numpy as np

_ID2 = np.eye(2, dtype=complex)

SIGMA = (
    1j * _ID2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

E = (_ID2, -1j * SIGMA[1], -1j * SIGMA[2], -1j * SIGMA[3])
EBAR = (_ID2, -E[1], -E[2], -E[3])

for _m in SIGMA + E + EBAR:
    _m.setflags(write=False)


def pauli(mu):
    """sigma_mu with sigma_0 = i*id.  mu in 0..3."""
    return SIGMA[mu]


def e_bracket(nu, mu):
    """Antisymmetrized product ebar_nu e_mu - ebar_mu e_nu (2x2).

    Satisfies e_bracket(0, j) = 2 E[j] and
    e_bracket(j, l) = -2 eps_{jlm} E[m] for spatial j, l.
    """
    return EBAR[nu] @ E[mu] - EBAR[mu] @ E[nu]


# precomputed 4x4 table of e_bracket values, BRACKET[nu][mu]
BRACKET = tuple(tuple(e_bracket(nu, mu) for mu in range(4)) for nu in range(4))
for _row in BRACKET:
    for _m in _row:
        _m.setflags(write=False)


def spin_trace(M):
    """Partial trace over the spin factor: (2k x 2k) -> (k x k)."""
    k = M.shape[0] // 2
    return M[:k, :k] + M[k:, k:]


def spin_decompose(M):
    """Components M_mu of M = sum_mu kron(E[mu], M_mu).

    Returns a list of four k x k arrays,
    M_mu = (1/2) spin_trace(kron(EBAR[mu], id_k) @ M).
    """
    k = M.shape[0] // 2
    idk = np.eye(k)
    return [0.5 * spin_trace(np.kron(EBAR[mu], idk) @ M) for mu in range(4)]

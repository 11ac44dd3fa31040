"""Spin algebra tables, checked bitwise against hand-written matrices."""

import numpy as np

from caloron import spin

# hand-written copies, kept independent of the module's own definitions
I2 = np.eye(2, dtype=complex)
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_matrices_bitwise():
    assert np.array_equal(spin.pauli(1), S1)
    assert np.array_equal(spin.pauli(2), S2)
    assert np.array_equal(spin.pauli(3), S3)
    # sigma_0 is i * id
    assert np.array_equal(spin.SIGMA[0], 1j * I2)


def test_pauli_products():
    sig = (I2, S1, S2, S3)
    eps = np.zeros((4, 4, 4))
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        eps[a, b, c] = 1.0
        eps[b, a, c] = -1.0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            want = (1.0 if a == b else 0.0) * I2
            want = want + 1j * sum(eps[a, b, c] * sig[c] for c in (1, 2, 3))
            assert np.array_equal(sig[a] @ sig[b], want), (a, b)


def test_quaternion_relations():
    # e_j^2 = -id, e_1 e_2 = e_3 and cyclic, e_bar_j = -e_j
    E = list(spin.E)
    assert np.array_equal(E[0], I2)
    for j in (1, 2, 3):
        assert np.array_equal(E[j], -1j * (S1, S2, S3)[j - 1])
        assert np.array_equal(E[j] @ E[j], -I2)
        assert np.array_equal(spin.EBAR[j], -E[j])
    assert np.array_equal(spin.EBAR[0], I2)
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        assert np.array_equal(E[a] @ E[b], E[c])
        assert np.array_equal(E[b] @ E[a], -E[c])


def test_bracket_table_bitwise():
    E = [I2, -1j * S1, -1j * S2, -1j * S3]
    eps = np.zeros((4, 4, 4))
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        eps[a, b, c] = 1.0
        eps[b, a, c] = -1.0
    for nu in range(4):
        for mu in range(4):
            got = spin.BRACKET[nu][mu]
            if nu == mu:
                want = np.zeros((2, 2), dtype=complex)
            elif nu == 0:
                want = 2.0 * E[mu]
            elif mu == 0:
                want = -2.0 * E[nu]
            else:
                want = -2.0 * sum(eps[nu, mu, m] * E[m] for m in (1, 2, 3))
            assert np.array_equal(got, want), (nu, mu)
            # and the defining formula itself
            direct = spin.EBAR[nu] @ spin.E[mu] - spin.EBAR[mu] @ spin.E[nu]
            assert np.array_equal(got, direct)


def test_tables_are_readonly():
    for mu in range(4):
        assert not spin.E[mu].flags.writeable
        assert not spin.EBAR[mu].flags.writeable


def test_spin_trace_and_kron():
    rng = np.random.default_rng(0)
    k = 3
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    for mu in range(4):
        M = np.kron(spin.E[mu], m)
        assert M.shape == (2 * k, 2 * k)
        # partial trace over the spin factor
        tr = spin.spin_trace(M)
        want = np.trace(spin.E[mu]) * m
        assert np.allclose(tr, want, atol=1e-14)


def test_decompose_compose_roundtrip():
    rng = np.random.default_rng(1)
    k = 2
    M = rng.normal(size=(2 * k, 2 * k)) + 1j * rng.normal(size=(2 * k, 2 * k))
    parts = spin.spin_decompose(M)
    back = sum(np.kron(spin.E[mu], parts[mu]) for mu in range(4))
    assert np.allclose(back, M, atol=1e-13)
    # decomposition of a pure term picks out exactly that component
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    for mu in range(4):
        parts = spin.spin_decompose(np.kron(spin.E[mu], m))
        for nu in range(4):
            want = m if nu == mu else np.zeros_like(m)
            assert np.allclose(parts[nu], want, atol=1e-14), (mu, nu)

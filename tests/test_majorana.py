"""Majorana algebra tests: Jordan-Wigner forms, rotations, expectations.

The dense conjugation used as the independent oracle here builds the full
2^n matrices from scratch (kron products), never touching the banded-update
code path under test.
"""

import numpy as np
import pytest

from matchsim.circuit import (
    EntangledBlock,
    FSWAP,
    Gate,
    InputSpec,
    BitsBlock,
    MatchgateAngles,
    ProductBlock,
    bits_input,
    matchgate_from_angles,
)
from matchsim.errors import BlockTooLarge
from matchsim.majorana import (
    PauliString,
    apply_majorana_sum,
    expectation_pauli,
    h_matrix,
    majorana_action_table,
    majorana_pair,
    segment_rotation,
    t_from_r,
)
from helpers import orthogonality_residual, pauli_matrix

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PAULIS = [I2, X, Y, Z]


def dense_majorana(mu, n):
    """Independent dense construction of c_mu (mu 1-based)."""
    k = (mu + 1) // 2
    m = np.array([[1.0]], dtype=complex)
    for line in range(1, n + 1):
        if line < k:
            m = np.kron(m, Z)
        elif line == k:
            m = np.kron(m, X if mu % 2 == 1 else Y)
        else:
            m = np.kron(m, I2)
    return m


def embed_gate(u4, line, n):
    """Gate on 0-based lines (line, line+1) as a dense 2^n matrix."""
    m = np.eye(1, dtype=complex)
    pos = 0
    while pos < n:
        if pos == line:
            m = np.kron(m, u4)
            pos += 2
        else:
            m = np.kron(m, I2)
            pos += 1
    return m


def test_majorana_pauli_basic_forms():
    # c_1 = X I I and c_4 = Z Y I on n = 3, read through their products
    ps = majorana_pair(0, 3, 3)  # XZ (x) Y (x) I = -i Y Y I
    assert ps.phase == -1j
    assert list(ps.letters) == [2, 2, 0]
    ps = majorana_pair(3, 0, 3)  # ZX (x) Y (x) I = i Y Y I
    assert ps.phase == 1j
    assert list(ps.letters) == [2, 2, 0]
    ps = majorana_pair(0, 5, 3)  # c_1 c_6 = XZ (x) Z (x) Y = -i Y Z Y
    assert ps.phase == -1j
    assert list(ps.letters) == [2, 3, 2]


def test_pauli_product_phase():
    # c1 c2 on n=1: X * Y = iZ
    p = majorana_pair(0, 1, 1)
    assert p.phase == 1j
    assert list(p.letters) == [3]


def test_majorana_squares_to_identity():
    n = 2
    for mu in range(4):
        p = majorana_pair(mu, mu, n)
        assert p.phase == 1
        assert not p.letters.any()


def test_anticommutation():
    n = 3
    for mu in range(6):
        for nu in range(6):
            if mu == nu:
                continue
            p1 = majorana_pair(mu, nu, n)
            p2 = majorana_pair(nu, mu, n)
            assert np.array_equal(p1.letters, p2.letters)
            assert p1.phase == -p2.phase


def test_majorana_matches_dense_construction():
    # c_mu c_nu in closed form against the product of independent dense
    # matrices: single-line forms, squares, anticommutation and phases
    for n in range(1, 5):
        for mu in range(2 * n):
            for nu in range(2 * n):
                want = dense_majorana(mu + 1, n) @ dense_majorana(nu + 1, n)
                assert np.array_equal(pauli_matrix(majorana_pair(mu, nu, n)), want), (n, mu, nu)
        with pytest.raises(ValueError):
            majorana_pair(0, 2 * n, n)


# -- expectation values --------------------------------------------------------


def test_expectation_identity_is_one():
    spec = InputSpec((BitsBlock("01"), ProductBlock((np.array([0.6, 0.8j]),))))
    assert expectation_pauli(majorana_pair(2, 2, 3), spec) == 1.0


def test_expectation_z_on_bits():
    z1 = majorana_pair(0, 1, 2)  # i Z_1
    assert np.isclose(expectation_pauli(z1, bits_input("00")), 1j)
    assert np.isclose(expectation_pauli(z1, bits_input("10")), -1j)


def test_expectation_xx_on_bell_block():
    bell = EntangledBlock(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    spec = InputSpec((bell,))
    xx = PauliString(0, np.array([1, 1], dtype=np.uint8))
    assert np.isclose(expectation_pauli(xx, spec), 1.0)


def test_expectation_matches_dense_on_random_strings():
    rng = np.random.default_rng(9)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = np.array([1, 0], dtype=complex)
    spec = InputSpec((BitsBlock("1"), EntangledBlock(2, amps), ProductBlock((state,))))
    dense = np.kron(np.array([0, 1], dtype=complex), np.kron(amps, state))
    for _ in range(30):
        letters = rng.integers(0, 4, size=4).astype(np.uint8)
        code = int(rng.integers(0, 4))
        ps = PauliString(code, letters)
        want = np.vdot(dense, pauli_matrix(ps) @ dense)
        got = expectation_pauli(ps, spec)
        assert abs(want - got) < 1e-12


def test_block_cap_enforced():
    amps = np.zeros(2 ** 13)
    amps[0] = 1.0
    spec = InputSpec((EntangledBlock(13, amps),))
    with pytest.raises(BlockTooLarge):
        expectation_pauli(majorana_pair(0, 1, 13), spec)


def test_vacuum_two_point_function_equals_h():
    n = 4
    vac = bits_input("0" * n)
    h = h_matrix(n)
    for mu in range(2 * n):
        for nu in range(2 * n):
            assert abs(expectation_pauli(majorana_pair(mu, nu, n), vac) - h[mu, nu]) < 1e-12


# -- rotation matrices ---------------------------------------------------------


def test_identity_gate_rotation():
    g = matchgate_from_angles(MatchgateAngles(0, 0, 0, 0, 0, 0))
    assert np.allclose(segment_rotation([Gate(0, g)], 3), np.eye(6))


def test_fswap_rotation_permutes_majoranas():
    # derived by conjugating each Majorana by G(Z,X) densely
    n = 2
    u = embed_gate(FSWAP.matrix(), 0, n)
    want = np.zeros((4, 4))
    for mu in range(1, 5):
        conj = u @ dense_majorana(mu, n) @ u.conj().T
        for nu in range(1, 5):
            want[mu - 1, nu - 1] = np.trace(dense_majorana(nu, n) @ conj).real / 2 ** n
    r = segment_rotation([Gate(0, FSWAP)], n)
    assert np.allclose(r, want, atol=1e-12)
    # maps (c1,c2,c3,c4) -> (c3,c4,c1,c2) up to signs
    perm = np.abs(r)
    assert np.allclose(perm, np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]))


def test_random_gate_rotation_matches_dense_conjugation_and_is_orthogonal():
    rng = np.random.default_rng(21)
    n = 3
    for _ in range(10):
        g = matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6)))
        line = int(rng.integers(0, n - 1))
        u = embed_gate(g.matrix(), line, n)
        r = segment_rotation([Gate(line, g)], n)
        assert orthogonality_residual(r) < 1e-10
        for mu in range(1, 2 * n + 1):
            conj = u @ dense_majorana(mu, n) @ u.conj().T
            recon = sum(r[mu - 1, nu - 1] * dense_majorana(nu, n) for nu in range(1, 2 * n + 1))
            assert np.max(np.abs(conj - recon)) < 1e-10


def test_composition_convention_pinned_by_dense_oracle():
    """The convention cross-check: circuit U = g2 g1 (g1 first) must satisfy
    R(U) = R(g1) R(g2); the reverse order disagrees for non-commuting gates."""
    rng = np.random.default_rng(33)
    n = 3
    g1 = matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6)))
    g2 = matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6)))
    gates = [Gate(0, g1), Gate(1, g2)]
    u = embed_gate(g2.matrix(), 1, n) @ embed_gate(g1.matrix(), 0, n)
    want = np.zeros((2 * n, 2 * n))
    for mu in range(1, 2 * n + 1):
        conj = u @ dense_majorana(mu, n) @ u.conj().T
        for nu in range(1, 2 * n + 1):
            want[mu - 1, nu - 1] = (np.trace(dense_majorana(nu, n) @ conj) / 2 ** n).real
    r_good = segment_rotation(gates, n)
    r_bad = segment_rotation(gates[1:], n) @ segment_rotation(gates[:1], n)
    assert np.max(np.abs(r_good - want)) < 1e-10
    assert np.max(np.abs(r_bad - want)) > 1e-3


def test_segment_homomorphism_against_per_gate_products():
    rng = np.random.default_rng(4)
    n = 6
    gates = []
    for _ in range(20):
        g = matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6)))
        gates.append(Gate(int(rng.integers(0, n - 1)), g))
    r = segment_rotation(gates, n)
    acc = np.eye(2 * n)
    for g in gates:
        acc = acc @ segment_rotation([g], n)
    assert np.max(np.abs(r - acc)) < 1e-10
    assert orthogonality_residual(r) < 1e-10


def test_empty_segment_t_matrix():
    r = segment_rotation([], 2)
    t = t_from_r(r)
    want = np.zeros((2, 4), dtype=complex)
    want[0, 0] = 0.5
    want[0, 1] = 0.5j
    want[1, 2] = 0.5
    want[1, 3] = 0.5j
    assert np.allclose(t, want)


def test_double_fswap_is_identity_rotation():
    gates = [Gate(0, FSWAP), Gate(0, FSWAP)]
    assert np.allclose(segment_rotation(gates, 2), np.eye(4))


def test_t_matrix_conjugation_identity():
    """U^dag a_i U = sum_nu T[i,nu] c_nu, checked densely for a random segment."""
    rng = np.random.default_rng(8)
    n = 3
    gates = [Gate(int(rng.integers(0, n - 1)),
                  matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6))))
             for _ in range(6)]
    u = np.eye(2 ** n, dtype=complex)
    for g in gates:
        u = embed_gate(g.gate.matrix(), g.line, n) @ u
    r = segment_rotation(gates, n)
    t = t_from_r(r)
    for i in range(n):
        a_i = 0.5 * (dense_majorana(2 * i + 1, n) + 1j * dense_majorana(2 * i + 2, n))
        lhs = u.conj().T @ a_i @ u
        rhs = sum(t[i, nu] * dense_majorana(nu + 1, n) for nu in range(2 * n))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("n", range(1, 6))
def test_apply_majorana_sum_matches_matrix_action(n):
    rng = np.random.default_rng(12)
    table = majorana_action_table(n)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    w = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    dense = sum(w[mu] * dense_majorana(mu + 1, n) for mu in range(2 * n))
    assert np.max(np.abs(apply_majorana_sum(w, table, psi) - dense @ psi)) < 1e-12


def test_tht_products_match_vacuum_expectations():
    # (T H T^dag)_{ij} = <0| U^dag a_i U U^dag a_j^dag U |0>, the consistency
    # behind the lookup-table entries, checked densely for a 30-gate segment
    rng = np.random.default_rng(30)
    n = 8
    gates = [Gate(int(rng.integers(0, n - 1)),
                  matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6))))
             for _ in range(30)]
    r = segment_rotation(gates, n)
    t = t_from_r(r)
    h = h_matrix(n)
    tht = t @ h @ t.conj().T
    thtt = t @ h @ t.T
    vac = np.zeros(2 ** n, dtype=complex)
    vac[0] = 1.0
    u = np.eye(2 ** n, dtype=complex)
    for g in gates:
        u = embed_gate(g.gate.matrix(), g.line, n) @ u
    for i in range(0, n, 3):
        a_i = 0.5 * (dense_majorana(2 * i + 1, n) + 1j * dense_majorana(2 * i + 2, n))
        for j in range(0, n, 3):
            a_j = 0.5 * (dense_majorana(2 * j + 1, n) + 1j * dense_majorana(2 * j + 2, n))
            lhs = u.conj().T @ a_i @ u @ u.conj().T @ a_j.conj().T @ u
            want = vac @ (lhs @ vac)
            assert abs(tht[i, j] - want) < 1e-10
            lhs2 = u.conj().T @ a_i @ u @ u.conj().T @ a_j @ u
            want2 = vac @ (lhs2 @ vac)
            assert abs(thtt[i, j] - want2) < 1e-10

"""Circuit-model tests: matchgate validation, angle form, guards, segments."""

import numpy as np
import pytest

from matchsim.circuit import (
    FSWAP,
    H2,
    Circuit,
    Gate,
    Guard,
    InputSpec,
    MagicBlock,
    MatchgateAngles,
    Measure,
    bits_input,
    gates_equal_up_to_phase,
    instantiate_segments,
    matchgate_from_angles,
    matchgate_from_components,
)
from matchsim.errors import DeterminantMismatch, NotUnitary, UnresolvedGuard, ValidationError
from helpers import block_is_fermionic

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def test_fswap_is_a_matchgate():
    g = matchgate_from_components(Z, X)
    assert np.allclose(g.matrix(), FSWAP.matrix())


def test_swap_is_not_a_matchgate():
    # det I = 1, det X = -1
    with pytest.raises(DeterminantMismatch):
        matchgate_from_components(I2, X)


def test_hadamard_pair_is_a_matchgate():
    g = matchgate_from_components(H2, H2)
    assert np.allclose(g.a, H2)


def test_non_unitary_component_rejected():
    with pytest.raises(NotUnitary) as exc:
        matchgate_from_components(2 * I2, X)
    assert exc.value.residual > 1e-10


def test_angles_all_zero_gives_identity():
    g = matchgate_from_angles(MatchgateAngles(0, 0, 0, 0, 0, 0))
    assert np.allclose(g.matrix(), np.eye(4))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("angles, which", [
    ((float("nan"), 0, 0, 0, 0, 0), "a"),
    ((0, 0, 0, 0, float("inf"), 0), "a"),
    # p3 + p4 = 0 keeps a finite; p3 - p4 overflows in b
    ((0, 0, 0, 0, 1e308, -1e308), "b"),
])
def test_non_finite_angles_rejected(angles, which):
    with pytest.raises(NotUnitary) as exc:
        matchgate_from_angles(MatchgateAngles(*angles))
    assert exc.value.which == which


def test_angle_gates_pass_the_component_checks():
    # built without re-validation, they equal the validated gate bit for bit
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = matchgate_from_angles(MatchgateAngles(*rng.uniform(-50, 50, size=6)))
        checked = matchgate_from_components(g.a, g.b)
        assert np.array_equal(g.a, checked.a) and np.array_equal(g.b, checked.b)
        assert not (g.a.flags.writeable or g.b.flags.writeable)


def test_zero_interaction_gives_diagonal_blocks():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.uniform(0, 2 * np.pi, size=4)
        g = matchgate_from_angles(MatchgateAngles(0, 0, *p))
        assert np.allclose(np.abs(g.a), np.eye(2))
        assert np.allclose(np.abs(g.b), np.eye(2))
        # equals a tensor product of Z-rotations
        u1 = np.diag([np.exp(1j * (p[0] + p[2])), np.exp(-1j * (p[0] + p[2]))])
        u2 = np.diag([np.exp(1j * (p[1] + p[3])), np.exp(-1j * (p[1] + p[3]))])
        assert gates_equal_up_to_phase(g.matrix(), np.kron(u1, u2))


def _angles_product_matrix(angles):
    """Direct 4x4 multiplication of the three factors (independent route)."""
    al, be, p1, p2, p3, p4 = angles.as_tuple()
    xx = np.kron(X, X)
    yy = np.kron(Y, Y)
    h = al * xx + be * yy
    w, v = np.linalg.eigh(h)
    mid = v @ np.diag(np.exp(1j * w)) @ v.conj().T
    left = np.kron(np.diag([np.exp(1j * p3), np.exp(-1j * p3)]),
                   np.diag([np.exp(1j * p4), np.exp(-1j * p4)]))
    right = np.kron(np.diag([np.exp(1j * p1), np.exp(-1j * p1)]),
                    np.diag([np.exp(1j * p2), np.exp(-1j * p2)]))
    return left @ mid @ right


def test_angle_form_matches_direct_product_and_roundtrips():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ang = MatchgateAngles(*rng.uniform(0, 2 * np.pi, size=6).tolist())
        g = matchgate_from_angles(ang)
        assert np.max(np.abs(g.matrix() - _angles_product_matrix(ang))) < 1e-12
        assert abs(np.linalg.det(g.a) - np.linalg.det(g.b)) < 1e-12
        # round-trip through component validation succeeds
        matchgate_from_components(g.a, g.b)


def test_matchgate_components_are_read_only_copies():
    a, b = Z.copy(), X.copy()
    g = matchgate_from_components(a, b)
    a[0, 0] = 7.0  # the caller's arrays stay the caller's
    assert g.a[0, 0] == 1.0
    for m in (g.a, g.b):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_matchgate_preserves_parity():
    rng = np.random.default_rng(3)
    zz = np.kron(Z, Z)
    for _ in range(10):
        g = matchgate_from_angles(MatchgateAngles(*rng.uniform(0, 2 * np.pi, size=6)))
        u = g.matrix()
        assert np.max(np.abs(u @ zz @ u.conj().T - zz)) < 1e-12


def test_six_hamiltonian_generators_yield_valid_matchgates():
    # exponentials of real combinations of XX, YY, XY, YX, ZI, IZ
    gens = [np.kron(X, X), np.kron(Y, Y), np.kron(X, Y), np.kron(Y, X),
            np.kron(Z, I2), np.kron(I2, Z)]
    rng = np.random.default_rng(5)
    for _ in range(25):
        h = sum(c * g for c, g in zip(rng.normal(size=6), gens))
        w, v = np.linalg.eigh(h)
        u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
        a = u[np.ix_([0, 3], [0, 3])]
        b = u[np.ix_([1, 2], [1, 2])]
        assert np.max(np.abs(u[np.ix_([0, 3], [1, 2])])) < 1e-12
        matchgate_from_components(a, b)  # must validate


def test_magic_block_has_even_parity_support_only():
    assert block_is_fermionic(MagicBlock())
    amps = MagicBlock().state()
    for i, a in enumerate(amps):
        if abs(a) > 0:
            assert bin(i).count("1") % 2 == 0


# -- structural validation ---------------------------------------------------


def _measure(line, rid, role="final"):
    return Measure(line, rid, role)


def test_gate_line_bounds_validation():
    g = Gate(2, FSWAP)  # needs lines 2,3 but n=3 has lines 0..2
    c = Circuit(3, bits_input("000"), (g, _measure(0, "x0")))
    with pytest.raises(ValidationError, match="nearest-neighbour"):
        c.validate()


def test_duplicate_record_ids_rejected():
    c = Circuit(2, bits_input("00"), (_measure(0, "m", "intermediate"), _measure(1, "m")))
    with pytest.raises(ValidationError, match="record-unique"):
        c.validate()


def test_guard_must_reference_earlier_intermediate_record():
    g = Gate(0, FSWAP, Guard(frozenset({"m1"}), 1))
    c = Circuit(2, bits_input("00"), (g, _measure(0, "m1", "intermediate"), _measure(0, "x")))
    with pytest.raises(ValidationError, match="guard-earlier"):
        c.validate()
    # guards on final records are rejected too
    c2 = Circuit(
        2,
        bits_input("00"),
        (_measure(0, "f", "final"), Gate(0, FSWAP, Guard(frozenset({"f"}), 1)), _measure(1, "x")),
    )
    with pytest.raises(ValidationError, match="guard-final"):
        c2.validate()


def test_circuit_requires_a_final_measurement():
    c = Circuit(2, bits_input("00"), (Gate(0, FSWAP),))
    with pytest.raises(ValidationError, match="final-measurement"):
        c.validate()


def test_input_width_must_match_line_count():
    c = Circuit(3, bits_input("00"), (_measure(0, "x"),))
    with pytest.raises(ValidationError, match="line-count"):
        c.validate()


# -- segment instantiation ----------------------------------------------------


def test_no_intermediates_gives_single_segment():
    gates = tuple(Gate(0, FSWAP) for _ in range(4))
    c = Circuit(2, bits_input("00"), gates + (_measure(0, "x"),)).validate()
    segs = instantiate_segments(c, {})
    assert len(segs) == 1 and len(segs[0]) == 4


def test_guarded_trailing_gate_resolves_per_outcome():
    prog = (
        Gate(0, FSWAP),
        _measure(0, "m1", "intermediate"),
        Gate(0, FSWAP, Guard(frozenset({"m1"}), 1)),
        _measure(1, "x"),
    )
    c = Circuit(2, bits_input("00"), prog).validate()
    segs0 = instantiate_segments(c, {"m1": 0})
    segs1 = instantiate_segments(c, {"m1": 1})
    assert len(segs0) == 2 and len(segs0[1]) == 0
    assert len(segs1) == 2 and len(segs1[1]) == 1


def test_unresolved_guard_raises():
    prog = (
        _measure(0, "m1", "intermediate"),
        Gate(0, FSWAP, Guard(frozenset({"m1"}), 1)),
        _measure(1, "x"),
    )
    c = Circuit(2, bits_input("00"), prog).validate()
    with pytest.raises(UnresolvedGuard):
        instantiate_segments(c, {})
    # prefix resolution is fine
    assert len(instantiate_segments(c, {}, upto=1)) == 1
    assert instantiate_segments(c, {}, upto=0) == []


def test_input_normalization_enforced():
    spec = InputSpec((MagicBlock(),))
    spec.validate()
    from matchsim.circuit import EntangledBlock

    bad = InputSpec((EntangledBlock(2, np.array([1.0, 1.0, 0, 0])),))
    with pytest.raises(ValidationError, match="input-norm"):
        bad.validate()


def test_swap_gadget_circuit_all_16_assignments_resolve_distinctly():
    # exhaustive enumeration: every outcome assignment yields its own
    # concrete gate sequence, all of which validate.  A gate application is
    # a line plus a matchgate: one XX_PAIR object serves both X corrections,
    # on different lines, so keying by the matchgate alone would merge
    # branches that differ only in where that XX_PAIR acts.
    from dataclasses import replace

    from matchsim.circuit import EntangledBlock, Macro
    from matchsim.gadgets import expand_macros

    alpha = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    c = Circuit(2, InputSpec((EntangledBlock(2, alpha),)),
                (Macro.make("swap", line=1),
                 Measure(0, "x0", "final"), Measure(1, "x1", "final")))
    gad, _ = expand_macros(c)
    finals = gad.measurements("final")
    recs = [m.record_id for m in gad.measurements("intermediate")]
    seqs = set()
    for bits in np.ndindex(2, 2, 2, 2):
        outcomes = dict(zip(recs, map(int, bits)))
        gates = [g for seg in instantiate_segments(gad, outcomes) for g in seg]
        seqs.add(tuple((g.line, id(g.gate)) for g in gates))
        unguarded = [replace(g, guard=None) for g in gates]
        Circuit(gad.n, gad.input, (*unguarded, *finals)).validate()
    assert len(seqs) == 16

"""Reference-simulator tests: exact evolution, branching, post-selection."""

import numpy as np
import pytest

from matchsim.circuit import (
    FSWAP,
    HADAMARD_PAIR,
    Circuit,
    EntangledBlock,
    Gate,
    Guard,
    InputSpec,
    BitsBlock,
    Macro,
    MagicBlock,
    Measure,
    ProductBlock,
    Tilted,
    bits_input,
)
from matchsim.errors import CapExceeded, ValidationError, ZeroConditionMass
from matchsim.oracle import (
    StateVector,
    branch_states,
    post_select,
    random_mg_circuit,
    run_exact,
    sample_distribution,
)
from helpers import fidelity_on_lines

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def test_identity_circuit_point_mass():
    c = Circuit(3, bits_input("011"),
                tuple(Measure(l, f"x{l}", "final") for l in range(3))).validate()
    dist = run_exact(c)
    assert len(dist.probs) == 1
    ((key, p),) = dist.probs.items()
    assert p == pytest.approx(1.0)
    assert dict(key) == {"x0": 0, "x1": 1, "x2": 1}


def test_fswap_swaps_basis_states():
    c = Circuit(2, bits_input("10"),
                (Gate(0, FSWAP), Measure(0, "a", "final"), Measure(1, "b", "final"))).validate()
    dist = run_exact(c)
    assert dist.probs[(("a", 0), ("b", 1))] == pytest.approx(1.0)


def test_hadamard_gadget_action_on_oracle():
    """G(H,H) on |0>|+> leaves the ancilla as |+> and Hadamards the target."""
    spec = InputSpec((BitsBlock("0"), ProductBlock((PLUS,))))
    c = Circuit(2, spec, (Gate(0, HADAMARD_PAIR),
                          Measure(0, "t", "final"), Measure(1, "a", "final"))).validate()
    dist = run_exact(c)
    # |+>|+> : all four outcomes at 1/4 (hand computation on 4 amplitudes)
    assert len(dist.probs) == 4
    for p in dist.probs.values():
        assert p == pytest.approx(0.25)
    # and the state is exactly |+>|+>
    state = StateVector.from_input(spec)
    state.apply_gate(HADAMARD_PAIR, 0)
    assert np.allclose(state.amps, np.full(4, 0.5))


def test_hadamard_gadget_on_random_target():
    rng = np.random.default_rng(2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    spec = InputSpec((ProductBlock((v,)), ProductBlock((PLUS,))))
    state = StateVector.from_input(spec)
    state.apply_gate(HADAMARD_PAIR, 0)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    want = np.kron(h @ v, PLUS)
    fid = abs(np.vdot(want, state.amps)) ** 2
    assert fid > 1 - 1e-12


def test_norm_preserved_by_random_gates():
    c = random_mg_circuit(5, 30, seed=17)
    state = StateVector.from_input(c.input)
    for ins in c.program:
        if isinstance(ins, Gate):
            state.apply_gate(ins.gate, ins.line)
            assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-10


def test_guarded_branching():
    # measure |+>, then flip line 1 into |1> only when outcome was 1 via X(x)X
    xgate = Gate(0, _xx())
    spec = InputSpec((ProductBlock((PLUS,)), BitsBlock("0")))
    prog = (
        Measure(0, "m", "intermediate"),
        Gate(0, _xx(), Guard(frozenset({"m"}), 1)),
        Measure(0, "a", "final"),
        Measure(1, "b", "final"),
    )
    c = Circuit(2, spec, prog).validate()
    dist = run_exact(c)
    # m=0: lines stay 00 ; m=1: X X flips both -> 01
    assert dist.probs[(("m", 0), ("a", 0), ("b", 0))] == pytest.approx(0.5)
    assert dist.probs[(("m", 1), ("a", 0), ("b", 1))] == pytest.approx(0.5)


def _xx():
    from matchsim.circuit import matchgate_from_components

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return matchgate_from_components(x, x)


def test_parity_superselection_on_random_circuits():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = 4
        blocks = (EntangledBlock(4, _random_even_state(rng)),)
        c = random_mg_circuit(n, 20, seed=100 + trial, input_spec=InputSpec(blocks))
        dist = run_exact(c)
        parities = set()
        for rec, p in dist.probs.items():
            if p > 1e-12:
                bits = [b for _, b in rec]
                parities.add(sum(bits) % 2)
        assert len(parities) == 1


def _random_even_state(rng):
    amps = np.zeros(16, dtype=complex)
    even = [i for i in range(16) if bin(i).count("1") % 2 == 0]
    vals = rng.normal(size=len(even)) + 1j * rng.normal(size=len(even))
    amps[even] = vals / np.linalg.norm(vals)
    return amps


def test_magic_input_distribution_even_support():
    c = Circuit(4, InputSpec((MagicBlock(),)),
                tuple(Measure(l, f"x{l}", "final") for l in range(4))).validate()
    dist = run_exact(c)
    assert len(dist.probs) == 4
    for rec, p in dist.probs.items():
        assert p == pytest.approx(0.25)
        assert sum(b for _, b in rec) % 2 == 0


def test_post_select_identity_and_zero_mass():
    c = random_mg_circuit(3, 10, seed=3, n_intermediate=1)
    dist = run_exact(c)
    same = post_select(dist, {})
    assert same.probs == dist.probs
    cond = post_select(dist, {"m0": 0})
    assert sum(cond.probs.values()) == pytest.approx(1.0)
    with pytest.raises(ZeroConditionMass):
        point = Circuit(1, bits_input("0"), (Measure(0, "x", "final"),)).validate()
        post_select(run_exact(point), {"x": 1})


def test_tilted_basis_measurement():
    # at x = pi/4 the basis is {|+>, |->}; measuring |0> gives 1/2 each,
    # and outcome 0 collapses onto |+>
    c = Circuit(1, bits_input("0"),
                (Measure(0, "m", "intermediate", Tilted(np.pi / 4)),
                 Measure(0, "x", "final"))).validate()
    dist = run_exact(c)
    assert dist.probability({"m": 0, "x": 0}) == pytest.approx(0.25)
    assert dist.probability({"m": 1, "x": 1}) == pytest.approx(0.25)
    # tilted x -> small: nearly computational
    c2 = Circuit(1, bits_input("0"),
                 (Measure(0, "m", "intermediate", Tilted(1e-4)),
                  Measure(0, "x", "final"))).validate()
    d2 = run_exact(c2)
    assert d2.probability({"m": 0}) == pytest.approx(1.0, abs=1e-7)


def test_final_followed_by_an_instruction_is_measured_where_it_stands():
    # line 0 reads 0 before X(x)X flips both lines
    probe = Circuit(2, bits_input("00"), (Measure(0, "x0", "final"), Gate(0, _xx()),
                                          Measure(1, "x1", "final"))).validate()
    assert run_exact(probe).probs == pytest.approx({(("x0", 0), ("x1", 1)): 1.0})
    # the computational final reads 0 before the tilted measurement rotates the line;
    # records list the intermediates first, then the finals
    tilted = Circuit(1, bits_input("0"), (Measure(0, "x", "final"),
                                          Measure(0, "m", "intermediate", Tilted(np.pi / 4)))
                     ).validate()
    assert run_exact(tilted).probs == pytest.approx(
        {(("m", 0), ("x", 0)): 0.5, (("m", 1), ("x", 0)): 0.5})


def test_fidelity_on_lines():
    spec = InputSpec((BitsBlock("0"), EntangledBlock(2, np.array([1, 0, 0, 1]) / np.sqrt(2)),))
    state = StateVector.from_input(spec)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert fidelity_on_lines(state, (1, 2), bell) == pytest.approx(1.0)
    assert fidelity_on_lines(state, (0,), np.array([1, 0])) == pytest.approx(1.0)
    # global phase invariance
    assert fidelity_on_lines(state, (1, 2), 1j * bell) == pytest.approx(1.0)


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        run_exact(random_mg_circuit(3, 2, seed=1), n_cap=2)
    with pytest.raises(CapExceeded):
        run_exact(random_mg_circuit(3, 2, seed=1, n_intermediate=21))


def test_random_circuit_determinism_and_validity():
    from matchsim.serialize import serialize_circuit

    a = random_mg_circuit(4, 25, seed=99, n_intermediate=2)
    b = random_mg_circuit(4, 25, seed=99, n_intermediate=2)
    assert serialize_circuit(a) == serialize_circuit(b)
    c = random_mg_circuit(4, 25, seed=100, n_intermediate=2)
    assert serialize_circuit(a) != serialize_circuit(c)


def test_random_circuit_gates_all_validate():
    # 1000 draws across several seeds parse and validate
    from matchsim.serialize import parse_circuit, serialize_circuit

    total = 0
    for seed in range(5):
        c = random_mg_circuit(5, 200, seed=seed)
        parse_circuit(serialize_circuit(c))
        total += len(c.gates())
    assert total == 1000


def test_depth_zero_circuit():
    c = random_mg_circuit(2, 0, seed=0)
    assert len(c.gates()) == 0
    dist = run_exact(c)
    assert sum(dist.probs.values()) == pytest.approx(1.0)


def test_sample_distribution_deterministic():
    c = random_mg_circuit(3, 10, seed=8, n_intermediate=1)
    dist = run_exact(c)
    keys1, index1 = sample_distribution(dist, 50, seed=5)
    keys2, index2 = sample_distribution(dist, 50, seed=5)
    assert keys1 == keys2 == sorted(dist.probs)
    assert np.array_equal(index1, index2) and len(index1) == 50


def test_branch_distribution_sums_to_one():
    for seed in range(4):
        spec = InputSpec((BitsBlock("01"), MagicBlock() if seed % 2 else BitsBlock("0011")))
        c = random_mg_circuit(6, 20, seed=seed, n_intermediate=2, input_spec=spec)
        dist = run_exact(c)
        assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("macro", [Macro.make("swap", line=1),
                                   Macro.make("hadamard", target=1, ancilla=2)],
                         ids=["swap", "hadamard"])
def test_oracle_rejects_every_macro(macro):
    c = Circuit(2, bits_input("10"), (Gate(0, FSWAP), macro, Measure(0, "x", "final")))
    with pytest.raises(ValidationError, match="unexpanded macros"):
        run_exact(c)

"""Gadget-expansion correctness on the dense oracle, quantified over all
adaptive branches with nonzero probability."""

import contextlib
import io
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchsim.circuit import (
    BitsBlock,
    Circuit,
    EntangledBlock,
    Gate,
    InputSpec,
    Macro,
    MagicBlock,
    MatchgateAngles,
    Measure,
    ProductBlock,
    bits_input,
    matchgate_from_angles,
    matchgate_from_components,
)
from matchsim.cli import main
from matchsim.errors import UnsupportedLayout
from matchsim.gadgets import (
    H2,
    GadgetCost,
    IdGen,
    PLUS,
    SWAP_CORRECTIONS,
    XX_PAIR,
    Z_LOWER,
    Z_UPPER,
    compile_circuit,
    compile_input,
    expand_macros,
    fswap_ladder,
    hadamard_gadget,
    plus_state_gadget,
    prepare_two_qubit_inputs,
    single_qubit_unitary,
    toffoli_gadget,
    two_qubit_unitary,
)
from matchsim.oracle import DEFAULT_N_CAP, StateVector, branch_states, post_select, run_exact
from matchsim.serialize import matrix2json, serialize_circuit
from helpers import (
    SWAP,
    MaxAttemptsExceeded,
    added_records,
    default_plus_attempts,
    fidelity_on_lines,
    macro_reference,
    plus_gadget_success_probability,
    prepare_layout_input,
    run_plus_state_gadget,
)

RNG = np.random.default_rng(77)


def random_state(dim, rng=RNG):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def apply_expansion(exp, spec):
    state = StateVector.from_input(spec)
    for ins in exp.instructions:
        if isinstance(ins, Gate):
            state.apply_gate(ins.gate, ins.line)
        else:
            raise AssertionError("expansion has measurements; use branch checks")
    return state


def branch_fidelities(circuit, lines, target):
    for records, prob, state in branch_states(circuit):
        yield records, prob, fidelity_on_lines(state, lines, target)


def expansion_circuit(exp, spec, n=None):
    prog = tuple(exp.instructions) + (Measure(0, "zz_final", "final"),)
    return Circuit(n or spec.n, spec, prog).validate()


# -- fswap ladders --------------------------------------------------------------


def test_fswap_ladder_trivial():
    assert fswap_ladder(2, 2).instructions == []


def test_fswap_ladder_moves_a_one_across_zeros():
    exp = fswap_ladder(0, 2)
    st = apply_expansion(exp, InputSpec((BitsBlock("100"),)))
    assert fidelity_on_lines(st, (0, 1, 2), np.eye(8)[0b001]) == pytest.approx(1.0)


def test_fswap_ladder_bell_half_roundtrip():
    # move one qubit of a Bell pair across 3 arbitrary lines and back
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    others = tuple(random_state(2) for _ in range(3))
    spec = InputSpec((EntangledBlock(2, bell), ProductBlock(others)))
    forward = fswap_ladder(1, 4)
    back = fswap_ladder(4, 1)
    st = apply_expansion(forward, spec)
    target = spec.state()
    # after the round trip the original state is restored exactly
    exp_all = fswap_ladder(1, 4)
    exp_all.extend(back)
    st2 = apply_expansion(exp_all, spec)
    assert fidelity_on_lines(st2, tuple(range(5)), target) == pytest.approx(1.0)
    # forward alone relocates the half (up to fermionic signs): check norm
    assert abs(np.linalg.norm(st.amps) - 1) < 1e-12


# -- hadamard / single-qubit / two-qubit ----------------------------------------


def test_hadamard_gadget_on_basis_targets():
    for start, want in (("0", PLUS), ("1", np.array([1, -1]) / np.sqrt(2))):
        spec = InputSpec((BitsBlock(start), ProductBlock((PLUS,))))
        st = apply_expansion(hadamard_gadget(0, 1), spec)
        assert fidelity_on_lines(st, (0,), want) > 1 - 1e-12
        assert fidelity_on_lines(st, (1,), PLUS) > 1 - 1e-12


def test_hadamard_gadget_involution_and_random():
    spec = InputSpec((ProductBlock((PLUS,)), ProductBlock((PLUS,))))
    exp = hadamard_gadget(0, 1)
    exp.extend(hadamard_gadget(0, 1))
    st = apply_expansion(exp, spec)
    assert fidelity_on_lines(st, (0,), PLUS) > 1 - 1e-12
    for _ in range(5):
        v = random_state(2)
        spec = InputSpec((ProductBlock((v,)), ProductBlock((PLUS,))))
        st = apply_expansion(hadamard_gadget(0, 1), spec)
        assert fidelity_on_lines(st, (0,), H2 @ v) > 1 - 1e-10


def test_single_qubit_unitary_cases():
    z = np.diag([1.0, -1.0]).astype(complex)
    for u, max_h in ((z, 0), (H2, 1), (random_unitary(2), 2)):
        v = random_state(2)
        spec = InputSpec((ProductBlock((v,)), ProductBlock((PLUS,))))
        exp = single_qubit_unitary(0, u, 1)
        n_h = sum(1 for i in exp.instructions
                  if isinstance(i, Gate) and abs(i.gate.a[0, 1]) > 0.5)
        assert n_h <= max_h
        st = apply_expansion(exp, spec)
        assert fidelity_on_lines(st, (0,), u @ v) > 1 - 1e-9
        assert fidelity_on_lines(st, (1,), PLUS) > 1 - 1e-9


def test_two_qubit_unitary_cases():
    from matchsim.gadgets import xx_yy_gate

    cz = np.diag([1, 1, 1, -1]).astype(complex)
    cases = [(xx_yy_gate(0.4, -0.9).matrix(), 1), (cz, None), (random_unitary(4), None)]
    for u, expect_gates in cases:
        v = random_state(4)
        spec = InputSpec((ProductBlock((PLUS,)), EntangledBlock(2, v), ProductBlock((PLUS,))))
        exp = two_qubit_unitary(1, u, 0, 3)
        if expect_gates is not None:
            assert exp.cost.gates == expect_gates
        st = apply_expansion(exp, spec)
        assert fidelity_on_lines(st, (1, 2), u @ v) > 1 - 1e-8
        assert fidelity_on_lines(st, (0,), PLUS) > 1 - 1e-9
        assert fidelity_on_lines(st, (3,), PLUS) > 1 - 1e-9


def test_cz_truth_table_via_gadgets():
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for b in range(4):
        v = np.zeros(4, dtype=complex)
        v[b] = 1
        spec = InputSpec((ProductBlock((PLUS,)), EntangledBlock(2, v), ProductBlock((PLUS,))))
        st = apply_expansion(two_qubit_unitary(1, cz, 0, 3), spec)
        assert fidelity_on_lines(st, (1, 2), cz @ v) > 1 - 1e-8


# -- pair preparation ------------------------------------------------------------


def _run_prepare(patterns):
    exp = prepare_two_qubit_inputs(patterns, IdGen())
    spec = prepare_layout_input(patterns)
    prog = tuple(exp.instructions) + (Measure(0, "x0", "final"),)
    return Circuit(spec.n, spec, prog).validate()


def test_prepare_identity_pattern_trivial():
    patterns = [np.array([1, 0, 0, 0], dtype=complex)] * 2
    c = _run_prepare(patterns)
    target = np.zeros(16, dtype=complex)
    target[0] = 1
    for records, prob, fid in branch_fidelities(c, (0, 1, 2, 3), target):
        assert fid > 1 - 1e-8


def test_prepare_bell_pair_all_branches():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    c = _run_prepare([bell])
    for records, prob, fid in branch_fidelities(c, (0, 1), bell):
        assert fid > 1 - 1e-8


def test_prepare_two_random_pairs_all_branches():
    pats = [random_state(4), random_state(4)]
    c = _run_prepare(pats)
    target = np.kron(pats[0], pats[1])
    for records, prob, fid in branch_fidelities(c, (0, 1, 2, 3), target):
        assert fid > 1 - 1e-8


# -- swap gadget ------------------------------------------------------------------


def _swap_macro_circuit(alpha, post=False):
    """The expanded one-SWAP circuit and the four records its gadget added."""
    spec = InputSpec((EntangledBlock(2, alpha),))
    prog = (Macro.make("swap", line=1),
            Measure(0, "x0", "final"), Measure(1, "x1", "final"))
    c = Circuit(2, spec, prog)
    out, _ = expand_macros(c, post_selected_swaps=post)
    return out, added_records(c, out, "final" if post else "intermediate")


def test_swap_gadget_basis_and_symmetric_states():
    c, _ = _swap_macro_circuit(np.array([0, 0, 1, 0], dtype=complex))
    want = np.array([0, 1, 0, 0])
    count = 0
    for records, prob, fid in branch_fidelities(c, (0, 1), want):
        assert fid > 1 - 1e-9
        count += 1
    assert count == 16
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    c, _ = _swap_macro_circuit(bell)
    for records, prob, fid in branch_fidelities(c, (0, 1), bell):
        assert fid > 1 - 1e-9


def test_swap_gadget_random_states_all_branches():
    for _ in range(3):
        alpha = random_state(4)
        c, _ = _swap_macro_circuit(alpha)
        for records, prob, fid in branch_fidelities(c, (0, 1), SWAP @ alpha):
            assert fid > 1 - 1e-9


def test_swap_gadget_resource_accounting():
    alpha = random_state(4)
    c, recs = _swap_macro_circuit(alpha)
    assert c.n == 6  # +4 ancilla lines
    assert sum(1 for b in c.input.blocks if isinstance(b, MagicBlock)) == 1
    assert len(c.measurements("intermediate")) == 4
    assert len(recs) == 4


def test_swap_gadget_cost_ledger():
    # each gadget records its own cost; the expansion sums them under "swap"
    spec = InputSpec((BitsBlock("100"),))
    prog = (Macro.make("swap", line=1), Macro.make("swap", line=2), Measure(0, "x0", "final"))
    for post in (False, True):
        out, report = expand_macros(Circuit(3, spec, prog), post_selected_swaps=post)
        assert report == {"swap": GadgetCost(gates=len(out.gates()), measurements=8,
                                             ancilla_lines=8, magic_consumed=2)}
        assert out.n == 3 + 8 and len(out.measurements()) == 1 + 8
        # post-selected, the gadget records are finals after the circuit's own
        assert [m.role for m in out.measurements() if m.record_id != "x0"] == (
            ["final" if post else "intermediate"] * 8)
        assert out.program[-9 if post else -1].record_id == "x0"


def test_swap_correction_table_regression():
    """Re-derive the frozen Pauli-correction table by oracle search."""
    zz = Z_UPPER
    z2 = Z_LOWER

    def run_branch(alpha, branch, corrections):
        from matchsim.circuit import FSWAP, HADAMARD_PAIR

        spec = InputSpec((EntangledBlock(2, alpha), MagicBlock()))
        st = StateVector.from_input(spec)
        for i in (1, 2, 3, 4):
            st.apply_gate(FSWAP, i)
        st.apply_gate(HADAMARD_PAIR, 0)
        p = st.collapse(0, branch[0])
        p *= st.collapse(1, branch[1])
        st.apply_gate(HADAMARD_PAIR, 4)
        p *= st.collapse(4, branch[2])
        p *= st.collapse(5, branch[3])
        x2, zz2, x3, zz3 = corrections
        if x2:
            st.apply_gate(XX_PAIR, 1)
        if zz2:
            st.apply_gate(zz, 2)
        if x3:
            st.apply_gate(XX_PAIR, 3)
        if zz3:
            st.apply_gate(z2, 2)
        return p, st

    alphas = [random_state(4) for _ in range(3)]
    derived = {}
    for branch in product((0, 1), repeat=4):
        valid = []
        for corr in product((0, 1), repeat=4):
            if all(fidelity_on_lines(run_branch(a, branch, corr)[1], (2, 3), SWAP @ a) > 1 - 1e-9
                   for a in alphas):
                valid.append(corr)
        assert len(valid) == 1, (branch, valid)
        derived[branch] = valid[0]
    # the frozen table: each correction bit is the parity of a record subset
    for idx, (*_, subset) in enumerate(SWAP_CORRECTIONS):
        for branch, corr in derived.items():
            assert corr[idx] == (sum(branch[i] for i in subset) % 2)


def test_gadgetize_postselected_identity():
    alpha = random_state(4)
    orig = Circuit(2, InputSpec((EntangledBlock(2, alpha),)),
                   (Macro.make("swap", line=1),
                    Measure(0, "x0", "final"), Measure(1, "x1", "final")))
    want = macro_reference(orig)
    cp, recs = _swap_macro_circuit(alpha, post=True)
    assert len(cp.measurements("intermediate")) == 0
    cond = post_select(run_exact(cp), {r: 0 for r in recs}).marginal(["x0", "x1"])
    for key in set(want) | set(cond):
        assert abs(want.get(key, 0.0) - cond.get(key, 0.0)) < 1e-8


def test_gadgetize_swap_in_larger_circuit_with_following_gates():
    # a swap mid-circuit, gates after it, trailing lines below the pair
    from matchsim.circuit import FSWAP

    alpha = random_state(4)
    spec = InputSpec((BitsBlock("1"), EntangledBlock(2, alpha), BitsBlock("0")))
    prog = (Gate(0, FSWAP), Macro.make("swap", line=2), Gate(2, FSWAP),
            Measure(0, "x0", "final"), Measure(1, "x1", "final"),
            Measure(2, "x2", "final"), Measure(3, "x3", "final"))
    orig = Circuit(4, spec, prog)
    want = macro_reference(orig)
    gad, _ = expand_macros(orig)
    marg = run_exact(gad).marginal(["x0", "x1", "x2", "x3"])
    for key in set(want) | set(marg):
        assert abs(want.get(key, 0.0) - marg.get(key, 0.0)) < 1e-8


# -- toffoli ----------------------------------------------------------------------


def test_toffoli_truth_table():
    for b in range(8):
        bits = format(b, "03b")
        exp = toffoli_gadget(0, 3, IdGen())
        c = Circuit(4, InputSpec((BitsBlock(bits + "0"),)),
                    tuple(exp.instructions)
                    + tuple(Measure(l, f"x{l}", "final") for l in range(3))).validate()
        marg = run_exact(c).marginal(["x0", "x1", "x2"])
        want = (int(bits[0]), int(bits[1]),
                int(bits[2]) ^ (int(bits[0]) & int(bits[1])))
        assert marg.get(want, 0.0) == pytest.approx(1.0, abs=1e-10), bits


# -- plus-state gadget --------------------------------------------------------------


def test_plus_gadget_success_probability_formula():
    # P(m=0 | matched tilt outcomes) equals sin^2(2x) on the oracle
    for x in (np.pi / 4, np.pi / 8, np.pi / 16, np.pi / 32):
        exp, (t1, t2, m) = plus_state_gadget(x, 0, 1, IdGen())
        circ = Circuit(2, bits_input("00"),
                       tuple(exp.instructions) + (Measure(1, "xf", "final"),)).validate()
        dist = run_exact(circ)
        p_match = sum(p for rec, p in dist.probs.items()
                      if dict(rec)[t1] == dict(rec)[t2])
        p_succ = sum(p for rec, p in dist.probs.items()
                     if dict(rec)[t1] == dict(rec)[t2] and dict(rec)[m] == 0)
        assert abs(p_succ / p_match - plus_gadget_success_probability(x)) < 1e-9


def test_plus_gadget_conditional_state_is_plus():
    for x in (np.pi / 4, np.pi / 12, np.pi / 32):
        exp, (t1, t2, m) = plus_state_gadget(x, 0, 1, IdGen())
        circ = Circuit(2, bits_input("00"),
                       tuple(exp.instructions) + (Measure(1, "xf", "final"),)).validate()
        for records, prob, state in branch_states(circ):
            d = dict(records)
            if d[t1] == d[t2] and d[m] == 0 and prob > 1e-12:
                assert fidelity_on_lines(state, (1,), PLUS) > 1 - 1e-9


def test_plus_gadget_driver_and_budget():
    attempts, st = run_plus_state_gadget(np.pi / 16, seed=11)
    assert fidelity_on_lines(st, (1,), PLUS) > 1 - 1e-9
    assert attempts <= default_plus_attempts(np.pi / 16)
    with pytest.raises(MaxAttemptsExceeded) as exc:
        run_plus_state_gadget(np.pi / 32, seed=0, max_attempts=0)
    assert exc.value.success_bound == pytest.approx(0.0)


# -- input compilation ---------------------------------------------------------------


def test_compile_bits_passthrough():
    exp, canon = compile_input(InputSpec((BitsBlock("0101"),)))
    assert exp.instructions == []
    assert canon.blocks[0].bits == "0101"


def test_compile_product_spec_all_branches():
    states = tuple(random_state(2) for _ in range(5))
    spec = InputSpec((ProductBlock(states),))
    exp, canon = compile_input(spec)
    c = Circuit(canon.n, canon,
                tuple(exp.instructions) + (Measure(0, "xf", "final"),)).validate()
    target = spec.state()
    for records, prob, fid in branch_fidelities(c, tuple(range(5)), target):
        assert fid > 1 - 1e-8


def test_compile_bits_plus_bell_pair():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    spec = InputSpec((BitsBlock("10"), EntangledBlock(2, bell)))
    exp, canon = compile_input(spec)
    c = Circuit(canon.n, canon,
                tuple(exp.instructions) + (Measure(0, "xf", "final"),)).validate()
    target = spec.state()
    for records, prob, fid in branch_fidelities(c, tuple(range(4)), target):
        assert fid > 1 - 1e-8


def test_compile_rejects_nontrailing_wide_block():
    spec = InputSpec((MagicBlock(), BitsBlock("0")))
    with pytest.raises(UnsupportedLayout):
        compile_input(spec)


def test_compile_circuit_preserves_distribution():
    spec = InputSpec((ProductBlock((random_state(2), random_state(2))), BitsBlock("1")))
    c = Circuit(3, spec, tuple(Measure(l, f"x{l}", "final") for l in range(3))).validate()
    compiled, _ = compile_circuit(c)
    d1 = run_exact(c)
    d2 = run_exact(compiled)
    marg = d2.marginal(["x0", "x1", "x2"])
    for rec, p in d1.probs.items():
        key = tuple(dict(rec)[f"x{j}"] for j in range(3))
        assert abs(p - marg.get(key, 0.0)) < 1e-8


# -- macro expansion ------------------------------------------------------------------


def test_expand_macro_free_circuit_unchanged():
    c = Circuit(2, bits_input("01"), (Measure(0, "x", "final"),)).validate()
    out, report = expand_macros(c)
    assert out.program == c.program and report == {}


def test_expansions_validate_and_reparse():
    from matchsim.serialize import parse_circuit

    pats = [random_state(4)]
    spec = prepare_layout_input(pats)
    macro = Macro.make("prepare_two_qubit_inputs", patterns=matrix2json(np.array(pats)))
    out, report = expand_macros(Circuit(spec.n, spec, (macro, Measure(0, "xf", "final"))))
    out.validate()
    assert not out.has_macros()
    assert parse_circuit(serialize_circuit(out)).n == out.n
    # the pair unitaries' gates count under the macro the circuit names
    assert list(report) == ["prepare_two_qubit_inputs"]
    assert report["prepare_two_qubit_inputs"].gates == len(out.gates())


# -- macro semantics ------------------------------------------------------------------


def _placements(lay):
    """0-based line tuples at which each macro with a dense reference can act
    on the layout ``lay``, one letter per line: "d" data, "+" a |+> ancilla.
    Swaps may move an ancilla, toffolis may target one (X|+> = |+>)."""
    m = len(lay)
    beside = [(t, a) for t in range(m) for a in (t - 1, t + 1)
              if lay[t] == "d" and 0 <= a < m and lay[a] == "+"]
    return {
        "hadamard": beside,
        "single_qubit_unitary": beside,
        "two_qubit_unitary": [(i,) for i in range(1, m - 2) if lay[i - 1:i + 3] == "+dd+"],
        "toffoli": [(i,) for i in range(m - 2) if lay[i:i + 2] == "dd"],
        "swap": [(i,) for i in range(m - 1)],
    }


@st.composite
def _macro_circuits(draw):
    """1-3 macros, at most two of them swaps, interleaved with random
    matchgates on neighbouring data lines, on a layout of data lines in
    random states and |+> lines, whose expansion has at most DEFAULT_N_CAP
    lines.  Macros may act on the toffoli ancillas; gates and the finals,
    which measure every line, stay on the circuit's own lines, as in a
    file."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lay = "".join(draw(st.lists(st.sampled_from(["+dd+", "ddd", "d+", "+d"]), min_size=1,
                                max_size=2)))
    spec = InputSpec((ProductBlock(tuple(PLUS if c == "+" else random_state(2, rng)
                                         for c in lay)),))
    n, swaps, program = len(lay), 0, []
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(0, 2))):
            pairs = [i for i in range(n - 1) if lay[i:i + 2] == "dd"]
            if pairs:
                angles = MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6))
                program.append(Gate(draw(st.sampled_from(pairs)), matchgate_from_angles(angles)))
        # the expansion has len(lay) + 4 * swaps lines; each adaptive swap
        # gadget multiplies the oracle's branches by 16, so at most two
        room = DEFAULT_N_CAP - len(lay) - 4 * swaps
        spots = {k: v for k, v in _placements(lay).items()
                 if v and room >= {"toffoli": 1, "swap": 4}.get(k, 0)
                 and not (k == "swap" and swaps == 2)}
        if not spots:
            break
        name = draw(st.sampled_from(sorted(spots)))
        at = draw(st.sampled_from(spots[name]))
        if name in ("hadamard", "single_qubit_unitary"):
            params = {"target": at[0] + 1, "ancilla": at[1] + 1}
            if name == "single_qubit_unitary":
                params["matrix"] = matrix2json(random_unitary(2, rng))
        elif name == "two_qubit_unitary":
            params = {"line": at[0] + 1, "ancilla_above": at[0], "ancilla_below": at[0] + 3,
                      "matrix": matrix2json(random_unitary(4, rng))}
        else:
            params = {"line": at[0] + 1}
        if name == "swap":
            lay = lay[:at[0]] + lay[at[0] + 1] + lay[at[0]] + lay[at[0] + 2:]
            swaps += 1
        if name == "toffoli":
            lay += "d"
        program.append(Macro.make(name, **params))
    program.extend(Measure(l, f"x{l}", "final") for l in range(n))
    return Circuit(spec.n, spec, tuple(program))


def _assert_close(want, got):
    for key in set(want) | set(got):
        assert abs(want.get(key, 0.0) - got.get(key, 0.0)) < 1e-8, key


@settings(max_examples=40, deadline=None)
@given(circuit=_macro_circuits())
def test_macro_expansion_matches_the_dense_reference(circuit):
    want = macro_reference(circuit)
    finals = [m.record_id for m in circuit.measurements("final")]
    adaptive, _ = expand_macros(circuit)
    _assert_close(want, run_exact(adaptive.validate()).marginal(finals))
    post, _ = expand_macros(circuit, post_selected_swaps=True)
    swap_records = {r: 0 for r in added_records(circuit, post, "final")}
    _assert_close(want, post_select(run_exact(post.validate()), swap_records).marginal(finals))


# the largest value of each line key: the register as it stands, less the
# lines the macro needs below that line
_LINE_KEYS = {
    "hadamard": {"target": 0, "ancilla": 0},
    "single_qubit_unitary": {"target": 0, "ancilla": 0},
    "two_qubit_unitary": {"line": 1, "ancilla_above": 0, "ancilla_below": 0},
    "toffoli": {"line": 2},
    "swap": {"line": 1},
}


@settings(max_examples=100, deadline=None)
@given(circuit=_macro_circuits(), data=st.data())
def test_macro_lines_beyond_the_register_exit_2(circuit, data):
    macros = [i for i, ins in enumerate(circuit.program) if isinstance(ins, Macro)]
    j = data.draw(st.sampled_from(macros))
    ins = circuit.program[j]
    standing = circuit.n + sum(circuit.program[i].name == "toffoli" for i in macros if i < j)
    key = data.draw(st.sampled_from(sorted(_LINE_KEYS[ins.name])))
    value = standing - _LINE_KEYS[ins.name][key] + data.draw(st.integers(1, 3))
    bad = Macro.make(ins.name, **{**dict(ins.params), key: value})
    # toffolis before the finals, whose ancillas would make up the lines named
    finals = len(circuit.measurements("final"))
    program = (circuit.program[:j] + (bad,) + circuit.program[j + 1:-finals]
               + (Macro.make("toffoli", line=1),) * 3 + circuit.program[-finals:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "macro.json"
        path.write_text(serialize_circuit(Circuit(circuit.n, circuit.input, program)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["gadget", "expand", str(path)]) == 2
    assert out.getvalue() == ""

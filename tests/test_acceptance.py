"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from collections import Counter
from itertools import product

import numpy as np
import pytest

from matchsim.circuit import (
    BitsBlock,
    Circuit,
    EntangledBlock,
    InputSpec,
    Macro,
    MagicBlock,
    Measure,
    ProductBlock,
    bits_input,
)
from matchsim.gadgets import (
    IdGen,
    PLUS,
    compile_circuit,
    plus_state_gadget,
    prepare_two_qubit_inputs,
    expand_macros,
)
from matchsim.heisenberg import joint_prob_few_adaptive
from matchsim.oracle import branch_states, post_select, random_mg_circuit, run_exact
from matchsim.pfaffian import (
    ChainRuleSampler,
    EvalStats,
    joint_prob_entangled,
    pfaffian,
    sample_many,
)
from helpers import (
    SWAP,
    added_records,
    fidelity_on_lines,
    macro_reference,
    pfaffian_brute,
    plus_gadget_success_probability,
    prepare_layout_input,
)

RNG = np.random.default_rng(20260810)


def _random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _suite_circuit(idx, rng):
    """Random circuit #idx: inputs cycle bits / product / 2q-block / magic."""
    kind = ("bits", "product", "pair", "magic")[idx % 4]
    k_inter = int(rng.integers(0, 5)) if kind != "magic" else int(rng.integers(0, 3))
    depth = int(rng.integers(10, 61))
    if kind == "bits":
        n = int(rng.integers(3, 9))
        spec = InputSpec((BitsBlock("".join(rng.choice(["0", "1"], size=n))),))
    elif kind == "product":
        n = int(rng.integers(3, 8))
        states = tuple(_random_state(2, rng) for _ in range(n))
        spec = InputSpec((ProductBlock(states),))
    elif kind == "pair":
        n = int(rng.integers(4, 8))
        pos = int(rng.integers(0, n - 1))
        blocks = []
        if pos:
            blocks.append(BitsBlock("".join(rng.choice(["0", "1"], size=pos))))
        blocks.append(EntangledBlock(2, _random_state(4, rng)))
        if n - pos - 2:
            blocks.append(BitsBlock("".join(rng.choice(["0", "1"], size=n - pos - 2))))
        spec = InputSpec(tuple(blocks))
    else:
        n = int(rng.integers(5, 8))
        blocks = [BitsBlock("".join(rng.choice(["0", "1"], size=n - 4))), MagicBlock()]
        spec = InputSpec(tuple(blocks))
    n_final = int(rng.integers(2, 4))
    final_lines = sorted(rng.choice(n, size=min(n_final, n), replace=False).tolist())
    return random_mg_circuit(n, depth, seed=90000 + idx, n_intermediate=k_inter,
                             input_spec=spec, final_lines=final_lines)


def _sampled_counts(circuit, records, shots, seed):
    """Chain-rule samples of ``circuit``, counted by their bits on
    ``records``."""
    keys, leaf = sample_many(circuit, shots, seed, sampler=ChainRuleSampler(circuit))
    counts = Counter()
    for key, k in zip(keys, np.bincount(leaf).tolist()):
        bits = dict(key)
        counts[tuple(bits[r] for r in records)] += k
    return dict(counts)


def test_acceptance_1_differential_equivalence():
    """200 random circuits: every applicable backend matches the oracle joint
    within 1e-7 and the weak sampler is within TV 0.01 at 1e5 shots."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_joint = 0.0
    worst_tv = 0.0
    shots = 100_000
    for idx in range(200):
        circuit = _suite_circuit(idx, rng)
        compiled, _ = compile_circuit(circuit)
        dist = run_exact(compiled)
        # pfaffian joint vs oracle on the compiled circuit
        total = 0.0
        for rec, p in dist.probs.items():
            q = joint_prob_entangled(compiled, dict(rec))
            worst_joint = max(worst_joint, abs(p - q))
            total += q
        worst_joint = max(worst_joint, abs(total - 1.0))
        # heisenberg joint vs oracle on the original circuit, where applicable
        k = len(circuit.measurements("intermediate"))
        if k <= 2:
            d_orig = run_exact(circuit) if compiled.n != circuit.n else dist
            for rec, p in d_orig.probs.items():
                q = joint_prob_few_adaptive(circuit, dict(rec))
                worst_joint = max(worst_joint, abs(p - q))
        # weak sampling TV on the final-outcome marginal (every 10th circuit,
        # keeping the suite within its runtime budget)
        if idx % 10 == 0:
            finals = [m.record_id for m in compiled.measurements("final")]
            counts = _sampled_counts(compiled, finals, shots, seed=5000 + idx)
            marg = dist.marginal(finals)
            keys = set(counts) | set(marg)
            tv = 0.5 * sum(abs(counts.get(key, 0) / shots - marg.get(key, 0.0))
                           for key in keys)
            worst_tv = max(worst_tv, tv)
    wall = time.time() - t0
    assert worst_joint < 1e-7
    assert worst_tv < 0.01
    assert wall < 600
    print(f"\nPASS criterion 1: 200 circuits, max joint dev {worst_joint:.2e}, "
          f"max sampler TV {worst_tv:.4f}, wall {wall:.0f}s")


def test_acceptance_2_pfaffian_kernel():
    """Pf(A)^2 = det(A) within relative 1e-8 on 1000 random skew matrices up
    to 30x30; 2x2 and 4x4 closed forms exact to 1e-12."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(1000):
        d = 2 * int(rng.integers(1, 16))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a - a.T
        pf = pfaffian(a)
        det = np.linalg.det(a)
        worst = max(worst, abs(pf ** 2 - det) / max(abs(det), 1e-300))
    assert worst < 1e-8
    worst_closed = 0.0
    for trial in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a - a.T
        worst_closed = max(worst_closed, abs(pfaffian(a) - a[0, 1]))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = b - b.T
        closed = b[0, 1] * b[2, 3] - b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2]
        worst_closed = max(worst_closed, abs(pfaffian(b) - closed))
        worst_closed = max(worst_closed, abs(pfaffian_brute(b) - closed))
    assert worst_closed < 1e-12
    print(f"\nPASS criterion 2: Pf^2=det rel err {worst:.2e}, "
          f"closed forms {worst_closed:.2e}")


def test_acceptance_3_cost_law():
    """Heisenberg summand total equals (2n)^(4k+2) exactly for one final
    line, k in {0,1,2}, n in {3..6}."""
    for n in range(3, 7):
        for k in (0, 1, 2):
            c = random_mg_circuit(n, 10, seed=3000 + 10 * n + k, n_intermediate=k,
                                  final_lines=[n - 1])
            oc = {f"m{j}": 0 for j in range(k)}
            oc["x0"] = 1
            stats = EvalStats()
            joint_prob_few_adaptive(c, oc, stats=stats)
            assert stats.term_count == (2 * n) ** (4 * k + 2), (n, k)
    print("\nPASS criterion 3: summand totals equal (2n)^(4k+2) "
          "for k in {0,1,2}, n in {3..6}")


def test_acceptance_4_cross_term_pruning():
    """|M> input (k=4): evaluated (w,w') pairs <= 2^(2k)/2 after parity
    pruning, results matching the oracle within 1e-8."""
    rng = np.random.default_rng(4)
    cap = 2 ** 8 // 2
    worst = 0.0
    worst_pairs = 0
    for trial in range(5):
        n = 6
        spec = InputSpec((BitsBlock("".join(rng.choice(["0", "1"], size=2))), MagicBlock()))
        c = random_mg_circuit(n, 25, seed=4000 + trial, n_intermediate=trial % 3,
                              input_spec=spec, final_lines=[0, 3])
        dist = run_exact(c)
        for rec, p in dist.probs.items():
            stats = EvalStats()
            q = joint_prob_entangled(c, dict(rec), stats)
            worst = max(worst, abs(p - q))
            worst_pairs = max(worst_pairs, stats.evaluated_pairs)
    assert worst_pairs <= cap
    assert worst < 1e-8
    print(f"\nPASS criterion 4: pairs evaluated {worst_pairs} <= {cap}, "
          f"max dev {worst:.2e}")


def test_acceptance_5_swap_gadget():
    """20 random 2-qubit states, all 16 adaptive branches: output fidelity
    with SWAP|alpha> >= 1 - 1e-9; exactly one |M> consumed per use."""
    rng = np.random.default_rng(5)
    worst = 1.0
    for trial in range(20):
        alpha = _random_state(4, rng)
        c = Circuit(2, InputSpec((EntangledBlock(2, alpha),)),
                    (Macro.make("swap", line=1),
                     Measure(0, "x0", "final"), Measure(1, "x1", "final")))
        gad, _ = expand_macros(c)
        assert sum(1 for b in gad.input.blocks if isinstance(b, MagicBlock)) == 1
        assert len(added_records(c, gad, "intermediate")) == 4
        want = SWAP @ alpha
        branches = 0
        for records, prob, state in branch_states(gad):
            worst = min(worst, fidelity_on_lines(state, (0, 1), want))
            branches += 1
        assert branches == 16
    assert worst >= 1 - 1e-9
    print(f"\nPASS criterion 5: 20 states x 16 branches, worst fidelity "
          f"{worst:.12f}, one magic block per use")


def test_acceptance_6_plus_state_gadget():
    """Per-attempt success probability equals sin^2(2x) within 1e-9 for
    x in {pi/4, pi/8, pi/16, pi/32}; conditional output fidelity with |+>
    >= 1 - 1e-9."""
    worst_p = 0.0
    worst_f = 1.0
    for x in (np.pi / 4, np.pi / 8, np.pi / 16, np.pi / 32):
        exp, (t1, t2, m) = plus_state_gadget(x, 0, 1, IdGen())
        circ = Circuit(2, bits_input("00"),
                       tuple(exp.instructions) + (Measure(1, "xf", "final"),)).validate()
        dist = run_exact(circ)
        p_match = dist_match = 0.0
        p_succ = 0.0
        for rec, p in dist.probs.items():
            d = dict(rec)
            if d[t1] == d[t2]:
                p_match += p
                if d[m] == 0:
                    p_succ += p
        worst_p = max(worst_p, abs(p_succ / p_match - plus_gadget_success_probability(x)))
        for records, prob, state in branch_states(circ):
            d = dict(records)
            if d[t1] == d[t2] and d[m] == 0 and prob > 1e-12:
                worst_f = min(worst_f, fidelity_on_lines(state, (1,), PLUS))
    assert worst_p < 1e-9
    assert worst_f >= 1 - 1e-9
    print(f"\nPASS criterion 6: success-probability dev {worst_p:.2e}, "
          f"conditional fidelity {worst_f:.12f}")


def test_acceptance_7_two_qubit_input_preparation():
    """20 random neighbouring-pair patterns on n=6 computational lines:
    oracle fidelity >= 1 - 1e-8 on every branch, then pfaffian weak sampling
    of the compiled circuit within TV 0.01 of the oracle at 1e5 shots."""
    rng = np.random.default_rng(7)
    worst_f = 1.0
    worst_tv = 0.0
    shots = 100_000
    for trial in range(20):
        patterns = [_random_state(4, rng) for _ in range(3)]
        exp = prepare_two_qubit_inputs(patterns, IdGen())
        spec = prepare_layout_input(patterns)
        finals = tuple(Measure(l, f"x{l}", "final") for l in range(4))
        circ = Circuit(spec.n, spec, tuple(exp.instructions) + finals)
        circ, _ = expand_macros(circ)
        circ.validate()
        target = np.kron(np.kron(patterns[0], patterns[1]), patterns[2])
        for records, prob, state in branch_states(circ):
            worst_f = min(worst_f, fidelity_on_lines(state, tuple(range(6)), target))
        if trial % 4 == 0:
            compiled, _ = compile_circuit(circ)
            dist = run_exact(compiled)
            final_ids = [m.record_id for m in compiled.measurements("final")]
            counts = _sampled_counts(compiled, final_ids, shots, seed=7000 + trial)
            marg = dist.marginal(final_ids)
            keys = set(counts) | set(marg)
            tv = 0.5 * sum(abs(counts.get(k, 0) / shots - marg.get(k, 0.0)) for k in keys)
            worst_tv = max(worst_tv, tv)
    assert worst_f >= 1 - 1e-8
    assert worst_tv < 0.01
    print(f"\nPASS criterion 7: worst branch fidelity {worst_f:.12f}, "
          f"max sampler TV {worst_tv:.4f}")


def test_acceptance_8_post_selection_identity():
    """Single- and double-SWAP gadgetized circuits (n <= 6):
    prob_D(y) = prob_D'(y | ancillas 0) within 1e-8."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for n_swaps in (1, 2):
        for trial in range(3):
            n = 3 if n_swaps == 1 else 4
            alpha = _random_state(2 ** n, rng)
            # interleave swap pseudo-gates with matchgates
            base = random_mg_circuit(n, 8, seed=8000 + 10 * n_swaps + trial)
            gates = base.gates()
            prog = []
            prog.extend(gates[:4])
            prog.append(Macro.make("swap", line=1))
            prog.extend(gates[4:])
            if n_swaps == 2:
                prog.append(Macro.make("swap", line=n - 1))
            prog.extend(Measure(l, f"x{l}", "final") for l in range(n))
            spec = InputSpec((EntangledBlock(n, alpha),)) if n <= 2 else InputSpec(
                (BitsBlock("1"), EntangledBlock(n - 1, _random_state(2 ** (n - 1), rng))))
            d = Circuit(n, spec, tuple(prog))
            want = macro_reference(d)
            dprime, _ = expand_macros(d, post_selected_swaps=True)
            constraints = {r: 0 for r in added_records(d, dprime, "final")}
            cond = post_select(run_exact(dprime), constraints).marginal(
                [m.record_id for m in d.measurements("final")])
            for key in set(want) | set(cond):
                worst = max(worst, abs(want.get(key, 0.0) - cond.get(key, 0.0)))
    assert worst < 1e-8
    print(f"\nPASS criterion 8: post-selection identity max dev {worst:.2e}")


def test_acceptance_9_parity_superselection():
    """100 random NONADAPT circuits with fermionic inputs: total mass on the
    wrong parity class < 1e-10."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 7))
        choice = trial % 3
        if choice == 0:
            spec = InputSpec((BitsBlock("".join(rng.choice(["0", "1"], size=n))),))
        elif choice == 1 and n >= 5:
            spec = InputSpec((BitsBlock("".join(rng.choice(["0", "1"], size=n - 4))),
                              MagicBlock()))
        else:
            width = int(rng.integers(2, min(n, 4) + 1))
            parity = int(rng.integers(0, 2))
            amps = np.zeros(2 ** width, dtype=complex)
            idx = [i for i in range(2 ** width) if bin(i).count("1") % 2 == parity]
            vals = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
            amps[idx] = vals / np.linalg.norm(vals)
            blocks = []
            if n - width:
                blocks.append(BitsBlock("".join(rng.choice(["0", "1"], size=n - width))))
            blocks.append(EntangledBlock(width, amps))
            spec = InputSpec(tuple(blocks))
        c = random_mg_circuit(n, int(rng.integers(5, 40)), seed=9000 + trial,
                              input_spec=spec)
        dist = run_exact(c)
        by_parity = {0: 0.0, 1: 0.0}
        for rec, p in dist.probs.items():
            by_parity[sum(b for _, b in rec) % 2] += p
        worst = max(worst, min(by_parity.values()))
    assert worst < 1e-10
    print(f"\nPASS criterion 9: wrong-parity mass {worst:.2e} over 100 circuits")


def test_acceptance_10_determinism(tmp_path, capsys):
    """Identical seeds give byte-identical sample outputs and reports."""
    from matchsim.cli import main
    from matchsim.serialize import serialize_circuit

    c = random_mg_circuit(5, 20, seed=10, n_intermediate=2)
    path = tmp_path / "c.json"
    path.write_text(serialize_circuit(c))
    outs = []
    for _ in range(2):
        code = main(["sample", str(path), "--shots", "200", "--seed", "123"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    reports = []
    for _ in range(2):
        code = main(["xcheck", str(path), "--json"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    print("\nPASS criterion 10: byte-identical sample output and xcheck report")

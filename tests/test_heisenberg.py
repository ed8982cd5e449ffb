"""Heisenberg backend tests: strong single-line outputs, direct-summation
joint probabilities, cost accounting, conditional sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsim.circuit import (
    BitsBlock,
    Circuit,
    EntangledBlock,
    Gate,
    HADAMARD_PAIR,
    InputSpec,
    MagicBlock,
    Measure,
    ProductBlock,
    bits_input,
)
from matchsim.errors import BackendInapplicable, BudgetExceeded
from matchsim.cli import main
from matchsim.heisenberg import heisenberg_sampler, joint_prob_few_adaptive, strong_single_line
from matchsim.oracle import random_mg_circuit, run_exact
from matchsim.pfaffian import EvalStats, joint_prob_entangled, sample_many
from matchsim.serialize import serialize_circuit

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def test_empty_circuit_basis_states():
    c0 = Circuit(2, bits_input("00"), (Measure(0, "x", "final"),)).validate()
    assert strong_single_line(c0, 0) == pytest.approx(0.0, abs=1e-12)
    c1 = Circuit(2, bits_input("10"), (Measure(0, "x", "final"),)).validate()
    assert strong_single_line(c1, 0) == pytest.approx(1.0)


def test_strong_single_line_matches_oracle_on_random_product_input():
    rng = np.random.default_rng(4)
    states = []
    for _ in range(6):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(v / np.linalg.norm(v))
    spec = InputSpec((ProductBlock(tuple(states)),))
    c = random_mg_circuit(6, 40, seed=15, input_spec=spec)
    dist = run_exact(c)
    for line in range(6):
        p = strong_single_line(c, line)
        assert abs(p - dist.probability({f"x{line}": 1})) < 1e-9


def test_strong_single_line_outcomes_sum_to_one():
    c = random_mg_circuit(5, 30, seed=16,
                          input_spec=InputSpec((BitsBlock("0"), MagicBlock())))
    for line in range(5):
        p1 = strong_single_line(c, line, outcome=1)
        p0 = strong_single_line(c, line, outcome=0)
        assert abs(p0 + p1 - 1.0) < 1e-10


def test_strong_single_line_requires_nonadapt():
    c = random_mg_circuit(3, 5, seed=17, n_intermediate=1)
    with pytest.raises(BackendInapplicable):
        strong_single_line(c, 0)


def test_joint_k0_reduces_to_delta_on_identity_circuit():
    c = Circuit(3, bits_input("010"),
                tuple(Measure(l, f"x{l}", "final") for l in range(3))).validate()
    assert joint_prob_few_adaptive(c, {"x0": 0, "x1": 1, "x2": 0}) == pytest.approx(1.0)
    assert joint_prob_few_adaptive(c, {"x0": 1, "x1": 1, "x2": 0}) == pytest.approx(0.0, abs=1e-12)


def test_hadamard_pair_circuit_joint_matches_oracle():
    # k=1 on the |0>|+> input with an intermediate measurement on the ancilla
    spec = InputSpec((BitsBlock("0"), ProductBlock((PLUS,))))
    prog = (Gate(0, HADAMARD_PAIR), Measure(1, "m", "intermediate"),
            Gate(0, HADAMARD_PAIR), Measure(0, "x", "final"))
    c = Circuit(2, spec, prog).validate()
    dist = run_exact(c)
    for rec, p in dist.probs.items():
        q = joint_prob_few_adaptive(c, dict(rec))
        assert abs(p - q) < 1e-9


def test_literal_path_above_grouped_cap_returns_float():
    # n = 17 is beyond the dense evaluation: one projector's (2n)^2 summands
    c = random_mg_circuit(17, 20, seed=27, final_lines=[0])
    for bit in (0, 1):
        p = joint_prob_few_adaptive(c, {"x0": bit})
        assert type(p) is float
        assert p == pytest.approx(strong_single_line(c, 0, outcome=bit), abs=1e-10)


@st.composite
def _adaptive_circuits(draw):
    n = draw(st.integers(2, 6))
    return random_mg_circuit(n, draw(st.integers(1, 12)), seed=draw(st.integers(0, 2 ** 32 - 1)),
                             n_intermediate=draw(st.integers(0, 2)),
                             guard_prob=draw(st.floats(0, 1)))


@settings(max_examples=25, deadline=None)
@given(c=_adaptive_circuits())
def test_joint_matches_pfaffian_and_oracle_on_every_record(c):
    dist = run_exact(c)
    total = 0.0
    for rec, p in dist.probs.items():
        q = joint_prob_few_adaptive(c, dict(rec))
        assert type(q) is float
        assert abs(q - joint_prob_entangled(c, dict(rec))) < 1e-10
        assert abs(q - p) < 1e-9
        total += q
    assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("n", [5, 17])
def test_single_line_query_takes_one_expectation_per_pair(n, tmp_path, capsys, monkeypatch):
    # the benchmark's traced cross-check: expectation_pauli calls = terms = (2n)^2
    import matchsim.heisenberg

    rng = np.random.default_rng(n)
    states = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    spec = InputSpec((ProductBlock(tuple(v / np.linalg.norm(v) for v in states)),))
    c = random_mg_circuit(n, 2 * n, seed=n, input_spec=spec, final_lines=[0, n // 2, n - 1])
    path = tmp_path / "line.json"
    path.write_text(serialize_circuit(c))
    calls = []
    expectation_pauli = matchsim.heisenberg.expectation_pauli
    monkeypatch.setattr(matchsim.heisenberg, "expectation_pauli",
                        lambda ps, spec: calls.append(ps) or expectation_pauli(ps, spec))
    assert main(["prob", str(path), "-p", "*1*"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# command=prob backend=heisenberg"
    assert len(calls) == (2 * n) ** 2
    assert f"# terms={len(calls)}" in lines


def test_term_count_formula():
    # (2n)^(4k+2) for one final line
    for n, k in ((3, 0), (4, 1), (5, 2)):
        c = random_mg_circuit(n, 8, seed=19 + n, n_intermediate=k, final_lines=[0])
        stats = EvalStats()
        oc = {f"m{j}": 0 for j in range(k)}
        oc["x0"] = 0
        joint_prob_few_adaptive(c, oc, stats=stats)
        assert stats.term_count == (2 * n) ** (4 * k + 2)


def test_literal_budget_enforced():
    # three projectors, 6 rows, above the dense evaluation's 16 lines
    c = random_mg_circuit(17, 10, seed=20, n_intermediate=1, final_lines=[0])
    with pytest.raises(BudgetExceeded) as exc:
        joint_prob_few_adaptive(c, {"m0": 0, "x0": 0})
    assert exc.value.rows == 6


def test_four_adaptive_joint_matches_pfaffian_and_oracle(tmp_path, capsys):
    # no cap on the number of assigned intermediates: the dense evaluation is
    # linear in the number of projector rows
    c = random_mg_circuit(5, 20, seed=21, n_intermediate=4, final_lines=[0, 3])
    for rec, p in run_exact(c).probs.items():
        q = joint_prob_few_adaptive(c, dict(rec))
        assert abs(q - joint_prob_entangled(c, dict(rec))) < 1e-10
        assert abs(q - p) < 1e-9
    path = tmp_path / "four_adaptive.json"
    path.write_text(serialize_circuit(c))
    printed = {}
    for backend in ("heisenberg", "pfaffian"):
        assert main(["prob", str(path), "-p", "01", "--backend", backend, "--json"]) == 0
        printed[backend] = json.loads(capsys.readouterr().out)["probabilities"]["01"]
    assert abs(printed["heisenberg"] - printed["pfaffian"]) < 1e-10


def test_k2_normalization_with_entangled_input():
    spec = InputSpec((BitsBlock("000"), EntangledBlock(2, np.array([0.6, 0, 0, 0.8j]))))
    c = random_mg_circuit(5, 20, seed=22, n_intermediate=2, final_lines=[1], input_spec=spec)
    total = 0.0
    for y1 in (0, 1):
        for y2 in (0, 1):
            for x in (0, 1):
                total += joint_prob_few_adaptive(
                    c, {"m0": y1, "m1": y2, "x0": x})
    assert total == pytest.approx(1.0, abs=1e-8)


def test_backend_equivalence_with_pfaffian_k0():
    c = random_mg_circuit(5, 25, seed=23, input_spec=bits_input("01100"))
    for x in np.ndindex(*([2] * 5)):
        oc = {f"x{l}": int(x[l]) for l in range(5)}
        ph = joint_prob_few_adaptive(c, oc)
        pp = joint_prob_entangled(c, oc)
        assert abs(ph - pp) < 1e-8


def _sampled_tv(c, shots, seed):
    """TV distance between the Heisenberg sampler's records and the oracle."""
    records, leaf = sample_many(c, shots, seed=seed, sampler=heisenberg_sampler(c))
    counts = {tuple(sorted(rec)): k for rec, k in zip(records, np.bincount(leaf).tolist())}
    return 0.5 * sum(abs(counts.get(tuple(sorted(dict(rec).items())), 0) / shots - p)
                     for rec, p in run_exact(c).probs.items())


def test_sampling_deterministic_and_matches_oracle():
    spec = InputSpec((ProductBlock((PLUS,)), BitsBlock("00")))
    c = random_mg_circuit(3, 10, seed=24, n_intermediate=1, final_lines=[1], input_spec=spec)
    records1, leaf1 = sample_many(c, 1, seed=1, sampler=heisenberg_sampler(c))
    records2, leaf2 = sample_many(c, 1, seed=1, sampler=heisenberg_sampler(c))
    assert records1 == records2 and np.array_equal(leaf1, leaf2)
    assert _sampled_tv(c, 3000, seed=2) < 0.04


def test_two_adaptive_sampler_tv_at_1e5_shots():
    # empirical distribution of a 2-adaptive n=4 circuit vs the oracle
    c = random_mg_circuit(4, 18, seed=25, n_intermediate=2, final_lines=[0, 3],
                          input_spec=bits_input("0100"))
    assert _sampled_tv(c, 100_000, seed=12) < 0.01


def test_term_count_formula_multi_final():
    c = random_mg_circuit(3, 8, seed=26, n_intermediate=1, final_lines=[0, 2])
    stats = EvalStats()
    joint_prob_few_adaptive(c, {"m0": 1, "x0": 0, "x1": 1}, stats=stats)
    assert stats.term_count == 6 ** (4 + 2 * 2)

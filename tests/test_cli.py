"""Command-line interface tests: determinism, exit codes, report formats."""

import json

import numpy as np
import pytest

from matchsim.circuit import (
    BitsBlock,
    Circuit,
    EntangledBlock,
    FSWAP,
    Gate,
    InputSpec,
    Macro,
    Measure,
    bits_input,
)
from matchsim.cli import main
from matchsim.oracle import random_mg_circuit
from matchsim.serialize import serialize_circuit


@pytest.fixture()
def fswap_file(tmp_path):
    c = Circuit(2, bits_input("10"),
                (Gate(0, FSWAP), Measure(0, "a", "final"), Measure(1, "b", "final"))).validate()
    path = tmp_path / "fswap.json"
    path.write_text(serialize_circuit(c))
    return str(path)


@pytest.fixture()
def adaptive_file(tmp_path):
    c = random_mg_circuit(4, 15, seed=31, n_intermediate=2)
    path = tmp_path / "adaptive.json"
    path.write_text(serialize_circuit(c))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_prob_identity_pattern(capsys, fswap_file):
    code, out = run_cli(capsys, "prob", fswap_file, "-p", "01")
    assert code == 0
    assert "p(01) = 1.0" in out


def test_prob_all_wildcards_is_one(capsys, adaptive_file):
    code, out = run_cli(capsys, "prob", adaptive_file, "-p", "****")
    assert code == 0
    val = float(out.split(" = ")[1].splitlines()[0])
    assert val == pytest.approx(1.0, abs=1e-8)


def test_prob_matches_oracle_on_partial_pattern(capsys, adaptive_file):
    code_p, out_p = run_cli(capsys, "prob", adaptive_file, "-p", "0**1", "--backend", "pfaffian")
    code_o, out_o = run_cli(capsys, "prob", adaptive_file, "-p", "0**1", "--backend", "oracle")
    vp = float(out_p.split(" = ")[1].splitlines()[0])
    vo = float(out_o.split(" = ")[1].splitlines()[0])
    assert abs(vp - vo) < 1e-8


def test_prob_backend_auto_selects_heisenberg(capsys, fswap_file):
    code, out = run_cli(capsys, "prob", fswap_file, "-p", "*1")
    assert code == 0
    assert "backend=heisenberg" in out


def test_sample_deterministic_bytes(capsys, adaptive_file):
    _, out1 = run_cli(capsys, "sample", adaptive_file, "--shots", "20", "--seed", "9")
    _, out2 = run_cli(capsys, "sample", adaptive_file, "--shots", "20", "--seed", "9")
    assert out1 == out2
    _, out3 = run_cli(capsys, "sample", adaptive_file, "--shots", "20", "--seed", "10")
    assert out1 != out3


def test_sample_zero_shots(capsys, adaptive_file):
    code, out = run_cli(capsys, "sample", adaptive_file, "--shots", "0")
    assert code == 0
    assert "# shots=0" in out


def test_sample_json_report(capsys, adaptive_file):
    code, out = run_cli(capsys, "sample", adaptive_file, "--shots", "3", "--json")
    doc = json.loads(out)
    assert doc["backend"] == "pfaffian"
    assert len(doc["samples"]) == 3


def test_xcheck_identity_circuit(capsys, fswap_file):
    code, out = run_cli(capsys, "xcheck", fswap_file)
    assert code == 0
    assert "max_abs_deviation" in out


def test_xcheck_random_suite(capsys):
    code, out = run_cli(capsys, "xcheck", "--random", "5", "20", "4", "77")
    assert code == 0
    doc_line = [l for l in out.splitlines() if "max_abs_deviation" in l][0]
    assert float(doc_line.split("=")[1]) < 1e-7


def test_xcheck_exit_code_on_breach(capsys, fswap_file):
    code, out = run_cli(capsys, "xcheck", fswap_file, "--tol", "-1.0")
    assert code == 4


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "input": [{"kind":"bits","value":"00"}], "program": []}')
    code = main(["prob", str(bad), "-p", ""])
    assert code == 2


def test_macro_circuit_rejected_by_prob(tmp_path, capsys):
    c = Circuit(3, bits_input("000"),
                (Macro.make("swap", line=1), Measure(0, "x", "final")))
    path = tmp_path / "macro.json"
    path.write_text(serialize_circuit(c))
    code = main(["prob", str(path), "-p", "0"])
    assert code == 3


def test_gadget_expand_macro_free_identity(capsys, fswap_file):
    code, out = run_cli(capsys, "gadget", "expand", fswap_file)
    assert code == 0
    circuit_line = out.splitlines()[1]
    assert circuit_line == open(fswap_file).read().rstrip("\n")


def test_gadget_expand_swap_cost_report(tmp_path, capsys):
    c = Circuit(3, bits_input("100"),
                (Macro.make("swap", line=1),
                 Measure(0, "x0", "final"), Measure(1, "x1", "final"),
                 Measure(2, "x2", "final")))
    path = tmp_path / "swap.json"
    path.write_text(serialize_circuit(c))
    code, out = run_cli(capsys, "gadget", "expand", str(path))
    assert code == 0
    assert "# swap.ancilla_lines=4" in out
    assert "# swap.measurements=4" in out
    assert "# swap.magic_consumed=1" in out
    # the expanded file re-parses cleanly
    from matchsim.serialize import parse_circuit

    expanded = parse_circuit(out.splitlines()[1])
    assert expanded.n == 7 and not expanded.has_macros()


def test_gadget_expand_nested_macros(tmp_path, capsys):
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    pat = [[float(a.real), float(a.imag)] for a in amps]
    doc = {
        "n": 4,
        "input": [{"kind": "product", "states": [[2 ** -0.5, 0, 2 ** -0.5, 0]]},
                  {"kind": "bits", "value": "00"},
                  {"kind": "product", "states": [[2 ** -0.5, 0, 2 ** -0.5, 0]]}],
        "program": [
            {"op": "macro", "name": "prepare_two_qubit_inputs", "patterns": [pat]},
            {"op": "measure", "line": 1, "id": "xf", "role": "final",
             "basis": {"kind": "computational"}},
        ],
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "gadget", "expand", str(path))
    assert code == 0
    from matchsim.serialize import parse_circuit

    expanded = parse_circuit(out.splitlines()[1])
    assert not expanded.has_macros()
    ops = [i.op for i in expanded.program]
    assert "gate" in ops and "measure" in ops
    # one |+> auxiliary line per pair plus the closing one
    assert "# prepare_two_qubit_inputs.ancilla_lines=2" in out


def test_xcheck_random_deterministic_bytes(capsys):
    argv = ["xcheck", "--random", "4", "12", "3", "55", "--json"]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_prob_text_on_entangled_zone_prints_plain_floats(tmp_path, capsys):
    spec = InputSpec((BitsBlock("1"), EntangledBlock(1, np.array([0.6, 0.8]))))
    c = Circuit(2, spec, (Gate(0, FSWAP), Measure(0, "a", "final"),
                          Measure(1, "b", "final"))).validate()
    path = tmp_path / "zone.json"
    path.write_text(serialize_circuit(c))
    code, out = run_cli(capsys, "prob", str(path), "-p", "1*", "--backend", "pfaffian")
    assert code == 0
    assert "np.float64" not in out
    line = next(l for l in out.splitlines() if l.startswith("p(1*) = "))
    assert float(line.split(" = ")[1]) == pytest.approx(0.64, abs=1e-12)
    code, out = run_cli(capsys, "xcheck", str(path))
    assert code == 0
    assert "pfaffian.maxdev" in out and "np.float64" not in out


@pytest.mark.parametrize("state", [[float("nan"), 0, 1, 0], [float("inf"), 0, 0, 0]])
def test_non_finite_amplitude_rejected(tmp_path, capsys, state):
    doc = {"n": 1, "input": [{"kind": "product", "states": [state]}],
           "program": [{"op": "measure", "line": 1, "id": "x", "role": "final",
                        "basis": {"kind": "computational"}}]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "prob", str(path), "-p", "0")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("instruction", [
    {"op": "measure", "line": 1, "role": "final", "basis": {"kind": "computational"}},
    {"op": "gate", "angles": [0, 0, 0, 0, 0, 0]},
    {"op": "measure", "line": 1, "id": "x", "role": "final", "basis": 3},
])
def test_malformed_instruction_exit_code(tmp_path, capsys, instruction):
    doc = {"n": 2, "input": [{"kind": "bits", "value": "00"}],
           "program": [instruction, {"op": "measure", "line": 2, "id": "y", "role": "final",
                                     "basis": {"kind": "computational"}}]}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["prob", str(path), "-p", "0"]) == 2


def _final_doc(n, blocks, finals):
    return {"n": n, "input": blocks,
            "program": [{"op": "measure", "line": l, "id": f"x{l}", "role": "final",
                         "basis": {"kind": "computational"}} for l in finals]}


def _wide_zone(width):
    amps = [[0.0, 0.0]] * 2 ** width
    amps[0] = [1.0, 0.0]
    return [{"kind": "entangled", "k": width, "amps": amps}]


@pytest.mark.parametrize("doc, argv", [
    # BudgetExceeded: n=17 is beyond the grouped Heisenberg evaluation
    (_final_doc(17, [{"kind": "bits", "value": "0" * 17}], [1, 2, 3]),
     ["-p", "0*1", "--backend", "heisenberg"]),
    # CapExceeded: the dense oracle stops at n=14
    (_final_doc(16, [{"kind": "bits", "value": "0" * 16}], [1]), ["-p", "0", "--backend", "oracle"]),
    # BlockTooLarge: a width-15 zone on the Pfaffian backend
    (_final_doc(15, _wide_zone(15), [1]), ["-p", "0", "--backend", "pfaffian"]),
])
def test_capacity_errors_exit_inapplicable(tmp_path, capsys, doc, argv):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "prob", str(path), *argv)
    assert code == 3
    assert out == ""


_BITS2 = [{"kind": "bits", "value": "00"}]
_MEASURE2 = {"op": "measure", "line": 2, "id": "y", "role": "final",
             "basis": {"kind": "computational"}}


def _gate(**fields):
    return {"n": 2, "input": _BITS2,
            "program": [{"op": "gate", "line": 1, **fields}, _MEASURE2]}


def _input(*blocks):
    return {"n": 2, "input": list(blocks), "program": [_MEASURE2]}


@pytest.mark.parametrize("doc", [
    _gate(angles=[0] * 6, guard={"ids": 3, "parity": 0}),
    _gate(angles=[0] * 6, guard={"ids": [], "parity": "a"}),
    _gate(angles=["a", 0, 0, 0, 0, 0]),
    _gate(matrix=3),
    _input({"kind": "bits", "value": "0"}, {"kind": "entangled", "k": "x", "amps": []}),
    _input({"kind": "product", "states": [["a", 0, 1, 0], [1, 0, 0, 0]]}),
    _input({"kind": "product", "states": 5}),
    {"n": 2, "input": 5, "program": [_MEASURE2]},
    {"n": 2, "input": _BITS2, "program": 5},
    {"n": float("inf"), "input": _BITS2, "program": [_MEASURE2]},
])
def test_malformed_document_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "prob", str(path), "-p", "0")
    assert code == 2
    assert out == ""


def test_negative_probability_flag_reaches_report(capsys, fswap_file, monkeypatch):
    import matchsim.pfaffian

    monkeypatch.setattr(matchsim.pfaffian, "pfaffian", lambda m, check=True: -0.5)
    code, out = run_cli(capsys, "prob", fswap_file, "-p", "01", "--backend", "pfaffian")
    assert code == 0
    assert "negative probability" in out
    code, out = run_cli(capsys, "prob", fswap_file, "-p", "01", "--backend", "pfaffian",
                        "--json")
    assert any("negative probability" in f for f in json.loads(out)["flags"])
    code, out = run_cli(capsys, "xcheck", fswap_file)
    assert "negative probability" in out


@pytest.mark.parametrize("argv", [
    ["prob", "F", "-p", "0", "--seed", "4"],
    ["prob", "F", "-p", "0", "--tol", "9"],
    ["sample", "F", "--tol", "9"],
    ["xcheck", "F", "--backend", "oracle"],
    ["xcheck", "F", "--seed", "4"],
    ["xcheck", "F", "--max-block", "4"],
    ["gadget", "expand", "F", "--backend", "oracle"],
    ["gadget", "expand", "F", "--seed", "4", "--tol", "9"],
    ["gadget", "expand", "F", "--max-adaptive", "2"],
    ["gadget", "expand", "F", "--max-block", "4"],
])
def test_unread_flag_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2

"""Command-line interface tests: determinism, exit codes, report formats."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@pytest.fixture()
def zone_file(tmp_path):
    """An adaptive circuit on bits + a trailing width-3 zone, which
    ``compile_circuit`` keeps (it lowers blocks of width <= 2 to a |+> line),
    so every Pfaffian-backend command on it takes the pair sum."""
    amps = np.zeros(8, dtype=complex)
    amps[[0, 3, 6]] = [0.6, 0.48j, -0.64]
    spec = InputSpec((BitsBlock("10"), EntangledBlock(3, amps)))
    c = random_mg_circuit(5, 15, seed=32, n_intermediate=2, input_spec=spec, final_lines=[0, 3])
    path = tmp_path / "zone.json"
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


def test_heisenberg_joint_prints_plain_float(capsys, tmp_path):
    path = tmp_path / "two_finals.json"
    path.write_text(serialize_circuit(random_mg_circuit(3, 9, seed=5, final_lines=[0, 2])))
    code, out = run_cli(capsys, "prob", str(path), "-p", "01", "--backend", "heisenberg")
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("p(01) = ")]
    assert line == f"p(01) = {float(line.split(' = ')[1])!r}"


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


# SHA-256 of ``sample`` stdout (text, --json) for fixed circuits and seeds:
# changing a sampled record or a byte of its formatting changes these.
_SAMPLE_DIGESTS = {
    "pfaffian": ("f15fc6bdca698f4101471d3fddd6452ab209e491dd50c6b84f3b0eead1720d0a",
                 "9d25faf4a8d955e6ae8f0e84005096e99d60bb3130ae5fe658b1ab25b2aca519"),
    "pfaffian-bits": ("4a38ad956dc3aeb42bf86b5b5619f93d09937d8c50167afc12efb2cb13def307",
                      "aaa031b269168e63081b7d08017e7536fdc9c311d2b30e86fa7052e86cf62680"),
    "heisenberg": ("422a985cc4b52a94f111fa76efd29dccc79b066ef66c501dcc427594290e73ba",
                   "c668acbfc1a7891252ad9c06a49710164b54468fd5e5c41bbbdaa43c7c2bb54b"),
    "oracle": ("06b8697d81777b84960076865ad669196441d296bbf0c0ca22f492e5eebc3ca5",
               "2f5f72555efb623fdc73905029f1149bfbb3070c0259c39287394f3f3c1ca655"),
}


def _digest_case(case):
    """(circuit, shots, seed) per case: an adaptive circuit whose entangled
    block needs compiling for the Pfaffian sampler, a bit-input one for it,
    a two-intermediate one for the Heisenberg sampler, and an oracle one."""
    if case == "pfaffian-bits":
        return random_mg_circuit(6, 24, seed=104, n_intermediate=2, input_spec=bits_input("101100"),
                                 final_lines=[1, 4]), 600, 19
    if case == "pfaffian":
        spec = InputSpec((BitsBlock("10"), EntangledBlock(2, np.array([0.5, 0.5j, -0.5, 0.5])),
                          BitsBlock("01")))
        return random_mg_circuit(6, 24, seed=101, n_intermediate=2, input_spec=spec,
                                 final_lines=[1, 4]), 600, 17
    if case == "heisenberg":
        return random_mg_circuit(4, 14, seed=102, n_intermediate=2, final_lines=[0, 3]), 300, 23
    return random_mg_circuit(5, 16, seed=103, n_intermediate=1), 600, 29


@pytest.mark.parametrize("backend", sorted(_SAMPLE_DIGESTS))
def test_sample_stdout_digests(capsys, tmp_path, backend):
    circuit, shots, seed = _digest_case(backend)
    path = tmp_path / "circuit.json"
    path.write_text(serialize_circuit(circuit))
    argv = ["sample", str(path), "--shots", str(shots), "--seed", str(seed),
            "--backend", backend.split("-")[0]]
    digests = []
    for extra in ([], ["--json"]):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == _SAMPLE_DIGESTS[backend]


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


@pytest.mark.parametrize("command", [("prob", "F", "-p", "0"), ("sample", "F"), ("xcheck", "F")],
                         ids=["prob", "sample", "xcheck"])
@pytest.mark.parametrize("target, code", [(1, 3), ("a", 2)], ids=["well-formed", "malformed"])
def test_unexpanded_macro_exit_code(tmp_path, capsys, command, target, code):
    # every command decodes a macro before it rejects it as unexpanded
    path = tmp_path / "macro.json"
    path.write_text(json.dumps(_macro("hadamard", target=target, ancilla=2)))
    assert run_argv(capsys, command, str(path)) == (code, "")


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
    types = {type(i) for i in expanded.program}
    assert Gate in types and Measure in types
    # one |+> auxiliary line per pair plus the closing one
    assert "# prepare_two_qubit_inputs.ancilla_lines=2" in out
    # the pair unitary's cost counts under the macro the file names
    assert "two_qubit_unitary" not in out


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
    # BlockTooLarge: a width-13 block beyond the fixed Heisenberg block-width cap
    (_final_doc(13, _wide_zone(13), [1]), ["-p", "0", "--backend", "heisenberg"]),
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


def _program(*instructions):
    return {"n": 2, "input": _BITS2, "program": [*instructions, _MEASURE2]}


def _macro(name, n=4, **params):
    return {"n": n, "input": [{"kind": "bits", "value": "0" * n}],
            "program": [{"op": "macro", "name": name, **params}, _MEASURE2]}


def _tilted(**basis):
    return {"n": 2, "input": _BITS2,
            "program": [{**_MEASURE2, "basis": {"kind": "tilted", "x": 0.5, **basis}}]}


_PROB = ("prob", "F", "-p", "0")
_ORACLE = (*_PROB, "--backend", "oracle")
_EXPAND = ("gadget", "expand", "F")
_INTERMEDIATE = {"op": "measure", "line": 1, "id": "1", "role": "intermediate",
                 "basis": {"kind": "computational"}}
_MALFORMED = [
    (_gate(angles=[0] * 6, guard={"ids": 3, "parity": 0}), _PROB),
    (_gate(angles=[0] * 6, guard={"ids": [], "parity": "a"}), _PROB),
    (_gate(angles=["a", 0, 0, 0, 0, 0]), _PROB),
    (_gate(matrix=3), _PROB),
    (_input({"kind": "bits", "value": "0"}, {"kind": "entangled", "k": "x", "amps": []}), _PROB),
    (_input({"kind": "product", "states": [["a", 0, 1, 0], [1, 0, 0, 0]]}), _PROB),
    (_input({"kind": "product", "states": 5}), _PROB),
    ({"n": 2, "input": 5, "program": [_MEASURE2]}, _PROB),
    ({"n": 2, "input": _BITS2, "program": 5}, _PROB),
    ({"n": float("inf"), "input": _BITS2, "program": [_MEASURE2]}, _PROB),
    # record ids are JSON strings, never the text of another value
    (_program({**_INTERMEDIATE, "id": ["x"]}), _PROB),
    (_program({**_INTERMEDIATE, "id": 7}), _EXPAND),
    (_program(_INTERMEDIATE, {"op": "gate", "line": 1, "angles": [0] * 6,
                              "guard": {"ids": [1], "parity": 0}}), _PROB),
    # malformed macros
    (_macro("hadamard", ancilla=2), _EXPAND),
    (_macro("single_qubit_unitary", target=1, ancilla=2, matrix=3), _EXPAND),
    (_macro("swap", line=9), _EXPAND),
    (_macro("toffoli", line="a"), _EXPAND),
    (_macro("plus_state", ancillas=[1], x=0.5), _EXPAND),
    (_macro("hadamard", target=1, ancilla=3), _EXPAND),
    (_macro("swap", line=[1]), _EXPAND),
    # integer fields are JSON integers, and bits are a JSON string
    (_gate(line=1.7, angles=[0] * 6), _PROB),
    (_gate(line="1", angles=[0] * 6), _PROB),
    (_gate(line=True, angles=[0] * 6), _PROB),
    (_program({**_INTERMEDIATE, "line": 1.0}), _PROB),
    ({"n": 2.9, "input": _BITS2, "program": [_MEASURE2]}, _PROB),
    (_program(_INTERMEDIATE, {"op": "gate", "line": 1, "angles": [0] * 6,
                              "guard": {"ids": ["1"], "parity": 1.5}}), _PROB),
    (_input({"kind": "bits", "value": 10}), _PROB),
    (_input({"kind": "bits", "value": "0"},
            {"kind": "entangled", "k": 1.0, "amps": [[1, 0], [0, 0]]}), _PROB),
    # real fields are finite JSON numbers, never strings or bools
    (_gate(angles=["0.3", 0, 0, 0, 0, True]), _ORACLE),
    (_gate(angles=[0, 0, 0, 0, 0, True]), _ORACLE),
    (_tilted(x="0.5"), _ORACLE),
    (_tilted(phase=True), _ORACLE),
    (_input({"kind": "product", "states": [[True, 0, 0, 0], [1, 0, 0, 0]]}), _ORACLE),
    (_input({"kind": "bits", "value": "0"},
            {"kind": "entangled", "k": 1, "amps": [[True, 0], [0, 0]]}), _ORACLE),
    (_gate(matrix={"a": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
                   "b": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}), _ORACLE),
    (_tilted(phase=float("nan")), _ORACLE),
    (_tilted(phase=float("inf")), _ORACLE),
    (json.dumps(_tilted(phase=0.25)).replace("0.25", "1e400"), _ORACLE),
    (_tilted(phase=float("nan")), _EXPAND),
]


def run_argv(capsys, argv, path="F"):
    """Exit code and stdout of ``argv`` with ``F`` replaced by ``path``;
    argparse usage errors count as their exit code."""
    try:
        code = main([path if a == "F" else a for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("doc, argv", _MALFORMED,
                         ids=[f"doc{i}" for i in range(len(_MALFORMED))])
def test_malformed_document_exit_code(tmp_path, capsys, doc, argv):
    path = tmp_path / "malformed.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out = run_argv(capsys, argv, str(path))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["sample", "F", "--shots", "-1"],
    ["sample", "F", "--seed", "-1"],
    ["xcheck", "--random", "1", "5", "2", "3"],
    ["xcheck", "--random", "0", "5", "2", "3"],
    ["xcheck", "--random", "3", "-5", "2", "3"],
    ["xcheck", "--random", "3", "5", "2", "-3"],
    ["xcheck", "--random", "3", "5", "-1", "3"],
    ["xcheck", "--random", "3", "5", "0", "3"],
    ["xcheck", "F", "--tol", "nan"],
])
def test_out_of_range_argument_exit_code(capsys, adaptive_file, argv):
    code, out = run_argv(capsys, argv, adaptive_file)
    assert code == 2
    assert out == ""


# counts numpy refuses before allocating anything; never a count it would try
@pytest.mark.parametrize("argv", [
    *(["sample", "F", "--shots", str(shots), "--backend", backend]
      for shots in (10 ** 20, 2 ** 63) for backend in ("pfaffian", "heisenberg", "oracle")),
    ["xcheck", "--random", str(2 ** 63), "5", "2", "3"],
    ["xcheck", "--random", "15", "5", "2", "3"],
    ["xcheck", "--random", "5", str(2 ** 63), "2", "3"],
    ["xcheck", "--random", "5", "3", "100000000", "3"],
    ["xcheck", "--random", "5", "100001", "1", "3"],
])
def test_absurd_count_exits_inapplicable(capsys, adaptive_file, argv):
    code, out = run_argv(capsys, argv, adaptive_file)
    assert code == 3
    assert out == ""


def test_negative_probability_flag_reaches_report(capsys, zone_file, monkeypatch):
    import matchsim.pfaffian

    # the pair loop sums lam_w lam_{w'}^* Pf over the kept pairs: with every
    # Pfaffian at -0.5, the joint is -0.5 |0.6 + 0.48j - 0.64|^2 < 0
    monkeypatch.setattr(matchsim.pfaffian, "PF_FLOOR", np.inf)
    monkeypatch.setattr(matchsim.pfaffian, "pfaffian", lambda m: -0.5)
    code, out = run_cli(capsys, "prob", zone_file, "-p", "01", "--backend", "pfaffian")
    assert code == 0
    assert "negative probability" in out
    code, out = run_cli(capsys, "prob", zone_file, "-p", "01", "--backend", "pfaffian",
                        "--json")
    assert any("negative probability" in f for f in json.loads(out)["flags"])
    code, out = run_cli(capsys, "xcheck", zone_file)
    assert "negative probability" in out


def _scaled_outcome_masses(monkeypatch, factor):
    """Every covariance-route measurement reads its components' Gamma times
    ``factor``."""
    import matchsim.pfaffian

    original = matchsim.pfaffian._outcome_masses
    monkeypatch.setattr(matchsim.pfaffian, "_outcome_masses",
                        lambda state, line, outcome, flags:
                        original((state[0], factor * state[1]), line, outcome, flags))


def test_negative_covariance_probability_flag_reaches_report(capsys, fswap_file, monkeypatch):
    # line 0 reads 0 after the fSWAP, Gamma[0, 1] = 1: scaled by -3, p(0) = -1
    _scaled_outcome_masses(monkeypatch, -3.0)
    code, out = run_cli(capsys, "prob", fswap_file, "-p", "01", "--backend", "pfaffian")
    assert code == 0
    assert "p(01) = 0.0" in out
    assert "negative probability -1.00e+00" in out
    code, out = run_cli(capsys, "prob", fswap_file, "-p", "01", "--backend", "pfaffian",
                        "--json")
    assert any("negative probability" in f for f in json.loads(out)["flags"])
    code, out = run_cli(capsys, "xcheck", fswap_file)
    assert "negative probability" in out


def test_nan_probability_exits_inapplicable(capsys, zone_file, monkeypatch):
    import matchsim.pfaffian

    monkeypatch.setattr(matchsim.pfaffian, "pfaffian", lambda m: float("nan"))
    for argv in (["prob", "F", "-p", "0*", "--backend", "pfaffian"],
                 ["sample", "F", "--shots", "3", "--backend", "pfaffian"]):
        code, out = run_argv(capsys, argv, zone_file)
        assert code == 3
        assert out == ""


def test_nan_covariance_probability_exits_inapplicable(capsys, adaptive_file, monkeypatch):
    _scaled_outcome_masses(monkeypatch, np.nan)
    for argv in (["prob", "F", "-p", "0**1", "--backend", "pfaffian"],
                 ["sample", "F", "--shots", "3", "--backend", "pfaffian"],
                 ["xcheck", "F"]):
        code, out = run_argv(capsys, argv, adaptive_file)
        assert code == 3
        assert out == ""


def test_nan_heisenberg_probability_exits_inapplicable(capsys, fswap_file, adaptive_file,
                                                        monkeypatch):
    import matchsim.heisenberg

    # strong_single_line, picked by auto and requested
    monkeypatch.setattr(matchsim.heisenberg, "expectation_pauli", lambda ps, spec: float("nan"))
    for backend in ("auto", "heisenberg"):
        code, out = run_cli(capsys, "prob", fswap_file, "-p", "1*", "--backend", backend)
        assert (code, out) == (3, "")
    # joint_prob_few_adaptive, under prob, sample and xcheck
    monkeypatch.setattr(matchsim.heisenberg, "apply_majorana_sum",
                        lambda weights, table, psi: np.full_like(psi, np.nan))
    for argv in (["prob", "F", "-p", "0**1", "--backend", "heisenberg"],
                 ["sample", "F", "--shots", "3", "--backend", "heisenberg"],
                 ["xcheck", "F"]):
        code, out = run_argv(capsys, argv, adaptive_file)
        assert (code, out) == (3, "")


def test_heisenberg_residuals_are_flagged(capsys, fswap_file, adaptive_file, monkeypatch):
    import matchsim.heisenberg

    # fswap_file gives p(a=1) = 0 and p(a=0) = 1
    eval_pair, eval_grouped = matchsim.heisenberg._eval_pair, matchsim.heisenberg._eval_grouped
    for shift, pattern, p, flag in ((-0.5, "1*", 0.0, "negative probability -5.00e-01"),
                                    (0.5, "0*", 1.0, "probability above 1 by 5.00e-01")):
        monkeypatch.setattr(matchsim.heisenberg, "_eval_pair",
                            lambda rows, spec, n, s=shift: eval_pair(rows, spec, n) + s + 1e-6j)
        code, out = run_cli(capsys, "prob", fswap_file, "-p", pattern,
                            "--backend", "heisenberg", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["probabilities"] == {pattern: p}
        assert set(doc["flags"]) == {"imaginary residual 1.00e-06", flag}
    monkeypatch.setattr(matchsim.heisenberg, "_eval_grouped",
                        lambda rows, psi, table: eval_grouped(rows, psi, table) + 1e-6j)
    for argv in (["prob", "F", "-p", "0**1", "--backend", "heisenberg"], ["xcheck", "F"]):
        code, out = run_argv(capsys, argv, adaptive_file)
        assert code == 0
        assert "imaginary residual 1.00e-06" in out


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
    ["prob", "F", "-p", "0", "--max-adaptive", "2"],
    ["sample", "F", "--max-adaptive", "2"],
    ["prob", "F", "-p", "0", "--max-block", "4"],
    ["sample", "F", "--max-block", "4"],
    ["xcheck", "F", "--max-adaptive", "2"],
])
def test_unread_flag_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_ABSENT = object()  # the parameter is left out of the macro
_MACRO_KEYS = {
    "hadamard": ("target", "ancilla"),
    "single_qubit_unitary": ("target", "ancilla", "matrix"),
    "two_qubit_unitary": ("line", "ancilla_above", "ancilla_below", "matrix"),
    "prepare_two_qubit_inputs": ("patterns",),
    "toffoli": ("line",),
    "plus_state": ("ancillas", "x"),
    "swap": ("line",),
}
_H = [[[2 ** -0.5, 0], [2 ** -0.5, 0]], [[2 ** -0.5, 0], [-(2 ** -0.5), 0]]]
_CZ = [[[float(i == j) * (-1 if i == 3 else 1), 0] for j in range(4)] for i in range(4)]
_BELL = [[2 ** -0.5, 0], [0, 0], [0, 0], [2 ** -0.5, 0]]
# well-formed values, so that draws also reach the gadgets behind the decoder
_WELL_FORMED = st.sampled_from([1, 2, 3, _H, _CZ, [_BELL], [1, 2], [2, 3], 0.3])
_PARAM = st.one_of(
    st.just(_ABSENT),
    st.integers(-2, 7),
    st.text(max_size=2),
    st.floats(),
    st.lists(st.one_of(st.integers(-1, 6), st.floats(-2, 2)), max_size=4),
    _WELL_FORMED,
)


@st.composite
def _macro_documents(draw):
    name = draw(st.sampled_from(sorted(_MACRO_KEYS)))
    params = {key: draw(_PARAM) for key in _MACRO_KEYS[name]}
    n = draw(st.integers(3, 5))
    return _macro(name, n, **{k: v for k, v in params.items() if v is not _ABSENT})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_macro_documents(), post_selected=st.booleans())
def test_gadget_expand_exit_code_property(tmp_path, capsys, doc, post_selected):
    path = tmp_path / "macro.json"
    path.write_text(json.dumps(doc))
    argv = [*_EXPAND, "--post-selected"] if post_selected else list(_EXPAND)
    code, out = run_argv(capsys, argv, str(path))
    assert code in (0, 2, 3)
    if code != 0:
        assert out == ""


def _measures(role, *lines):
    return [{"op": "measure", "line": l, "id": f"{role[0]}{l}", "role": role,
             "basis": {"kind": "computational"}} for l in lines]


_PLUS_STATE = [2 ** -0.5, 0, 2 ** -0.5, 0]
_RY = [[[0.6, 0], [-0.8, 0]], [[0.8, 0], [0.6, 0]]]
# ``gadget expand`` inputs covering the seven macro kinds.
_EXPAND_CASES = {
    "primitives": {
        "n": 8, "input": [{"kind": "bits", "value": "01101000"}],
        "program": [
            {"op": "macro", "name": "hadamard", "target": 1, "ancilla": 2},
            {"op": "macro", "name": "single_qubit_unitary", "target": 3, "ancilla": 4,
             "matrix": _RY},
            *_measures("intermediate", 8),
            {"op": "macro", "name": "two_qubit_unitary", "line": 5, "ancilla_above": 4,
             "ancilla_below": 7, "matrix": _CZ},
            {"op": "macro", "name": "toffoli", "line": 1},
            {"op": "macro", "name": "plus_state", "ancillas": [7, 8], "x": 0.3},
            *_measures("final", 1, 3, 6, 8),
        ],
    },
    "prepare": {
        "n": 7, "input": [{"kind": "product", "states": [_PLUS_STATE]},
                          {"kind": "bits", "value": "00"},
                          {"kind": "product", "states": [_PLUS_STATE]},
                          {"kind": "bits", "value": "00"},
                          {"kind": "product", "states": [_PLUS_STATE]}],
        "program": [
            {"op": "macro", "name": "prepare_two_qubit_inputs",
             "patterns": [_BELL, [[0.6, 0], [0, 0.8], [0, 0], [0, 0]]]},
            {"op": "macro", "name": "toffoli", "line": 2},
            *_measures("final", 1, 2, 4),
        ],
    },
    "swap": {
        "n": 3, "input": [{"kind": "bits", "value": "100"}],
        "program": [{"op": "macro", "name": "swap", "line": 1},
                    {"op": "macro", "name": "swap", "line": 2},
                    *_measures("final", 1, 2, 3)],
    },
    # toffoli ancillas and magic blocks in one register; the first swap
    # acts on the first toffoli's ancilla
    "mixed": {
        "n": 4, "input": [{"kind": "bits", "value": "1101"}],
        "program": [{"op": "macro", "name": "toffoli", "line": 1},
                    {"op": "macro", "name": "swap", "line": 4},
                    *_measures("intermediate", 2),
                    {"op": "macro", "name": "toffoli", "line": 2},
                    {"op": "macro", "name": "swap", "line": 1},
                    *_measures("final", 1, 3)],
    },
}
# SHA-256 of ``gadget expand`` stdout per case: text, --json, then the same
# with --post-selected.
_EXPAND_DIGESTS = {
    "mixed": ("374a1ef0e5fbf60052243b1a0af68bdc65997566f9aa5d60d32b5e11291e33c3",
              "d8686576e312daf24af92a855e3eb334eee90a16b28dbee34eebaec8b461ba39",
              "3288bcee89c078c8ee89f1ca071b6e6dd1ef7983455c3b0d988a5cce131270ec",
              "1c15551619091db6cb83613f1daa66f6b953f5f306d38ddb59a00bf9f59d9f25"),
    "prepare": ("d5b843de937715439e632d1f0e1fae4a1dc44ad9b13e5a02603c9b0623eb5c46",
                "94e0c8bef57b8c2d0ca4b9541f9954f708bac0fe49f1464b027ebda7a567df8e",
                "d5b843de937715439e632d1f0e1fae4a1dc44ad9b13e5a02603c9b0623eb5c46",
                "94e0c8bef57b8c2d0ca4b9541f9954f708bac0fe49f1464b027ebda7a567df8e"),
    "primitives": ("275d6a88c71f2be11b93d8f78a0c80fc481b557ff08575bd20f02f66589e29a9",
                   "e36d58eaf72fe6ed2035b852f0393f3f4805b0fb7887f03bff12613250607540",
                   "275d6a88c71f2be11b93d8f78a0c80fc481b557ff08575bd20f02f66589e29a9",
                   "e36d58eaf72fe6ed2035b852f0393f3f4805b0fb7887f03bff12613250607540"),
    "swap": ("3144abbe0b0ca167025766285c0e7da27100d4e4a0a7e711125c670c328d5161",
             "8fd58fffcd837e4bb9fb1cf47c729d9ae1814f4238ad11f10da62ea521d8472d",
             "8171fdb36e0067a695ff361bd316962a09df756f35f4bfd366538651f001c8a1",
             "7354864077d5c9ca04629678291fe140fcdde6544e0541ac3e12362c1b3f8c53"),
}


@pytest.mark.parametrize("case", sorted(_EXPAND_CASES))
def test_gadget_expand_stdout_digests(capsys, tmp_path, case):
    path = tmp_path / "macros.json"
    path.write_text(json.dumps(_EXPAND_CASES[case]))
    digests = []
    for extra in ([], ["--json"], ["--post-selected"], ["--post-selected", "--json"]):
        code, out = run_cli(capsys, "gadget", "expand", str(path), *extra)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == _EXPAND_DIGESTS[case]


# Each macro's lines are checked against the register as it stands where the
# macro runs, not against the line count after every toffoli ancilla.
_BEFORE_ITS_LINES = {
    # two pairs need 7 lines; the toffoli's ancilla would be the 7th
    "prepare": {**_EXPAND_CASES["prepare"], "n": 6,
                "input": _EXPAND_CASES["prepare"]["input"][:4]},
    # the swap reaches line 4, the toffoli's ancilla, before the toffoli appends it
    "swap": {"n": 3, "input": [{"kind": "bits", "value": "111"}],
             "program": [{"op": "macro", "name": "swap", "line": 3},
                         {"op": "macro", "name": "toffoli", "line": 1},
                         *_measures("final", 1)]},
}


@pytest.mark.parametrize("command", [("gadget", "expand", "F"), _PROB],
                         ids=["expand", "prob"])
@pytest.mark.parametrize("case, message", [
    ("prepare", "prepare_two_qubit_inputs: 2 patterns need 7 lines, the register has 6"),
    ("swap", "swap: 'line' must be a line in 1..2, got 3"),
], ids=["prepare", "swap"])
def test_macro_lines_checked_as_the_register_stands(tmp_path, capsys, command, case, message):
    path = tmp_path / "macro.json"
    path.write_text(json.dumps(_BEFORE_ITS_LINES[case]))
    code = main([str(path) if a == "F" else a for a in command])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and message in err

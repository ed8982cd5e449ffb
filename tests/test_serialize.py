"""Circuit file round-trip and error reporting."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matchsim.circuit import (
    BitsBlock,
    Circuit,
    Computational,
    EntangledBlock,
    Gate,
    Guard,
    InputSpec,
    MagicBlock,
    MatchgateAngles,
    Measure,
    ProductBlock,
    Tilted,
    matchgate_from_angles,
    matchgate_from_components,
)
from matchsim.cli import main
from matchsim.errors import CircuitSyntaxError, ValidationError
from matchsim.serialize import parse_circuit, serialize_circuit


MINIMAL = '{"input":[{"kind":"bits","value":"0"}],"n":1,"program":[{"op":"measure","line":1,"id":"x0","role":"final","basis":{"kind":"computational"}}]}'


def test_minimal_file_parses():
    c = parse_circuit(MINIMAL)
    assert c.n == 1
    assert len(c.program) == 1
    assert c.program[0].record_id == "x0"


def test_parse_accepts_bytes():
    c = parse_circuit(MINIMAL.encode("utf-8"))
    assert c.n == 1


def test_gate_on_line_n_fails_validation():
    text = (
        '{"n":2,"input":[{"kind":"bits","value":"00"}],'
        '"program":[{"op":"gate","line":2,"angles":[0,0,0,0,0,0]},'
        '{"op":"measure","line":1,"id":"x","role":"final"}]}'
    )
    with pytest.raises(ValidationError, match="nearest-neighbour"):
        parse_circuit(text)


def test_syntax_error_carries_position():
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit('{"n": 1, "input": [}')
    assert exc.value.line == 1
    assert exc.value.column is not None


def _adaptive_circuit_doc():
    rng = np.random.default_rng(42)
    program = []
    for i in range(8):
        program.append(
            {"op": "gate", "line": 1 + int(rng.integers(0, 3)),
             "angles": [float(a) for a in rng.uniform(0, 2 * np.pi, 6)]}
        )
    program.append({"op": "measure", "line": 2, "id": "m1", "role": "intermediate",
                    "basis": {"kind": "computational"}})
    for i in range(8):
        obj = {"op": "gate", "line": 1 + int(rng.integers(0, 3)),
               "angles": [float(a) for a in rng.uniform(0, 2 * np.pi, 6)]}
        if i % 2:
            obj["guard"] = {"ids": ["m1"], "parity": 1}
        program.append(obj)
    program.append({"op": "measure", "line": 3, "id": "m2", "role": "intermediate",
                    "basis": {"kind": "computational"}})
    program.append({"op": "gate", "line": 1,
                    "matrix": {"a": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]],
                               "b": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                    "guard": {"ids": ["m1", "m2"], "parity": 0}})
    for j in range(2):
        program.append({"op": "measure", "line": 1 + j, "id": f"x{j}", "role": "final",
                        "basis": {"kind": "computational"}})
    return {"n": 4, "input": [{"kind": "bits", "value": "0010"}], "program": program}


def test_roundtrip_is_serializer_fixpoint():
    import json

    doc = _adaptive_circuit_doc()
    c1 = parse_circuit(json.dumps(doc))
    text1 = serialize_circuit(c1)
    c2 = parse_circuit(text1)
    text2 = serialize_circuit(c2)
    assert text1 == text2  # byte-identical canonical form
    assert len(c2.program) == len(c1.program)


def test_roundtrip_preserves_representation_and_values():
    doc = _adaptive_circuit_doc()
    import json

    c = parse_circuit(json.dumps(doc))
    c2 = parse_circuit(serialize_circuit(c))
    for a, b in zip(c.program, c2.program):
        if isinstance(a, Gate):
            assert np.allclose(a.gate.matrix(), b.gate.matrix(), atol=1e-15)
            assert (a.angles is None) == (b.angles is None)
            assert a.guard == b.guard
        else:
            assert a == b


def test_all_block_kinds_roundtrip():
    text = (
        '{"n":9,"input":['
        '{"kind":"bits","value":"01"},'
        '{"kind":"product","states":[[0.6,0,0.8,0]]},'
        '{"kind":"entangled","k":2,"amps":[[0.7071067811865476,0],[0,0],[0,0],[0.7071067811865476,0]]},'
        '{"kind":"magic"}],'
        '"program":[{"op":"measure","line":1,"id":"x","role":"final"}]}'
    )
    c = parse_circuit(text)
    assert c.input.n == 9
    t = serialize_circuit(c)
    c2 = parse_circuit(t)
    assert serialize_circuit(c2) == t
    kinds = [type(b) for b in c2.input.blocks]
    assert kinds == [BitsBlock, ProductBlock, EntangledBlock, MagicBlock]


def test_macro_roundtrip():
    text = (
        '{"n":3,"input":[{"kind":"bits","value":"000"}],'
        '"program":[{"op":"macro","name":"swap","line":1},'
        '{"op":"measure","line":1,"id":"x","role":"final"}]}'
    )
    c = parse_circuit(text)
    assert c.program[0].name == "swap"
    assert c.program[0].param("line") == 1
    assert parse_circuit(serialize_circuit(c)).program[0] == c.program[0]


def test_guard_serialization_sorted_ids():
    from matchsim.circuit import Circuit, Gate, Measure, bits_input, matchgate_from_angles

    g = Gate(0, matchgate_from_angles(MatchgateAngles(0, 0, 0, 0, 0, 0)),
             Guard(frozenset({"b", "a"}), 1), MatchgateAngles(0, 0, 0, 0, 0, 0))
    c = Circuit(2, bits_input("00"),
                (Measure(0, "a", "intermediate"), Measure(1, "b", "intermediate"), g,
                 Measure(0, "x", "final")))
    text = serialize_circuit(c.validate())
    assert '"ids":["a","b"]' in text


@st.composite
def _valid_circuits(draw):
    """Circuits over every block kind, with angle and matrix gates, parity
    guards on earlier intermediates, and computational and tilted bases."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def unit(dim):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v)

    blocks = []
    for kind in draw(st.lists(st.sampled_from(["bits", "product", "entangled", "magic"]),
                              min_size=1, max_size=4)):
        if kind == "bits":
            blocks.append(BitsBlock(draw(st.text("01", min_size=1, max_size=3))))
        elif kind == "product":
            blocks.append(ProductBlock(tuple(unit(2) for _ in range(draw(st.integers(1, 2))))))
        elif kind == "entangled":
            k = draw(st.integers(1, 2))
            blocks.append(EntangledBlock(k, unit(2 ** k)))
        else:
            blocks.append(MagicBlock())
    spec = InputSpec(tuple(blocks))
    n = spec.n
    bases = st.one_of(st.just(Computational()),
                      st.builds(Tilted, st.floats(1e-3, np.pi / 4), st.floats(-np.pi, np.pi)))
    program, inters = [], []
    for op in draw(st.lists(st.sampled_from(["angles", "matrix", "measure"]), max_size=8)):
        if op == "measure":
            rid = f"m{len(inters)}"
            program.append(Measure(int(rng.integers(n)), rid, "intermediate", draw(bases)))
            inters.append(rid)
            continue
        if n < 2:
            continue
        guard = None
        if inters and draw(st.booleans()):
            guard = Guard(frozenset(draw(st.lists(st.sampled_from(inters), min_size=1,
                                                  unique=True))), draw(st.integers(0, 1)))
        angles = MatchgateAngles(*rng.uniform(0, 2 * np.pi, 6).tolist())
        g = matchgate_from_angles(angles)
        line = int(rng.integers(n - 1))
        if op == "angles":
            program.append(Gate(line, g, guard, angles))
        else:
            program.append(Gate(line, matchgate_from_components(g.a, g.b), guard, None))
    program.append(Measure(int(rng.integers(n)), "x", "final", draw(bases)))
    return Circuit(n, spec, tuple(program)).validate()


@settings(max_examples=25, deadline=None)
@given(c=_valid_circuits())
def test_serialization_is_byte_stable(c):
    text = serialize_circuit(c)
    assert serialize_circuit(parse_circuit(text)) == text


def _numeric_leaves(node, path=()):
    """Paths of the JSON numbers in a document, bools excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, (*path, key))


_NOT_A_NUMBER = ["text", "array", True, False, None, float("nan"), float("inf")]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=_valid_circuits(), data=st.data())
def test_non_number_leaf_exits_2(tmp_path, capsys, c, data):
    """Every number of a valid document replaced by its decimal text, a
    bool, null, a non-finite value or a one-element array is malformed."""
    doc = json.loads(serialize_circuit(c))
    *parents, key = data.draw(st.sampled_from(list(_numeric_leaves(doc))))
    node = doc
    for step in parents:
        node = node[step]
    new = data.draw(st.sampled_from(_NOT_A_NUMBER))
    node[key] = str(node[key]) if new == "text" else [node[key]] if new == "array" else new
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    finals = len(c.measurements("final"))
    for argv in (["prob", str(path), "-p", "0" * finals, "--backend", "oracle"],
                 ["gadget", "expand", str(path)]):
        code = main(argv)
        assert (code, capsys.readouterr().out) == (2, "")


def _paths(node, path=()):
    """Path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


_REPLACEMENTS = [{}, [], "x", None, True, 1.5, -1, [[]]]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=_valid_circuits(), data=st.data())
def test_structural_mutation_keeps_exit_contract(tmp_path, capsys, c, data):
    """One value of a valid document dropped, wrapped in a one-element array
    or replaced by another JSON shape: every command exits 0, 2 or 3, and
    prints nothing unless it exits 0."""
    doc = json.loads(serialize_circuit(c))
    *parents, key = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for step in parents:
        node = node[step]
    mutation = data.draw(st.sampled_from(["drop", "wrap", *_REPLACEMENTS]))
    if mutation == "drop":
        del node[key]
    elif mutation == "wrap":
        node[key] = [node[key]]
    else:
        node[key] = mutation
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    zeros = "0" * len(c.measurements("final"))
    for argv in (["prob", str(path), "-p", zeros, "--backend", "oracle"],
                 ["prob", str(path), "-p", zeros],
                 ["gadget", "expand", str(path)]):
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2, 3)
        assert code == 0 or out == ""

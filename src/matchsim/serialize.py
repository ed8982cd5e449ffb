"""Circuit file format: UTF-8 JSON, 1-based lines, canonical serialization.

Canonical form: keys sorted, compact separators, floats as the shortest
round-trip decimal, trailing newline.  ``parse_circuit(serialize_circuit(c))``
is the identity on canonical text.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .circuit import (
    BitsBlock,
    Circuit,
    Computational,
    EntangledBlock,
    Gate,
    Guard,
    InputSpec,
    Macro,
    MagicBlock,
    MatchgateAngles,
    Measure,
    ProductBlock,
    Tilted,
    matchgate_from_angles,
    matchgate_from_components,
)
from .errors import CircuitSyntaxError, ValidationError


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _convert(value, convert, what):
    """``convert(value)``; a value of the wrong type or form is a syntax
    error, not a crash."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CircuitSyntaxError(f"{what}: bad value {value!r}") from exc


def _field(obj, key, convert, what):
    """``convert(obj[key])``; a missing or unconvertible field is a syntax
    error, not a crash."""
    if key not in obj:
        raise CircuitSyntaxError(f"{what}: missing field {key!r}")
    return _convert(obj[key], convert, f"{what}: field {key!r}")


def _string(value):
    """A record id or name: a JSON string, never another value's text."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value):
    """A count, line or parity: a JSON integer, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _real(value):
    """An angle or amplitude part: a finite JSON number, never a bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _list(obj, key, what):
    """``obj[key]`` (default empty), which must be a JSON array."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise CircuitSyntaxError(f"{what}: {key!r} must be an array, got {value!r}")
    return value


def _pair2c(p, what):
    if not (isinstance(p, list) and len(p) == 2):
        raise CircuitSyntaxError(f"{what}: expected [re, im] pair, got {p!r}")
    return complex(_convert(p[0], _real, what), _convert(p[1], _real, what))


def matrix2json(m):
    """A complex matrix as rows of [re, im] pairs."""
    return [[_c2pair(m[r, c]) for c in range(m.shape[1])] for r in range(m.shape[0])]


def json2matrix(rows, shape, what):
    """The complex ``shape`` matrix written as rows of [re, im] pairs;
    anything else is a syntax error."""
    if not (isinstance(rows, list) and len(rows) == shape[0]):
        raise CircuitSyntaxError(f"{what}: expected {shape[0]} rows")
    m = np.zeros(shape, dtype=complex)
    for r, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == shape[1]):
            raise CircuitSyntaxError(f"{what}: row {r} must have {shape[1]} entries")
        for c, p in enumerate(row):
            m[r, c] = _pair2c(p, what)
    return m


def _block_to_json(block):
    if isinstance(block, BitsBlock):
        return {"kind": "bits", "value": block.bits}
    if isinstance(block, ProductBlock):
        states = []
        for s in block.states:
            states.append([float(np.real(s[0])), float(np.imag(s[0])),
                           float(np.real(s[1])), float(np.imag(s[1]))])
        return {"kind": "product", "states": states}
    if isinstance(block, EntangledBlock):
        return {"kind": "entangled", "k": block.k, "amps": [_c2pair(a) for a in block.amps]}
    if isinstance(block, MagicBlock):
        return {"kind": "magic"}
    raise ValidationError("input-kind", f"cannot serialize block {block!r}")


def _block_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CircuitSyntaxError(f"input block must be an object with 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "bits":
        return BitsBlock(_convert(obj.get("value", ""), _string, "bits block: field 'value'"))
    if kind == "product":
        states = []
        for s in _list(obj, "states", "product block"):
            if not (isinstance(s, list) and len(s) == 4):
                raise CircuitSyntaxError("product state must be [re0, im0, re1, im1]")
            states.append(np.array([_pair2c(s[:2], "product state"),
                                    _pair2c(s[2:], "product state")]))
        return ProductBlock(tuple(states))
    if kind == "entangled":
        k = _convert(obj.get("k", 0), _integer, "entangled block: field 'k'")
        amps = np.array([_pair2c(p, "entangled amps")
                         for p in _list(obj, "amps", "entangled block")])
        return EntangledBlock(k, amps)
    if kind == "magic":
        return MagicBlock()
    raise CircuitSyntaxError(f"unknown input block kind {kind!r}")


def _guard_to_json(guard):
    return {"ids": sorted(guard.ids), "parity": guard.parity}


def _guard_from_json(obj):
    if not isinstance(obj, dict):
        raise CircuitSyntaxError("guard must be an object")
    ids = frozenset(_convert(i, _string, "guard: ids") for i in _list(obj, "ids", "guard"))
    return Guard(ids, _convert(obj.get("parity", 0), _integer, "guard: field 'parity'"))


def _basis_to_json(basis):
    if isinstance(basis, Computational):
        return {"kind": "computational"}
    return {"kind": "tilted", "x": float(basis.x), "phase": float(basis.phase)}


def _basis_from_json(obj):
    if obj is None:
        return Computational()
    if not isinstance(obj, dict):
        raise CircuitSyntaxError(f"basis must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "computational":
        return Computational()
    if kind == "tilted":
        return Tilted(_field(obj, "x", _real, "tilted basis"),
                      _convert(obj.get("phase", 0.0), _real, "tilted basis: field 'phase'"))
    raise CircuitSyntaxError(f"unknown basis kind {kind!r}")


def _instruction_to_json(ins):
    if isinstance(ins, Gate):
        obj = {"op": "gate", "line": ins.line + 1}
        if ins.angles is not None:
            obj["angles"] = [float(v) for v in ins.angles.as_tuple()]
        else:
            obj["matrix"] = {"a": matrix2json(ins.gate.a), "b": matrix2json(ins.gate.b)}
        if ins.guard is not None:
            obj["guard"] = _guard_to_json(ins.guard)
        return obj
    if isinstance(ins, Measure):
        return {
            "op": "measure",
            "line": ins.line + 1,
            "id": ins.record_id,
            "role": ins.role,
            "basis": _basis_to_json(ins.basis),
        }
    if isinstance(ins, Macro):
        obj = {"op": "macro", "name": ins.name}
        for k, v in ins.params:
            obj[k] = v
        return obj
    raise ValidationError("instruction", f"cannot serialize {ins!r}")


def _instruction_from_json(obj, idx):
    if not isinstance(obj, dict) or "op" not in obj:
        raise CircuitSyntaxError(f"program[{idx}] must be an object with 'op'")
    op = obj["op"]
    where = f"program[{idx}]"
    if op == "gate":
        line = _field(obj, "line", _integer, where) - 1
        guard = _guard_from_json(obj["guard"]) if "guard" in obj else None
        if "angles" in obj:
            vals = obj["angles"]
            if not (isinstance(vals, list) and len(vals) == 6):
                raise CircuitSyntaxError(f"program[{idx}]: angles must have 6 entries")
            ang = MatchgateAngles(*[_convert(v, _real, f"{where}.angles") for v in vals])
            return Gate(line, matchgate_from_angles(ang), guard, ang)
        if "matrix" in obj:
            m = obj["matrix"]
            if not isinstance(m, dict):
                raise CircuitSyntaxError(f"{where}: matrix must be an object with 'a' and 'b'")
            a = json2matrix(m.get("a"), (2, 2), f"{where}.matrix.a")
            b = json2matrix(m.get("b"), (2, 2), f"{where}.matrix.b")
            return Gate(line, matchgate_from_components(a, b), guard, None)
        raise CircuitSyntaxError(f"program[{idx}]: gate needs 'angles' or 'matrix'")
    if op == "measure":
        return Measure(
            line=_field(obj, "line", _integer, where) - 1,
            record_id=_field(obj, "id", _string, where),
            role=str(obj.get("role", "final")),
            basis=_basis_from_json(obj.get("basis")),
        )
    if op == "macro":
        params = {k: v for k, v in obj.items() if k not in ("op", "name")}
        return Macro.make(_field(obj, "name", _string, where), **params)
    raise CircuitSyntaxError(f"program[{idx}]: unknown op {op!r}")


def circuit_to_document(circuit: Circuit) -> dict:
    return {
        "n": circuit.n,
        "input": [_block_to_json(b) for b in circuit.input.blocks],
        "program": [_instruction_to_json(i) for i in circuit.program],
    }


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form of a circuit."""
    doc = circuit_to_document(circuit)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def parse_circuit(text) -> Circuit:
    """Parse and validate a circuit file (str or bytes)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise CircuitSyntaxError("top level must be a JSON object")
    n = _field(doc, "n", _integer, "circuit")
    blocks = [_block_from_json(b) for b in _list(doc, "input", "circuit")]
    program = [_instruction_from_json(o, i)
               for i, o in enumerate(_list(doc, "program", "circuit"))]
    circuit = Circuit(n, InputSpec(tuple(blocks)), tuple(program))
    circuit.validate()
    return circuit

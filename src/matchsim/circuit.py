"""Matchgate circuit model: gates, adaptive programs, input specifications.

Lines are 0-based everywhere in code; the file format (see ``serialize``)
is 1-based, and the parser and ``Macro.line`` are the only translation
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    DeterminantMismatch,
    NotUnitary,
    UnresolvedGuard,
    ValidationError,
)

UNITARY_TOL = 1e-10  # 100x double-precision accumulation error for 2x2 products
NORM_TOL = 1e-12
MAX_BLOCK_QUBITS = 20  # parse-time cap on entangled block width

# The 4-qubit magic state |Phi+>_13 |Phi+>_24, written in the computational
# basis with line 1 as the most significant bit.
MAGIC_AMPS = np.zeros(16, dtype=complex)
MAGIC_AMPS[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.5


def _check_unitary(m, which):
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise NotUnitary(which, float("inf"))
    residual = np.max(np.abs(m.conj().T @ m - np.eye(2)))
    if residual > UNITARY_TOL:
        raise NotUnitary(which, residual)
    return m


@dataclass(frozen=True, eq=False)
class Matchgate:
    """Two-qubit gate acting as ``a`` on the even- and ``b`` on the odd-parity
    subspace, with det(a) = det(b).

    This is the only multi-qubit primitive of the circuit model.
    """

    a: np.ndarray
    b: np.ndarray

    def matrix(self) -> np.ndarray:
        """4x4 unitary in the computational basis |00>, |01>, |10>, |11>."""
        a, b = self.a, self.b
        u = np.zeros((4, 4), dtype=complex)
        u[0, 0], u[0, 3], u[3, 0], u[3, 3] = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        u[1, 1], u[1, 2], u[2, 1], u[2, 2] = b[0, 0], b[0, 1], b[1, 0], b[1, 1]
        return u


def matchgate_from_components(a, b) -> Matchgate:
    """Validate (a, b) and build the matchgate G(a, b).

    The gate keeps read-only copies of ``a`` and ``b``: its rotation block is
    cached by identity, so the gate must not change after it is built.
    Raises NotUnitary or DeterminantMismatch with the offending residual.
    """
    a = _check_unitary(a, "a").copy()
    b = _check_unitary(b, "b").copy()
    residual = abs(np.linalg.det(a) - np.linalg.det(b))
    if residual > UNITARY_TOL:
        raise DeterminantMismatch(residual)
    a.flags.writeable = b.flags.writeable = False
    return Matchgate(a, b)


@dataclass(frozen=True)
class MatchgateAngles:
    """Angle parametrization: local Z-phases around an XX+YY interaction.

    Every finite angle tuple yields a valid matchgate.
    """

    alpha: float
    beta: float
    phi1: float
    phi2: float
    phi3: float
    phi4: float

    def as_tuple(self):
        return (self.alpha, self.beta, self.phi1, self.phi2, self.phi3, self.phi4)


def _exp_iz(phi):
    return np.array([[np.exp(1j * phi), 0], [0, np.exp(-1j * phi)]])


def _exp_ix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]])


def matchgate_from_angles(angles: MatchgateAngles) -> Matchgate:
    """Build the matchgate (exp(i p3 Z) x exp(i p4 Z)) exp(i(a XX + b YY))
    (exp(i p1 Z) x exp(i p2 Z)).

    On the even-parity subspace XX acts as X and YY as -X, on the odd-parity
    subspace both act as X, so the product collapses to 2x2 factors.
    """
    al, be, p1, p2, p3, p4 = angles.as_tuple()
    a = _exp_iz(p3 + p4) @ _exp_ix(al - be) @ _exp_iz(p1 + p2)
    b = _exp_iz(p3 - p4) @ _exp_ix(al + be) @ _exp_iz(p1 - p2)
    return matchgate_from_components(a, b)


def gates_equal_up_to_phase(u, v, tol=1e-9) -> bool:
    """Global phase of a matchgate is not normalized; compare up to phase."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    k = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[k]) < tol:
        return bool(np.max(np.abs(u - v)) < tol)
    phase = u[k] / v[k]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(u - phase * v)) < tol)


# Common gates
FSWAP = matchgate_from_components(np.diag([1, -1]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex))
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
HADAMARD_PAIR = matchgate_from_components(H2, H2)


@dataclass(frozen=True)
class Guard:
    """Parity condition over earlier measurement outcomes.

    The guarded instruction fires iff XOR of the referenced outcome bits
    equals ``parity``.
    """

    ids: frozenset
    parity: int

    def __post_init__(self):
        object.__setattr__(self, "ids", frozenset(self.ids))
        if self.parity not in (0, 1):
            raise ValidationError("guard-parity", f"parity must be 0 or 1, got {self.parity}")

    def fires(self, outcomes) -> bool:
        acc = 0
        for rid in self.ids:
            if rid not in outcomes:
                raise UnresolvedGuard(f"guard references unassigned record {rid!r}")
            acc ^= int(outcomes[rid])
        return acc == self.parity


@dataclass(frozen=True)
class Computational:
    """Measurement in the computational basis {|0>, |1>}."""


@dataclass(frozen=True)
class Tilted:
    """Single-qubit basis {cos x |0> + e^{i phase} sin x |1>,
    sin x |0> - e^{i phase} cos x |1>} with x in (0, pi/4]."""

    x: float
    phase: float = 0.0

    def vectors(self):
        c, s, ph = np.cos(self.x), np.sin(self.x), np.exp(1j * self.phase)
        v0 = np.array([c, ph * s], dtype=complex)
        v1 = np.array([s, -ph * c], dtype=complex)
        return v0, v1


Basis = Union[Computational, Tilted]


@dataclass(frozen=True, eq=False)
class Gate:
    """Matchgate on lines (line, line+1), optionally guarded.

    ``angles`` is kept when the gate was specified that way, so serialization
    round-trips the original representation.
    """

    line: int
    gate: Matchgate
    guard: Optional[Guard] = None
    angles: Optional[MatchgateAngles] = None


@dataclass(frozen=True)
class Measure:
    line: int
    record_id: str
    role: str  # "intermediate" | "final"
    basis: Basis = field(default_factory=Computational)


@dataclass(frozen=True)
class Macro:
    """Unresolved gadget macro; rejected by every backend until expanded."""

    name: str
    params: tuple  # sorted (key, value) pairs, hashable

    @staticmethod
    def make(name, **params):
        return Macro(name, tuple(sorted(params.items())))

    def param(self, key):
        return dict(self.params).get(key)

    def line(self, key, n, value=None):
        """Parameter ``key`` (or ``value``, an element of it) as a 0-based
        line; the file gives it 1-based, as an integer in 1..n."""
        value = self.param(key) if value is None else value
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= n:
            raise ValidationError(
                "macro", f"{self.name}: {key!r} must be a line in 1..{n}, got {value!r}")
        return value - 1


# ---------------------------------------------------------------------------
# Input specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitsBlock:
    bits: str

    @property
    def n(self):
        return len(self.bits)

    def state(self):
        v = np.zeros(2 ** self.n, dtype=complex)
        v[int(self.bits, 2)] = 1.0
        return v


@dataclass(frozen=True, eq=False)
class ProductBlock:
    states: tuple  # of length-2 complex arrays

    @property
    def n(self):
        return len(self.states)

    def state(self):
        v = np.array([1.0], dtype=complex)
        for s in self.states:
            v = np.kron(v, s)
        return v


@dataclass(frozen=True, eq=False)
class EntangledBlock:
    k: int
    amps: np.ndarray

    @property
    def n(self):
        return self.k

    def state(self):
        return np.array(self.amps, dtype=complex)


@dataclass(frozen=True)
class MagicBlock:
    """Sugar for the 4-qubit state |Phi+>_13 |Phi+>_24."""

    @property
    def n(self):
        return 4

    def state(self):
        return MAGIC_AMPS.copy()


@dataclass(frozen=True, eq=False)
class InputSpec:
    """Ordered blocks of input state, covering lines left to right."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def n(self):
        return sum(b.n for b in self.blocks)

    def state(self):
        """Dense 2^n state vector, line 0 as the most significant bit."""
        v = np.array([1.0], dtype=complex)
        for b in self.blocks:
            v = np.kron(v, b.state())
        return v

    def validate(self):
        for b in self.blocks:
            if isinstance(b, BitsBlock):
                if not b.bits or any(c not in "01" for c in b.bits):
                    raise ValidationError("input-bits", f"bad bitstring {b.bits!r}")
            elif isinstance(b, ProductBlock):
                for s in b.states:
                    s = np.asarray(s)
                    if s.shape != (2,):
                        raise ValidationError("input-product", "states must be 2-vectors")
                    _check_normalized(s, "product state")
            elif isinstance(b, EntangledBlock):
                if b.k < 1 or b.k > MAX_BLOCK_QUBITS:
                    raise ValidationError(
                        "input-block-width", f"entangled block width {b.k} outside [1, {MAX_BLOCK_QUBITS}]"
                    )
                amps = np.asarray(b.amps)
                if amps.shape != (2 ** b.k,):
                    raise ValidationError("input-block-shape", "amplitude vector has wrong length")
                _check_normalized(amps, "entangled block")
            elif isinstance(b, MagicBlock):
                pass
            else:
                raise ValidationError("input-kind", f"unknown block {b!r}")


def _check_normalized(v, what):
    # the norm test alone is False for NaN, so finiteness is checked first
    if not np.all(np.isfinite(v)):
        raise ValidationError("input-finite", f"{what} has a non-finite amplitude")
    if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise ValidationError("input-norm", f"{what} not normalized")


def bits_input(bits: str) -> InputSpec:
    return InputSpec((BitsBlock(bits),))


# ---------------------------------------------------------------------------
# Circuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Circuit:
    """Nearest-neighbour matchgate program over ``n`` lines.

    Immutable after construction; safe to share across threads.
    """

    n: int
    input: InputSpec
    program: tuple

    def __post_init__(self):
        object.__setattr__(self, "program", tuple(self.program))

    def validate(self) -> "Circuit":
        self.input.validate()
        if self.input.n != self.n:
            raise ValidationError(
                "line-count", f"input blocks cover {self.input.n} lines, circuit has {self.n}"
            )
        seen = {}
        any_final = False
        for idx, ins in enumerate(self.program):
            if isinstance(ins, Gate):
                if not (0 <= ins.line <= self.n - 2):
                    raise ValidationError(
                        "nearest-neighbour",
                        f"gate line {ins.line + 1} out of range 1..{self.n - 1} (upper line of a pair)",
                    )
                if ins.guard is not None:
                    for rid in ins.guard.ids:
                        if rid not in seen:
                            raise ValidationError(
                                "guard-earlier",
                                f"guard references record {rid!r} not measured earlier",
                            )
                        if seen[rid] == "final":
                            raise ValidationError(
                                "guard-final", f"guard references final record {rid!r}"
                            )
            elif isinstance(ins, Measure):
                if not (0 <= ins.line <= self.n - 1):
                    raise ValidationError("measure-line", f"line {ins.line + 1} out of range")
                if ins.record_id in seen:
                    raise ValidationError("record-unique", f"duplicate record id {ins.record_id!r}")
                if ins.role not in ("intermediate", "final"):
                    raise ValidationError("measure-role", f"bad role {ins.role!r}")
                if isinstance(ins.basis, Tilted) and not (0 < ins.basis.x <= np.pi / 4 + 1e-12):
                    raise ValidationError("tilted-angle", "tilt angle must lie in (0, pi/4]")
                seen[ins.record_id] = ins.role
                any_final = any_final or ins.role == "final"
            elif isinstance(ins, Macro):
                pass
            else:
                raise ValidationError("instruction", f"unknown instruction {ins!r}")
        if not any_final:
            raise ValidationError("final-measurement", "circuit has no final measurement")
        return self

    # -- program structure helpers ------------------------------------------

    def gates(self):
        return [i for i in self.program if isinstance(i, Gate)]

    def measurements(self, role=None):
        out = [i for i in self.program if isinstance(i, Measure)]
        if role is not None:
            out = [m for m in out if m.role == role]
        return out

    def macros(self):
        return [i for i in self.program if isinstance(i, Macro)]

    def has_macros(self):
        return any(isinstance(i, Macro) for i in self.program)


def instantiate_segments(circuit: Circuit, outcomes, upto=None) -> list:
    """Split the program at its intermediate measurements and resolve the
    guards against ``outcomes``, in one walk: segment t holds the gates that
    fire between intermediate measurement t-1 and t, and the last segment
    those after the last one.  Segments 0..t concatenated are the gate
    sequence applied up to the t-th intermediate measurement.

    ``upto`` stops the walk after the first ``upto`` segments (all, if None),
    so only their guards need ``outcomes``: a guard it meets on an
    unassigned record raises UnresolvedGuard.  Gates after a final
    measurement are rejected when a backend builds its plan
    (``pfaffian.plan``), not here.
    """
    if upto == 0:
        return []
    resolved = [[]]
    for ins in circuit.program:
        if isinstance(ins, Macro):
            raise ValidationError("macro", "circuit contains unexpanded macros")
        if isinstance(ins, Gate):
            if ins.guard is None or ins.guard.fires(outcomes):
                resolved[-1].append(ins)
        elif ins.role == "intermediate":
            if len(resolved) == upto:
                break
            resolved.append([])
    return resolved

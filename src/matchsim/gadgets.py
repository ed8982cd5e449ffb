"""Gadget constructions: circuit-rewriting into matchgate + measurement
primitives.

Every public gadget returns a GadgetExpansion; correctness of each expansion
is an up-to-global-phase state equality on the dense oracle, quantified over
all adaptive branches with nonzero probability (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    BitsBlock,
    Circuit,
    Computational,
    EntangledBlock,
    FSWAP,
    Gate,
    Guard,
    H2,
    HADAMARD_PAIR,
    InputSpec,
    Macro,
    MagicBlock,
    Matchgate,
    MatchgateAngles,
    Measure,
    ProductBlock,
    Tilted,
    gates_equal_up_to_phase,
    matchgate_from_angles,
    matchgate_from_components,
)
from .errors import (
    DecompositionFailure,
    DeterminantMismatch,
    NotUnitary,
    UnsupportedLayout,
    ValidationError,
)
from .serialize import json2matrix

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
XHX = X2 @ H2 @ X2
MINUS_Z = np.diag([-1.0, 1.0]).astype(complex)
FSWAP_MINUS = matchgate_from_components(MINUS_Z, X2)
XX_PAIR = matchgate_from_components(X2, X2)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

ANGLE_EPS = 1e-12
# residual tolerances of the unitary decompositions
DECOMP_TOL = 1e-10  # unitarity, Euler angles, canonical reconstruction
FORM_TOL = 1e-9  # the P H P form and the tensor-product split
DEGENERACY_TOL = 1e-8  # equal eigenvalues in the simultaneous diagonalization


@dataclass
class GadgetCost:
    gates: int = 0
    measurements: int = 0
    ancilla_lines: int = 0
    magic_consumed: int = 0

    def __iadd__(self, other):
        self.gates += other.gates
        self.measurements += other.measurements
        self.ancilla_lines += other.ancilla_lines
        self.magic_consumed += other.magic_consumed
        return self


@dataclass
class GadgetExpansion:
    """Instructions to splice in and the resources they cost."""

    instructions: list = field(default_factory=list)
    cost: GadgetCost = field(default_factory=GadgetCost)

    def gate(self, line, mg, guard=None):
        self.instructions.append(Gate(line, mg, guard))
        self.cost.gates += 1

    def measure(self, line, rid, basis=None):
        self.instructions.append(Measure(line, rid, "intermediate", basis or Computational()))
        self.cost.measurements += 1

    def extend(self, other: "GadgetExpansion"):
        self.instructions.extend(other.instructions)
        self.cost += other.cost


class IdGen:
    """Fresh record ids avoiding a set of taken names."""

    def __init__(self, taken=(), prefix="g"):
        self.taken = set(taken)
        self.prefix = prefix
        self.counter = 0

    def fresh(self, hint=""):
        while True:
            rid = f"{self.prefix}{hint}{self.counter}"
            self.counter += 1
            if rid not in self.taken:
                self.taken.add(rid)
                return rid


# ---------------------------------------------------------------------------
# Primitive emission helpers
# ---------------------------------------------------------------------------


def phase_gate_on(exp: GadgetExpansion, line, phi, pair_line):
    """e^{i phi Z} on ``line``, ``pair_line`` or the line after it, embedded
    as a matchgate on that pair; phases that reduce to a global sign are
    dropped."""
    if abs(np.remainder(phi, np.pi)) < ANGLE_EPS or abs(np.remainder(phi, np.pi) - np.pi) < ANGLE_EPS:
        return
    p = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    exp.gate(pair_line, matchgate_from_components(p, p if line == pair_line else p.conj()))


def xx_yy_gate(a, b) -> Matchgate:
    """exp(i (a XX + b YY)), a native matchgate."""
    return matchgate_from_angles(MatchgateAngles(a, b, 0, 0, 0, 0))


def fswap_ladder(from_line, to_line, known_bits=None, guard_ids=None) -> GadgetExpansion:
    """Move one line's content across the register by adjacent fermionic
    swaps, each exact on the moved content.

    ``guard_ids`` gives the measurement records whose parity is the moved
    line's bit, selecting a complementary guarded G(Z,X)/G(-Z,X) pair at run
    time; ``known_bits`` maps crossed lines to compile-time-known bits, and
    crossing a known |1> uses the static G(-Z,X).  Other crossings use the
    plain fSWAP.
    """
    exp = GadgetExpansion()
    known_bits = known_bits or {}
    guard_ids = frozenset(guard_ids or ())
    step = 1 if to_line > from_line else -1
    for pos in range(from_line, to_line, step):
        upper = min(pos, pos + step)
        if guard_ids:
            exp.gate(upper, FSWAP, Guard(guard_ids, 0))
            exp.gate(upper, FSWAP_MINUS, Guard(guard_ids, 1))
        elif known_bits.get(pos + step, 0):
            exp.gate(upper, FSWAP_MINUS)
        else:
            exp.gate(upper, FSWAP)
    return exp


def _measure_and_sink(exp: GadgetExpansion, lines, bottom, ids: IdGen, hint):
    """Dispose of ``lines`` in turn: measure each into a fresh record, then
    sink it to ``bottom``, ``bottom - 1``, ... with fSWAPs guarded by that
    record."""
    for k, line in enumerate(lines):
        rec = ids.fresh(hint)
        exp.measure(line, rec)
        exp.extend(fswap_ladder(line, bottom - k, guard_ids={rec}))


# ---------------------------------------------------------------------------
# Hadamard gadget and single-qubit unitaries
# ---------------------------------------------------------------------------


def hadamard_gadget(target, ancilla) -> GadgetExpansion:
    """Hadamard on ``target`` against an adjacent |+> ancilla.

    A single G(H,H) with the ancilla below the target; the swap-conjugated
    variant G(H, XHX) when the ancilla sits above.  Leaves the ancilla in
    |+>.
    """
    exp = GadgetExpansion()
    if ancilla == target + 1:
        exp.gate(target, HADAMARD_PAIR)
    elif ancilla == target - 1:
        exp.gate(ancilla, matchgate_from_components(H2, XHX))
    else:
        raise ValidationError("macro", "ancilla must be adjacent to target")
    return exp


def euler_phase_x_phase(u):
    """Decompose a 2x2 unitary as e^{i delta} e^{i a Z} e^{i theta X} e^{i c Z}.

    Returns (a, theta, c); the global phase is discarded.  Raises
    DecompositionFailure for non-unitary input.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > DECOMP_TOL:
        raise DecompositionFailure("input is not a 2x2 unitary")
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    w, z = su[0, 0], su[0, 1]
    theta = np.arctan2(abs(z), abs(w))
    apc = np.angle(w) if abs(w) > DECOMP_TOL else 0.0
    amc = np.angle(z) - np.pi / 2 if abs(z) > DECOMP_TOL else 0.0
    a = (apc + amc) / 2
    c = (apc - amc) / 2
    return a, theta, c


def _single_h_form(u):
    """Try u = e^{i gamma} P(phi1) H P(phi2); returns (phi1, phi2) or None."""
    if np.max(np.abs(np.abs(u) - 1 / np.sqrt(2))) > FORM_TOL:
        return None
    gamma = (np.angle(u[0, 1]) + np.angle(u[1, 0])) / 2
    phi1 = (np.angle(u[0, 0]) + np.angle(u[0, 1])) / 2 - gamma
    phi2 = (np.angle(u[0, 0]) + np.angle(u[1, 0])) / 2 - gamma
    p1 = np.diag([np.exp(1j * phi1), np.exp(-1j * phi1)])
    p2 = np.diag([np.exp(1j * phi2), np.exp(-1j * phi2)])
    recon = p1 @ H2 @ p2
    if gates_equal_up_to_phase(u, recon, FORM_TOL):
        return phi1, phi2
    return None


def single_qubit_unitary(target, u, ancilla) -> GadgetExpansion:
    """Arbitrary single-qubit unitary on ``target`` from phase gates and
    Hadamard gadgets against an adjacent |+> ancilla, up to global phase.

    Diagonal unitaries cost one phase gate and no gadget uses; unitaries of
    the form P H P cost a single gadget use.
    """
    if abs(target - ancilla) != 1:
        raise ValidationError("macro", "ancilla must be adjacent to target")
    u = np.asarray(u, dtype=complex)
    exp = GadgetExpansion()
    pair = min(target, ancilla)
    a, theta, c = euler_phase_x_phase(u)
    half_pi_units = np.remainder(theta, np.pi)
    if half_pi_units < ANGLE_EPS or np.pi - half_pi_units < ANGLE_EPS:
        phase_gate_on(exp, target, a + c, pair)
        return exp
    one_h = _single_h_form(u)
    if one_h is not None:
        phi1, phi2 = one_h
        phase_gate_on(exp, target, phi2, pair)
        exp.extend(hadamard_gadget(target, ancilla))
        phase_gate_on(exp, target, phi1, pair)
        return exp
    phase_gate_on(exp, target, c, pair)
    exp.extend(hadamard_gadget(target, ancilla))
    phase_gate_on(exp, target, theta, pair)
    exp.extend(hadamard_gadget(target, ancilla))
    phase_gate_on(exp, target, a, pair)
    return exp


def state_prep_unitary(target_state):
    """2x2 unitary with u|0> = target_state (exact, no phase slack)."""
    v = np.asarray(target_state, dtype=complex)
    if abs(np.linalg.norm(v) - 1) > 1e-10:
        raise DecompositionFailure("target state not normalized")
    return np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])

# ---------------------------------------------------------------------------
# Two-qubit unitaries (canonical decomposition)
# ---------------------------------------------------------------------------

# Basis in which SU(2) x SU(2) acts as real orthogonal matrices; columns are
# the Bell states (Phi+, i Psi+, Psi-, i Phi-).
MAGIC_BASIS = np.array(
    [[1, 0, 0, 1j],
     [0, 1j, 1, 0],
     [0, 1j, -1, 0],
     [1, 0, 0, -1j]], dtype=complex) / np.sqrt(2)

_XX4 = np.kron(X2, X2)
_YY4 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
_ZZ4 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def _interaction_matrix(a, b, c):
    h = a * _XX4 + b * _YY4 + c * _ZZ4
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(1j * w)) @ v.conj().T


def _simdiag_symmetric(a, s):
    """Orthogonal P diagonalizing two commuting real symmetric matrices."""
    w, p = np.linalg.eigh(a)
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and abs(w[j] - w[i]) < DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            block = p[:, i:j].T @ s @ p[:, i:j]
            _, q = np.linalg.eigh((block + block.T) / 2)
            p[:, i:j] = p[:, i:j] @ q
        i = j
    return p


def _factor_kron(v):
    """Split a 4x4 kron product A (x) B into its 2x2 factors."""
    w = v.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    uu, ss, vh = np.linalg.svd(w)
    if ss[1] > FORM_TOL:
        raise DecompositionFailure("matrix is not a tensor product of locals")
    a = (uu[:, 0] * np.sqrt(ss[0])).reshape(2, 2)
    b = (vh[0, :] * np.sqrt(ss[0])).reshape(2, 2)
    # balance phases so both factors are unitary with determinant 1
    a = a / np.sqrt(np.linalg.det(a))
    b = b / np.sqrt(np.linalg.det(b))
    return a, b


def canonical_two_qubit(u):
    """Canonical (Cartan) form u = e^{i delta}(u1 x u2) exp(i(a XX + b YY + c ZZ))
    (u3 x u4); returns (u1, u2, u3, u4, (a, b, c)).

    Numerical magic-basis diagonalization; reconstruction residual above
    tolerance raises DecompositionFailure.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-9:
        raise DecompositionFailure("input is not a 4x4 unitary")
    su = u / np.linalg.det(u) ** 0.25
    m = MAGIC_BASIS.conj().T @ su @ MAGIC_BASIS
    mm = m.T @ m
    p = _simdiag_symmetric(mm.real, mm.imag)
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    dvals = np.diag(p.T @ mm @ p)
    if np.max(np.abs(p.T @ mm @ p - np.diag(dvals))) > 1e-7:
        raise DecompositionFailure("simultaneous diagonalization failed")
    theta = np.angle(dvals) / 2
    bmat = m @ p @ np.diag(np.exp(-1j * theta))
    if np.linalg.det(bmat).real < 0:
        theta[0] += np.pi
        bmat[:, 0] = -bmat[:, 0]
    if np.max(np.abs(bmat.imag)) > 1e-7:
        raise DecompositionFailure("left factor is not real orthogonal")
    left = MAGIC_BASIS @ bmat.real @ MAGIC_BASIS.conj().T
    right = MAGIC_BASIS @ p.T @ MAGIC_BASIS.conj().T
    a = (theta[0] + theta[1]) / 2
    b = (theta[1] + theta[3]) / 2
    c = (theta[0] + theta[3]) / 2
    u1, u2 = _factor_kron(left)
    u3, u4 = _factor_kron(right)
    recon = np.kron(u1, u2) @ _interaction_matrix(a, b, c) @ np.kron(u3, u4)
    if not gates_equal_up_to_phase(recon, u, DECOMP_TOL):
        raise DecompositionFailure("canonical reconstruction residual above tolerance")
    return u1, u2, u3, u4, (a, b, c)


def _try_matchgate(u):
    """Return u as a Matchgate if it already is one (up to nothing), else None."""
    u = np.asarray(u, dtype=complex)
    off = [u[0, 1], u[0, 2], u[1, 0], u[1, 3], u[2, 0], u[2, 3], u[3, 1], u[3, 2]]
    if np.max(np.abs(off)) > DECOMP_TOL:
        return None
    a = np.array([[u[0, 0], u[0, 3]], [u[3, 0], u[3, 3]]])
    b = np.array([[u[1, 1], u[1, 2]], [u[2, 1], u[2, 2]]])
    try:
        return matchgate_from_components(a, b)
    except (NotUnitary, DeterminantMismatch):
        return None


def two_qubit_unitary(line, u, aux_above, aux_below) -> GadgetExpansion:
    """Arbitrary two-qubit unitary on computational lines (line, line+1),
    with |+> ancillas adjacent above and below.

    The XX/YY interaction factor is a native matchgate; the ZZ factor is
    realized as an XX interaction conjugated by gadget Hadamards on both
    lines; local factors go through single_qubit_unitary.  Matchgates are
    emitted as a single native gate with zero ancilla uses.
    """
    if aux_above != line - 1 or aux_below != line + 2:
        raise ValidationError("macro", "ancillas must sit directly above and below the pair")
    exp = GadgetExpansion()
    native = _try_matchgate(u)
    if native is not None:
        exp.gate(line, native)
        return exp
    u1, u2, u3, u4, (a, b, c) = canonical_two_qubit(u)
    upper, lower = line, line + 1
    exp.extend(single_qubit_unitary(upper, u3, aux_above))
    exp.extend(single_qubit_unitary(lower, u4, aux_below))
    if abs(a) > ANGLE_EPS or abs(b) > ANGLE_EPS:
        exp.gate(line, xx_yy_gate(a, b))
    if abs(c) > ANGLE_EPS:
        exp.extend(hadamard_gadget(upper, aux_above))
        exp.extend(hadamard_gadget(lower, aux_below))
        exp.gate(line, xx_yy_gate(c, 0.0))
        exp.extend(hadamard_gadget(upper, aux_above))
        exp.extend(hadamard_gadget(lower, aux_below))
    exp.extend(single_qubit_unitary(upper, u1, aux_above))
    exp.extend(single_qubit_unitary(lower, u2, aux_below))
    return exp

# ---------------------------------------------------------------------------
# SWAP gadget
# ---------------------------------------------------------------------------

Z_UPPER = matchgate_from_components(np.diag([1.0, -1.0]).astype(complex),
                                    np.diag([1.0, -1.0]).astype(complex))  # Z x 1
Z_LOWER = matchgate_from_components(np.diag([1.0, -1.0]).astype(complex),
                                    np.diag([-1.0, 1.0]).astype(complex))  # 1 x Z

# Adaptive Pauli corrections of the SWAP gadget, derived once by oracle
# search over all 16 Bell-outcome branches and frozen here; the regression
# test re-derives the table.  Records are (r1, r2) for the upper Bell
# measurement and (r3, r4) for the lower one; each correction is a gate on
# line target + offset that fires on odd parity of its record subset.
SWAP_CORRECTIONS = (
    (1, XX_PAIR, (2, 3)),  # X on the upper live line, via X(x)X against r2's junk line
    (2, Z_UPPER, (2,)),    # Z on the upper live line
    (3, XX_PAIR, (0, 1)),  # X on the lower live line, via X(x)X against r3's junk line
    (2, Z_LOWER, (0,)),    # Z on the lower live line
)


def swap_gadget(target, magic_start, sink_base, ids: IdGen, post_selected=False):
    """Deterministic SWAP of lines (target, target+1) consuming one magic
    block (4 lines at magic_start..magic_start+3, below the targets).

    The block is swapped in between the two target lines, a Bell measurement
    (G(H,H) followed by computational measurements) is performed on each
    target against the block's outer lines, guarded Pauli corrections fix
    the teleported pair, and the four measured lines sink to the 4-line
    region ending at ``sink_base`` with guarded-sign fermionic swaps.

    With ``post_selected`` the measurements and corrections are omitted, the
    disposal uses plain fSWAPs, and the four lines are measured at the very
    end (returned separately as ``final_measures``); conditioning those
    records on 0 reproduces the adaptive gadget's effect.

    Returns (expansion, final_measures).
    """
    exp = GadgetExpansion()
    exp.cost.magic_consumed = 1
    exp.cost.ancilla_lines = 4
    t = target
    # move the block up to t+1 with plain fSWAPs; each crossed line sinks
    # directly below it, and the crossing is exact because the block is
    # fermionic
    for p in range(magic_start, t + 1, -1):
        exp.extend(fswap_ladder(p - 1, p + 3))
    # layout now: t: alpha1 | t+1..t+4: M | t+5: alpha2
    exp.gate(t, HADAMARD_PAIR)
    exp.gate(t + 4, HADAMARD_PAIR)
    recs = [ids.fresh("b") for _ in range(4)]
    final_measures = []
    if post_selected:
        # measured at the end of the computation instead; the junk sinks in
        # reverse order, so r1 lands at sink_base-3 and r4 at sink_base
        final_measures = [Measure(sink_base - 3 + i, rec, "final") for i, rec in enumerate(recs)]
        exp.cost.measurements = 4
    else:
        exp.measure(t, recs[0])
        exp.measure(t + 1, recs[1])
        exp.measure(t + 4, recs[2])
        exp.measure(t + 5, recs[3])
        for offset, mg, subset in SWAP_CORRECTIONS:
            exp.gate(t + offset, mg, Guard(frozenset(recs[i] for i in subset), 1))
    # dispose the four consumed lines to the caller-assigned region just
    # above already-parked junk; the X(x)X corrections flipped the bits of
    # the two inner junk lines, so their disposal guards carry those
    # parities too
    junk = [
        (t + 5, {recs[3]}),
        (t + 4, {recs[2], recs[0], recs[1]}),
        (t + 1, {recs[1], recs[2], recs[3]}),
        (t, {recs[0]}),
    ]
    for k, (pos, bit_ids) in enumerate(junk):
        exp.extend(fswap_ladder(pos, sink_base - k, guard_ids=None if post_selected else bit_ids))
    return exp, final_measures


# ---------------------------------------------------------------------------
# Toffoli gadget
# ---------------------------------------------------------------------------


def toffoli_gadget(c1, ancilla, ids: IdGen) -> GadgetExpansion:
    """Toffoli on computational-basis lines (c1, c1+1, c1+2) using an
    ancilla |0> line below the target.

    Both control lines are measured; the AND of the two control bits is not
    a parity condition, so it is materialized as its own record: a guarded
    fSWAP parks |0> on the second control line when the first read 0, and
    measuring that line then yields the product bit, which guards the
    conditional X (an X(x)X pair acting on the target and the ancilla).
    """
    c2, t = c1 + 1, c1 + 2
    exp = GadgetExpansion()
    m1 = ids.fresh("c")
    m2 = ids.fresh("c")
    r = ids.fresh("and")
    exp.measure(c1, m1)
    exp.measure(c2, m2)
    # bring the ancilla |0> next to c2 (plain fSWAPs: one side is |0>)
    exp.extend(fswap_ladder(ancilla, t))
    # target now sits one line lower
    exp.gate(c2, FSWAP, Guard(frozenset({m1}), 0))
    exp.measure(c2, r)
    exp.gate(c2, FSWAP, Guard(frozenset({m1}), 0))
    exp.gate(t, XX_PAIR, Guard(frozenset({r}), 1))
    # return the ancilla (holding the AND bit) to its line
    exp.extend(fswap_ladder(t, ancilla, guard_ids={r}))
    return exp


# ---------------------------------------------------------------------------
# |+>-preparation gadget (tilted-basis measurements; oracle execution only)
# ---------------------------------------------------------------------------


def plus_gadget_y(x):
    """Reflection angle making the post-measurement state |+>, chosen
    together with a Hadamard on the odd block to maximise the success
    probability sin^2(2x)."""
    t = np.tan(x)
    return np.arctan(t * (np.sqrt(2) + t) / (1 + np.sqrt(2) * t))


def plus_state_gadget(x, a1, a2, ids: IdGen):
    """One repeat-until-success attempt at preparing |+> on line a2 from two
    computational-basis ancilla lines (a1, a2 = a1+1).

    The attempt: measure both lines in the tilted basis, apply guarded Z
    corrections, map the outcome classes together with a guarded X(x)X, then
    apply G(A, H) with A the sin y / cos y reflection, and measure a1
    computationally.  When the two tilt outcomes agree, the computational
    outcome 0 occurs with probability exactly sin^2(2x) and leaves a2 in
    |+>; on outcome 1 both lines are computational again, ready for the next
    attempt.  Disagreeing tilt outcomes void the attempt (no success is
    possible); the driver retries.

    Returns (expansion, (t1, t2, m) record ids).
    """
    if a2 != a1 + 1:
        raise ValidationError("macro", "ancilla lines must be adjacent, in order")
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0 < x <= np.pi / 4 + 1e-12:
        raise ValidationError("macro", f"tilt angle must lie in (0, pi/4], got {x!r}")
    exp = GadgetExpansion()
    t1 = ids.fresh("t")
    t2 = ids.fresh("t")
    m = ids.fresh("m")
    basis = Tilted(x)
    exp.measure(a1, t1, basis)
    exp.measure(a2, t2, basis)
    exp.gate(a1, Z_UPPER, Guard(frozenset({t1}), 1))
    exp.gate(a1, Z_LOWER, Guard(frozenset({t2}), 1))
    exp.gate(a1, XX_PAIR, Guard(frozenset({t2}), 1))
    y = plus_gadget_y(x)
    a_mat = np.array([[np.sin(y), np.cos(y)], [np.cos(y), -np.sin(y)]], dtype=complex)
    exp.gate(a1, matchgate_from_components(a_mat, H2))
    exp.measure(a1, m)
    return exp, (t1, t2, m)


# ---------------------------------------------------------------------------
# Two-qubit input preparation
# ---------------------------------------------------------------------------


def pair_prep_unitary(amps):
    """4x4 unitary V with V|00> equal to the given two-qubit state, composed
    of a Schmidt-angle XX interaction and local factors."""
    m = np.asarray(amps, dtype=complex).reshape(2, 2)
    if abs(np.linalg.norm(m) - 1) > 1e-10:
        raise DecompositionFailure("pair state not normalized")
    uu, ss, vh = np.linalg.svd(m)
    theta = float(np.arctan2(ss[1], ss[0]))
    ub = vh.T @ np.diag([1.0, -1.0j])
    return np.kron(uu, ub) @ _interaction_matrix(theta, 0.0, 0.0)


def prepare_two_qubit_inputs(patterns, ids: IdGen) -> GadgetExpansion:
    """Generate arbitrary two-qubit states on neighbouring line pairs.

    Operates on the interleaved register |+>|00>|+>|00>...|+> (auxiliary
    lines at 0, 3, 6, ...).  Each pair is driven to its target by
    two_qubit_unitary; afterwards the auxiliary lines are measured in the
    computational basis and adaptively swapped out to the bottom, so the
    prepared pairs end up contiguous at lines (2i, 2i+1).
    """
    exp = GadgetExpansion()
    p = len(patterns)
    for i, amps in enumerate(patterns):
        exp.extend(two_qubit_unitary(3 * i + 1, pair_prep_unitary(amps), 3 * i, 3 * i + 3))
    _measure_and_sink(exp, [3 * i for i in range(p, -1, -1)], 3 * p, ids, "aux")
    exp.cost.ancilla_lines = p + 1
    return exp


# ---------------------------------------------------------------------------
# Input compilation to canonical form
# ---------------------------------------------------------------------------


def compile_input(spec: InputSpec, taken_ids=()):
    """Lower an input specification to canonical bits + |+> + trailing zone.

    Returns (expansion, canonical InputSpec).  The expansion's instructions,
    applied to the canonical input, reproduce the original specification on
    the first n lines (junk sinks below the trailing entangled zone).

    Non-computational single-line states are created next to the master |+>
    line and swapped into place through the not-yet-prepared region (a
    scratch |0> line above the master serves as the working position);
    neighbouring 2-qubit blocks are built in place between two auxiliary |+>
    lines; at most one entangled block wider than two lines is allowed and
    it must be trailing.
    """
    ids = IdGen(taken_ids, prefix="cp")
    slots = []
    zone = None
    for block in spec.blocks:
        if zone is not None:
            raise UnsupportedLayout("an entangled block wider than 2 must be trailing")
        if isinstance(block, BitsBlock):
            slots.extend(("bit", ch) for ch in block.bits)
        elif isinstance(block, ProductBlock):
            for s in block.states:
                slots.append(_product_slot(np.asarray(s, dtype=complex)))
        elif isinstance(block, EntangledBlock) and block.k == 1:
            slots.append(_product_slot(np.asarray(block.amps, dtype=complex)))
        elif isinstance(block, EntangledBlock) and block.k == 2:
            if not slots or slots[-1][0] != "aux":
                slots.append(("aux", None))
            slots.append(("pair0", np.asarray(block.amps, dtype=complex)))
            slots.append(("pair1", None))
            slots.append(("aux", None))
        else:  # wider entangled or magic: the trailing zone
            zone = block
    needs_work = any(k in ("prep", "pair0", "aux") for k, _ in slots)
    exp = GadgetExpansion()
    if not needs_work:
        bits = "".join(v if k == "bit" else "0" for k, v in slots)
        blocks = ([BitsBlock(bits)] if bits else []) + ([zone] if zone is not None else [])
        return exp, InputSpec(tuple(blocks))
    slots.append(("scratch", None))
    s_count = len(slots)
    master = s_count  # line of the master |+>
    bits = "".join(v if k == "bit" else "0" for k, v in slots)
    blocks = [BitsBlock(bits), ProductBlock((PLUS,))]
    if zone is not None:
        blocks.append(zone)
    canonical = InputSpec(tuple(blocks))
    known = {j: 1 if slots[j] == ("bit", "1") else 0 for j in range(s_count)}
    base = s_count - 1  # the scratch line, adjacent to the master
    # create single-line content top-down; ladders cross only the
    # not-yet-prepared region, then the displaced zeros/bits shift back
    for s, (kind, payload) in enumerate(slots):
        if kind == "prep":
            u = state_prep_unitary(payload)
        elif kind == "aux":
            u = H2
        else:
            continue
        exp.extend(single_qubit_unitary(base, u, master))
        exp.extend(fswap_ladder(base, s, known_bits=known))
        exp.extend(fswap_ladder(s + 1, base))
    # build the 2-qubit blocks in place between their |+> neighbours
    for s, (kind, payload) in enumerate(slots):
        if kind == "pair0":
            exp.extend(two_qubit_unitary(s, pair_prep_unitary(payload), s - 1, s + 2))
    # dispose master, scratch, and the auxiliary lines below the zone
    bottom = s_count + (zone.n if zone is not None else 0)
    _measure_and_sink(exp, [master], bottom, ids, "m")
    exp.extend(fswap_ladder(base, bottom - 1))  # scratch is still |0>
    aux = [s for s in range(s_count - 2, -1, -1) if slots[s][0] == "aux"]
    _measure_and_sink(exp, aux, bottom - 2, ids, "a")
    exp.cost.ancilla_lines = 2 + len(aux)
    return exp, canonical


def _product_slot(state):
    if abs(np.linalg.norm(state) - 1) > 1e-10:
        raise UnsupportedLayout("product state not normalized")
    if abs(state[1]) < ANGLE_EPS:
        return ("bit", "0")
    if abs(state[0]) < ANGLE_EPS:
        return ("bit", "1")
    return ("prep", state)


def compile_circuit(circuit: Circuit):
    """Rewrite a circuit so its input is canonical; the original program is
    untouched because the compiled prologue leaves the specified state on
    the original line positions."""
    taken = {m.record_id for m in circuit.measurements()}
    exp, canonical = compile_input(circuit.input, taken)
    out = Circuit(canonical.n, canonical, tuple(exp.instructions) + circuit.program)
    return out.validate(), exp


# ---------------------------------------------------------------------------
# Macro expansion
# ---------------------------------------------------------------------------


def expand_macros(circuit: Circuit, post_selected_swaps=False):
    """Lower every gadget macro to primitive instructions, in one walk in
    program order.

    Each macro's lines are checked against the register as it stands where
    the macro runs: the circuit's lines plus the toffoli ancillas appended so
    far.  One magic block per SWAP follows the last toffoli ancilla; each
    SWAP gadget sinks its four measured lines below every unconsumed block,
    so the next block always starts at the same line.  Post-selected SWAP
    measurements go at the end of the program.  Returns (circuit, cost
    report dict keyed by macro name).
    """
    names = [ins.name for ins in circuit.program if isinstance(ins, Macro)]
    magic_start = circuit.n + names.count("toffoli")
    n_final = magic_start + 4 * names.count("swap")
    taken = {m.record_id for m in circuit.measurements()}
    ids, swap_ids = IdGen(taken), IdGen(taken, prefix="sw")
    n, blocks, program, trailing = circuit.n, list(circuit.input.blocks), [], []
    report, swaps = {}, 0
    for ins in circuit.program:
        if not isinstance(ins, Macro):
            program.append(ins)
            continue
        if ins.name == "swap":
            # the j-th gadget sinks its lines to the j-th 4-line region up from the bottom
            exp, finals = swap_gadget(ins.line("line", n - 1), magic_start, n_final - 1 - 4 * swaps,
                                      swap_ids, post_selected_swaps)
            trailing.extend(finals)
            swaps += 1
        else:
            exp = _expand_macro(ins, n, ids)
            if ins.name == "toffoli":
                blocks.append(BitsBlock("0"))
                n += 1
        entry = report.setdefault(ins.name, GadgetCost())
        entry += exp.cost
        program.extend(exp.instructions)
    blocks.extend(MagicBlock() for _ in range(swaps))
    return Circuit(n_final, InputSpec(tuple(blocks)), tuple(program + trailing)), report


def _expand_macro(ins: Macro, n, ids) -> GadgetExpansion:
    name = ins.name

    def matrix(key, dim):
        return json2matrix(ins.param(key), (dim, dim), f"{name}: {key!r}")

    if name == "hadamard":
        return hadamard_gadget(ins.line("target", n), ins.line("ancilla", n))
    if name == "single_qubit_unitary":
        return single_qubit_unitary(ins.line("target", n), matrix("matrix", 2),
                                    ins.line("ancilla", n))
    if name == "two_qubit_unitary":
        return two_qubit_unitary(ins.line("line", n - 1), matrix("matrix", 4),
                                 ins.line("ancilla_above", n), ins.line("ancilla_below", n))
    if name == "prepare_two_qubit_inputs":
        patterns = ins.param("patterns")
        if not isinstance(patterns, list):
            raise ValidationError("macro", f"{name}: 'patterns' must be a list, got {patterns!r}")
        if 3 * len(patterns) + 1 > n:
            raise ValidationError("macro", f"{name}: {len(patterns)} patterns need "
                                           f"{3 * len(patterns) + 1} lines, the register has {n}")
        return prepare_two_qubit_inputs(
            json2matrix(patterns, (len(patterns), 4), f"{name}: 'patterns'"), ids)
    if name == "toffoli":
        exp = toffoli_gadget(ins.line("line", n - 2), n, ids)
        exp.cost.ancilla_lines += 1
        return exp
    if name == "plus_state":
        ancillas = ins.param("ancillas")
        if not (isinstance(ancillas, list) and len(ancillas) == 2):
            raise ValidationError("macro", f"plus_state: 'ancillas' must be two lines, "
                                           f"got {ancillas!r}")
        a1, a2 = (ins.line("ancillas", n, a) for a in ancillas)
        return plus_state_gadget(ins.param("x"), a1, a2, ids)[0]
    raise ValidationError("macro", f"unknown macro {name!r}")

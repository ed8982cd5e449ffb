"""Reference helpers that only the tests use: brute-force and dense
counterparts of the package's fast paths, and fixtures of the gadget tests."""

import numpy as np

from matchsim.circuit import H2, NORM_TOL, BitsBlock, Gate, InputSpec, Macro, Measure, ProductBlock
from matchsim.errors import MatchsimError
from matchsim.gadgets import PLUS, X2, IdGen, plus_state_gadget
from matchsim.majorana import PAULI_MATS
from matchsim.oracle import StateVector
from matchsim.serialize import json2matrix

# the literal SWAP, which the swap macro stands for; no matchgate
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def pfaffian_brute(m) -> complex:
    """Signed perfect-matching expansion along the first row; test oracle,
    exponential cost."""
    a = np.asarray(m, dtype=complex)
    d = a.shape[0]
    if d % 2 == 1:
        return 0.0
    if d == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rest = list(range(1, d))
    for pos, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        sub = a[np.ix_(keep, keep)]
        total += (-1) ** pos * a[0, j] * pfaffian_brute(sub)
    return total


def orthogonality_residual(r: np.ndarray) -> float:
    return float(np.max(np.abs(r @ r.T - np.eye(r.shape[0]))))


def pauli_matrix(ps) -> np.ndarray:
    """Dense 2^n matrix of a ``PauliString``."""
    m = np.array([[1.0]], dtype=complex)
    for code in ps.letters:
        m = np.kron(m, PAULI_MATS[code])
    return ps.phase * m


def fidelity_on_lines(state: StateVector, lines, target: np.ndarray) -> float:
    """<target| rho_lines |target> for the reduced state on ``lines``.

    Equals |<target x anything | psi>|^2 summed over the complement, so it
    is insensitive to global phase and to junk on the other lines.
    """
    k = len(lines)
    t = np.asarray(target, dtype=complex).reshape([2] * k)
    psi = state.amps.reshape([2] * state.n)
    overlap = np.tensordot(t.conj(), psi, axes=(list(range(k)), list(lines)))
    return float(np.sum(np.abs(overlap) ** 2))


def block_is_fermionic(block) -> bool:
    """True iff all nonzero amplitudes share one Hamming-weight parity."""
    amps = block.state()
    n = block.n
    par = np.array([bin(i).count("1") & 1 for i in range(2 ** n)])
    nz = np.abs(amps) > NORM_TOL
    parities = set(par[nz].tolist())
    return len(parities) <= 1


def plus_gadget_success_probability(x):
    """Success probability sin^2(2x) of one |+> gadget attempt."""
    return float(np.sin(2 * x) ** 2)


PLUS_FAILURE_EPS = 1e-6  # failure probability of the default |+> attempt budget


class MaxAttemptsExceeded(MatchsimError):
    """Repeat-until-success budget exhausted."""

    def __init__(self, attempts, success_bound):
        self.attempts = attempts
        self.success_bound = success_bound
        super().__init__(
            f"no success within {attempts} attempts "
            f"(cumulative success probability bound {success_bound:.6g})"
        )


def default_plus_attempts(x):
    return int(np.ceil(np.log(1 / PLUS_FAILURE_EPS) / plus_gadget_success_probability(x)))


def run_plus_state_gadget(x, seed, max_attempts=None):
    """Drive the repeat-until-success loop on the dense oracle.

    Returns (attempts_used, final_two_line_state) with |+> on the second
    line; raises MaxAttemptsExceeded when the budget runs out."""
    budget = max_attempts if max_attempts is not None else default_plus_attempts(x)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ids = IdGen()
    state = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
    p_succ = plus_gadget_success_probability(x)
    attempts = 0
    while attempts < budget:
        exp, records = plus_state_gadget(x, 0, 1, ids)
        outcomes = {}
        for ins in exp.instructions:
            if isinstance(ins, Measure):
                probs = state.measure_probabilities(ins.line, ins.basis)
                bit = 0 if rng.random() < probs[0] else 1
                state.collapse(ins.line, bit, ins.basis)
                outcomes[ins.record_id] = bit
            elif ins.guard is None or ins.guard.fires(outcomes):
                state.apply_gate(ins.gate, ins.line)
        t1, t2, m = (outcomes[r] for r in records)
        if t1 == t2:
            attempts += 1
            if m == 0:
                return attempts, state
        # voided or failed attempt: both lines are computational again
    bound = 1 - (1 - p_succ) ** budget
    raise MaxAttemptsExceeded(budget, bound)


def prepare_layout_input(patterns) -> InputSpec:
    """The |+>|00>|+>|00>...|+> input the preparation gadget starts from."""
    blocks = [ProductBlock((PLUS,))]
    for _ in patterns:
        blocks.append(BitsBlock("00"))
        blocks.append(ProductBlock((PLUS,)))
    return InputSpec(tuple(blocks))


def added_records(circuit, expanded, role):
    """Ids of the ``role`` measurements that ``expanded`` has and ``circuit``
    lacks, in program order: the records a macro expansion added."""
    own = {m.record_id for m in circuit.measurements()}
    return [m.record_id for m in expanded.measurements(role) if m.record_id not in own]


def _apply_one(state: StateVector, u, line):
    view = state.amps.reshape(1 << line, 2, -1)
    view[...] = np.einsum("ab,ibj->iaj", u, view.copy())


def macro_reference(circuit) -> dict:
    """Joint distribution of the finals of ``circuit``, keyed by bit tuples
    in program order, with every macro applied as the operation it stands
    for on the circuit's lines plus one appended |0> line per toffoli.

    hadamard and single_qubit_unitary act on their target, two_qubit_unitary
    on (line, line+1), swap is the literal SWAP, and toffoli measures its
    two controls and flips its target and its appended line when both read
    1.  The program holds unguarded gates, macros and, at its end, finals on
    distinct lines.
    """
    branches = [(1.0, StateVector.from_input(circuit.input))]
    finals = []
    for ins in circuit.program:
        n = branches[0][1].n
        if isinstance(ins, Gate):
            assert ins.guard is None
            for _, st in branches:
                st.apply_gate(ins.gate, ins.line)
        elif isinstance(ins, Measure):
            assert ins.role == "final"
            finals.append(ins.line)
        elif ins.name == "toffoli":
            c1 = ins.line("line", n - 2)
            split = []
            for p, st in branches:
                grown = StateVector(n + 1, np.kron(st.amps, [1, 0]))
                for b1, b2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    child = grown.copy()
                    q = child.collapse(c1, b1) * child.collapse(c1 + 1, b2)
                    if p * q > 1e-14:
                        if b1 and b2:
                            _apply_one(child, X2, c1 + 2)
                            _apply_one(child, X2, n)
                        split.append((p * q, child))
            branches = split
        else:
            for _, st in branches:
                _apply_macro(st, ins, n)
    out = {}
    for p, st in branches:
        probs = np.abs(st.amps.reshape([2] * st.n)) ** 2
        rest = tuple(l for l in range(st.n) if l not in finals)
        marg = np.transpose(probs.sum(axis=rest), [sorted(finals).index(l) for l in finals])
        for bits in np.ndindex(marg.shape):
            out[bits] = out.get(bits, 0.0) + p * float(marg[bits])
    return out


def _apply_macro(st: StateVector, ins: Macro, n):
    if ins.name == "hadamard":
        _apply_one(st, H2, ins.line("target", n))
    elif ins.name == "single_qubit_unitary":
        _apply_one(st, json2matrix(ins.param("matrix"), (2, 2), "u"), ins.line("target", n))
    elif ins.name == "two_qubit_unitary":
        st.apply_two_qubit(json2matrix(ins.param("matrix"), (4, 4), "u"), ins.line("line", n - 1))
    elif ins.name == "swap":
        st.apply_two_qubit(SWAP, ins.line("line", n - 1))
    else:
        raise ValueError(f"no dense reference for macro {ins.name!r}")

"""Reference helpers that only the tests use: brute-force and dense
counterparts of the package's fast paths, and fixtures of the gadget tests."""

import numpy as np

from matchsim.circuit import NORM_TOL, BitsBlock, InputSpec, Measure, ProductBlock
from matchsim.errors import MatchsimError
from matchsim.gadgets import PLUS, IdGen, plus_state_gadget
from matchsim.majorana import PAULI_MATS
from matchsim.oracle import StateVector


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

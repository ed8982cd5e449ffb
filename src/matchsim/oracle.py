"""Dense state-vector reference simulator.

Ground truth for every other module: exact gate application, measurements in
arbitrary single-qubit bases, exhaustive branch enumeration of adaptive
circuits and post-selection.  Exponential in n, capped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    Computational,
    Gate,
    Guard,
    InputSpec,
    Macro,
    MatchgateAngles,
    Measure,
    bits_input,
    matchgate_from_angles,
)
from .errors import CapExceeded, ValidationError, ZeroConditionMass

DEFAULT_N_CAP = 14
HARD_N_CAP = 20
BRANCH_CAP = 20
PRUNE_EPS = 1e-12

SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass
class StateVector:
    """2^n amplitudes, line 0 as the most significant bit.

    Mutable and single-owner during a run; ``copy`` before branching.
    """

    n: int
    amps: np.ndarray

    @staticmethod
    def from_input(spec: InputSpec) -> "StateVector":
        return StateVector(spec.n, spec.state())

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    def apply_two_qubit(self, u: np.ndarray, line: int) -> None:
        """Apply a 4x4 unitary to adjacent lines (line, line+1), in place."""
        n = self.n
        view = self.amps.reshape(1 << line, 4, 1 << (n - line - 2))
        np.einsum("ab,ibj->iaj", u, view.copy(), out=view)

    def apply_gate(self, gate, line: int) -> None:
        self.apply_two_qubit(gate.matrix(), line)

    def measure_probabilities(self, line: int, basis=None):
        """(p0, p1) for measuring ``line`` in ``basis`` (default computational)."""
        n = self.n
        view = self.amps.reshape(1 << line, 2, 1 << (n - line - 1))
        if basis is None or isinstance(basis, Computational):
            p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
            p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
            return p0, p1
        v0, v1 = basis.vectors()
        a0 = np.tensordot(v0.conj(), view, axes=([0], [1]))
        a1 = np.tensordot(v1.conj(), view, axes=([0], [1]))
        return float(np.sum(np.abs(a0) ** 2)), float(np.sum(np.abs(a1) ** 2))

    def collapse(self, line: int, outcome: int, basis=None) -> float:
        """Project ``line`` onto ``outcome``; returns the branch probability."""
        n = self.n
        view = self.amps.reshape(1 << line, 2, 1 << (n - line - 1))
        if basis is None or isinstance(basis, Computational):
            keep = view[:, outcome, :].copy()
            view[:, :, :] = 0
            view[:, outcome, :] = keep
        else:
            v0, v1 = basis.vectors()
            v = (v0, v1)[outcome]
            amp = np.tensordot(v.conj(), view, axes=([0], [1]))
            view[:, 0, :] = v[0] * amp
            view[:, 1, :] = v[1] * amp
        p = float(np.sum(np.abs(self.amps) ** 2))
        if p > 0:
            self.amps /= np.sqrt(p)
        return p


@dataclass
class BranchDistribution:
    """Joint distribution over full outcome records (intermediate + final)."""

    probs: dict  # tuple of (record_id, bit) -> probability
    record_order: tuple = ()

    def marginal(self, record_ids) -> dict:
        """Marginal over a subset of record ids, keyed by bit tuples."""
        ids = list(record_ids)
        out = {}
        for rec, p in self.probs.items():
            d = dict(rec)
            key = tuple(d[i] for i in ids)
            out[key] = out.get(key, 0.0) + p
        return out

    def probability(self, assignment: dict) -> float:
        """Total mass consistent with a partial record assignment."""
        tot = 0.0
        for rec, p in self.probs.items():
            d = dict(rec)
            if all(d.get(k) == v for k, v in assignment.items()):
                tot += p
        return tot


def check_width(n, n_cap=DEFAULT_N_CAP):
    """Raise CapExceeded when ``n`` lines are beyond the dense state vector."""
    if n > min(n_cap, HARD_N_CAP):
        raise CapExceeded(f"n={n} exceeds oracle cap {min(n_cap, HARD_N_CAP)}")


def _macro_unitary(ins: Macro, n):
    if ins.name == "swap":
        return SWAP4, ins.line("line", n - 1)
    raise ValidationError("macro", f"oracle cannot execute macro {ins.name!r}")


def _trailing_finals(program) -> int:
    """Index of the run of final measurements that ends ``program``."""
    return max((i + 1 for i, ins in enumerate(program)
                if not (isinstance(ins, Measure) and ins.role == "final")), default=0)


def branch_states(circuit: Circuit, n_cap=DEFAULT_N_CAP, allow_swap_macros=False):
    """Depth-first enumeration over the outcomes of the intermediate
    measurements and of each final one that a later instruction follows.

    Yields (records, probability, state) per branch: ``records`` lists the
    intermediates in walk order, then those finals, and ``state`` is the
    normalized state before the final measurements that end the program.
    Branches of probability at most ``PRUNE_EPS`` are dropped.  With
    ``allow_swap_macros`` the (non-matchgate) SWAP pseudo-gate is applied
    literally; other macros are rejected.
    """
    check_width(circuit.n, n_cap)
    stop = _trailing_finals(circuit.program)
    k = sum(isinstance(ins, Measure) for ins in circuit.program[:stop])
    if k > BRANCH_CAP:
        raise CapExceeded(f"{k} branching measurements exceed branch cap {BRANCH_CAP}")
    finals = {m.record_id for m in circuit.measurements("final")}

    def walk(pos, state, records, prob):
        for i in range(pos, stop):
            ins = circuit.program[i]
            if isinstance(ins, Gate):
                if ins.guard is None or ins.guard.fires(dict(records)):
                    state.apply_gate(ins.gate, ins.line)
            elif isinstance(ins, Macro):
                if not allow_swap_macros:
                    raise ValidationError("macro", "circuit contains unexpanded macros")
                u, line = _macro_unitary(ins, circuit.n)
                state.apply_two_qubit(u, line)
            else:
                probs = state.measure_probabilities(ins.line, ins.basis)
                for outcome in (0, 1):
                    p = probs[outcome]
                    if p * prob <= PRUNE_EPS:
                        continue
                    child = state.copy()
                    child.collapse(ins.line, outcome, ins.basis)
                    yield from walk(
                        i + 1, child, records + ((ins.record_id, outcome),), prob * p
                    )
                return
        yield tuple(sorted(records, key=lambda r: r[0] in finals)), prob, state

    start = StateVector.from_input(circuit.input)
    yield from walk(0, start, (), 1.0)


def run_exact(circuit: Circuit, n_cap=DEFAULT_N_CAP,
              allow_swap_macros=False) -> BranchDistribution:
    """Exact joint distribution over all measurement records, keyed by the
    intermediates in walk order, then the finals in program order.

    The finals that end the program are expanded analytically from the
    per-branch amplitudes when computational and on distinct lines, and by
    projective branching otherwise; ``branch_states`` measures the others.
    """
    finals = circuit.program[_trailing_finals(circuit.program):]
    order = tuple(m.record_id for m in circuit.measurements())
    probs = {}
    for records, prob, state in branch_states(circuit, n_cap, allow_swap_macros):
        stack = [(records, prob, state, 0)]
        while stack:
            rec, pr, st, fi = stack.pop()
            rest = finals[fi:]
            lines = [m.line for m in rest]
            if all(isinstance(m.basis, Computational) for m in rest) and len(set(lines)) == len(lines):
                _accumulate_computational(probs, st, rest, rec, pr)
                continue
            m = finals[fi]
            p0, p1 = st.measure_probabilities(m.line, m.basis)
            for outcome, p in ((0, p0), (1, p1)):
                if p * pr <= PRUNE_EPS:
                    continue
                child = st.copy()
                child.collapse(m.line, outcome, m.basis)
                stack.append((rec + ((m.record_id, outcome),), pr * p, child, fi + 1))
    return BranchDistribution(probs, order)


def _accumulate_computational(probs, state, finals, records, prob):
    """Joint over computational finals on distinct lines, from |amps|^2."""
    if not finals:
        probs[records] = probs.get(records, 0.0) + prob
        return
    n = state.n
    lines = [m.line for m in finals]
    axes_sum = tuple(l for l in range(n) if l not in lines)
    p = np.abs(state.amps.reshape([2] * n)) ** 2
    marg = p.sum(axis=axes_sum) if axes_sum else p
    # remaining axes follow increasing line order; permute into measurement order
    sorted_lines = sorted(lines)
    marg = np.transpose(marg, axes=[sorted_lines.index(l) for l in lines])
    for idx in np.ndindex(*([2] * len(lines))):
        val = float(marg[idx]) * prob
        if val <= 0.0:
            continue
        key = records + tuple((m.record_id, int(b)) for m, b in zip(finals, idx))
        probs[key] = probs.get(key, 0.0) + val


def post_select(dist: BranchDistribution, constraints: dict) -> BranchDistribution:
    """Condition on record_id -> bit constraints; the kept mass is rescaled to 1."""
    for rid in constraints:
        if rid not in dist.record_order:
            raise ValidationError("post-select", f"unknown record {rid!r}")
    kept = {}
    for rec, p in dist.probs.items():
        d = dict(rec)
        if all(d.get(k) == v for k, v in constraints.items()):
            key = tuple(kv for kv in rec if kv[0] not in constraints)
            kept[key] = kept.get(key, 0.0) + p
    mass = sum(kept.values())
    if mass <= PRUNE_EPS:
        raise ZeroConditionMass(f"conditioned mass {mass:.3e} below threshold")
    return BranchDistribution(
        {k: v / mass for k, v in kept.items()},
        tuple(r for r in dist.record_order if r not in constraints),
    )


def sample_distribution(dist: BranchDistribution, shots: int, seed: int):
    """Categorical samples of full records from an exact distribution:
    (keys, index), the distribution's records in sorted order and each
    shot's index into them."""
    keys = sorted(dist.probs.keys())
    p = np.array([dist.probs[k] for k in keys])
    p = np.clip(p, 0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    # the size numpy refuses, checked first since choice also rejects a bad p
    if shots > np.iinfo(np.intp).max // p.itemsize:
        raise CapExceeded(f"{shots} shots exceed the largest table numpy allocates")
    try:
        draws = rng.choice(len(keys), size=shots, p=p)
    except MemoryError as exc:
        raise CapExceeded(f"no memory for {shots} shots") from exc
    return keys, draws


def random_mg_circuit(n, depth, seed, n_intermediate=0, input_spec=None,
                      final_lines=None, guard_prob=0.5):
    """Reproducible random nearest-neighbour matchgate circuit.

    Gates are drawn via the angle parametrization with uniform angles in
    [0, 2pi); intermediate measurements (if any) are placed at random program
    positions and later gates may pick up random parity guards on them.
    """
    rng = np.random.default_rng(seed)
    if input_spec is None:
        input_spec = bits_input("0" * n)
    program = []
    cut_points = sorted(rng.integers(0, depth + 1, size=n_intermediate).tolist())
    available = []
    mid = 0
    for d in range(depth):
        while mid < n_intermediate and cut_points[mid] <= d:
            line = int(rng.integers(0, n))
            program.append(Measure(line, f"m{mid}", "intermediate"))
            available.append(f"m{mid}")
            mid += 1
        angles = MatchgateAngles(*(rng.uniform(0, 2 * np.pi, size=6).tolist()))
        guard = None
        if available and rng.random() < guard_prob:
            k = int(rng.integers(1, len(available) + 1))
            ids = rng.choice(available, size=k, replace=False).tolist()
            guard = Guard(frozenset(ids), int(rng.integers(0, 2)))
        line = int(rng.integers(0, n - 1))
        program.append(Gate(line, matchgate_from_angles(angles), guard, angles))
    while mid < n_intermediate:
        line = int(rng.integers(0, n))
        program.append(Measure(line, f"m{mid}", "intermediate"))
        mid += 1
    if final_lines is None:
        final_lines = list(range(n))
    for j, line in enumerate(final_lines):
        program.append(Measure(line, f"x{j}", "final"))
    return Circuit(n, input_spec, tuple(program)).validate()

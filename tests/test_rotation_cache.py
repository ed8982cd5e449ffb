"""The rotation caches: each gate's Majorana block and each y-prefix's
cumulative rotation (held by the circuit's plan) are computed once, agree bit
for bit with a fresh computation, cannot be written, and die with their gate
or circuit.  A joint on a warm plan redoes no per-circuit work."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsim import majorana, pfaffian
from matchsim.circuit import BitsBlock, EntangledBlock, InputSpec, instantiate_segments
from matchsim.heisenberg import joint_prob_few_adaptive
from matchsim.majorana import gate_rotation_block, t_from_r
from matchsim.oracle import random_mg_circuit
from matchsim.pfaffian import _projector_rows, joint_prob_entangled, measurement_rows


def _fresh_rows(circuit, outcomes):
    """``measurement_rows`` rebuilt from a plain product of freshly computed
    gate blocks, with no cache involved."""
    inters = circuit.measurements("intermediate")
    t = sum(1 for m in inters if m.record_id in outcomes)
    finals = [m for m in circuit.measurements("final") if m.record_id in outcomes]
    segs = instantiate_segments(circuit, outcomes, upto=None if finals else t)
    n = circuit.n
    ts, r = [], np.eye(2 * n)
    for seg in segs[:len(segs) if finals else t]:
        r_seg = np.eye(2 * n)
        for g in seg:
            j = slice(2 * g.line, 2 * g.line + 4)
            r_seg[:, j] = r_seg[:, j] @ gate_rotation_block(g.gate)
        r = r @ r_seg
        ts.append(t_from_r(r))
    rows = []
    for s in range(t):
        rows += _projector_rows(ts[s][inters[s].line], outcomes[inters[s].record_id])
    for m in finals:
        rows += _projector_rows(ts[-1][m.line], outcomes[m.record_id])
    for s in reversed(range(t)):
        rows += _projector_rows(ts[s][inters[s].line], outcomes[inters[s].record_id])
    return np.array(rows, dtype=complex).reshape(-1, 2 * n)


def _records(circuit):
    """Every y-prefix on its own, then every full record."""
    inters = [m.record_id for m in circuit.measurements("intermediate")]
    finals = [m.record_id for m in circuit.measurements("final")]
    for t in range(len(inters) + 1):
        for y in itertools.product((0, 1), repeat=t):
            yield dict(zip(inters, y))
    for bits in itertools.product((0, 1), repeat=len(inters) + len(finals)):
        yield dict(zip(inters + finals, bits))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), depth=st.integers(1, 12), k=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cached_rows_equal_fresh_rows_bit_for_bit(n, depth, k, seed):
    circuit = random_mg_circuit(n, depth, seed=seed, n_intermediate=k, guard_prob=0.7)
    for outcomes in _records(circuit):  # fills the caches
        measurement_rows(circuit, outcomes)
    for outcomes in _records(circuit):
        assert np.array_equal(measurement_rows(circuit, outcomes), _fresh_rows(circuit, outcomes))


_ZONE = InputSpec((BitsBlock("01"), EntangledBlock(2, np.array([0.6, 0.0, 0.0, 0.8j]))))


def _warm_circuit(input_spec=None):
    """A two-intermediate circuit with a joint taken on every record: on
    bits (the default) the joints take the covariance route, on ``_ZONE``
    the pair sum."""
    circuit = random_mg_circuit(4, 12, seed=8, n_intermediate=2, input_spec=input_spec)
    for outcomes in _records(circuit):
        joint_prob_entangled(circuit, outcomes)
    return circuit


_Y_PREFIXES = {y for t in range(3) for y in itertools.product((0, 1), repeat=t)}


def test_caches_die_with_their_circuit():
    gc.collect()
    blocks, plans = len(majorana._BLOCKS), len(pfaffian._PLANS)
    circuit = _warm_circuit()
    gates = [g.gate for g in circuit.gates()]
    assert circuit in pfaffian._PLANS
    assert all(g in majorana._BLOCKS for g in gates)
    plan = pfaffian._PLANS[circuit]
    refs = [weakref.ref(circuit), weakref.ref(plan)] + [weakref.ref(g) for g in gates]
    # the covariance memo's states
    refs += [weakref.ref(a) for state in plan.states.values() for a in state]
    del circuit, gates, plan
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert (len(majorana._BLOCKS), len(pfaffian._PLANS)) == (blocks, plans)


def test_cached_blocks_and_rotations_are_read_only():
    circuit = _warm_circuit(_ZONE)
    block = majorana._BLOCKS[circuit.gates()[0].gate]
    with pytest.raises(ValueError):
        block[0, 0] = 2.0
    rotations = pfaffian._PLANS[circuit].prefix_r
    # one rotation per y-prefix: through segments 0, 1 and 2
    assert set(rotations) == _Y_PREFIXES
    for r in rotations.values():
        with pytest.raises(ValueError):
            r[0, 0] = 2.0


def test_covariance_states_are_read_only_and_fill_no_pair_sum_input():
    plan = pfaffian._PLANS[_warm_circuit()]
    # one state per y-prefix: after segments 0, 1 and 2
    assert set(plan.states) == _Y_PREFIXES
    assert (plan.prefix_r, plan.zone) == ({}, None)
    for masses, gammas in plan.states.values():
        for a in (masses, gammas):
            with pytest.raises(ValueError):
                a[0] = 2.0


def _refuse_per_circuit_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a warm joint redid per-circuit work")

    monkeypatch.setattr(pfaffian, "instantiate_segments", refuse)
    monkeypatch.setattr(pfaffian, "split_canonical_input", refuse)


def test_warm_joints_redo_no_per_circuit_work(monkeypatch):
    circuit = random_mg_circuit(4, 12, seed=8, n_intermediate=2, input_spec=_ZONE)
    records = list(_records(circuit))
    cold = [joint_prob_entangled(circuit, outcomes) for outcomes in records]
    _refuse_per_circuit_work(monkeypatch)
    assert [joint_prob_entangled(circuit, outcomes) for outcomes in records] == cold
    for outcomes in records:
        joint_prob_few_adaptive(circuit, outcomes)


def test_warm_covariance_joints_redo_no_per_circuit_work(monkeypatch):
    circuit = random_mg_circuit(4, 12, seed=8, n_intermediate=2)
    records = list(_records(circuit))
    cold = [joint_prob_entangled(circuit, outcomes) for outcomes in records]
    _refuse_per_circuit_work(monkeypatch)
    assert [joint_prob_entangled(circuit, outcomes) for outcomes in records] == cold

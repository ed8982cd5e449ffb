"""The errors both joint probabilities raise on a circuit or an outcome
assignment they cannot evaluate: which error, in which order, naming the
backend that was called, on a cold circuit and again on the same circuit
after an earlier call."""

import pytest

from matchsim.circuit import FSWAP, Circuit, Gate, Macro, Measure, Tilted, bits_input
from matchsim.errors import BackendInapplicable
from matchsim.heisenberg import joint_prob_few_adaptive
from matchsim.oracle import random_mg_circuit
from matchsim.pfaffian import joint_prob_entangled

JOINTS = {"pfaffian": joint_prob_entangled, "heisenberg": joint_prob_few_adaptive}
TILTED = Tilted(0.3)


def _circuit(*program):
    return Circuit(3, bits_input("010"), program).validate()


# each program also breaks the rules checked after the one it expects
CIRCUIT_ERRORS = {
    "circuit contains unexpanded macros": lambda: _circuit(
        Measure(0, "t", "final", TILTED), Macro.make("swap", line=1), Gate(0, FSWAP)),
    "non-computational measurement basis": lambda: _circuit(
        Gate(0, FSWAP), Measure(0, "t", "final", TILTED), Gate(1, FSWAP)),
    "gate after a final measurement": lambda: _circuit(
        Measure(0, "x", "final"), Gate(1, FSWAP), Measure(2, "t", "final", TILTED)),
}

# records m0, m1 (intermediates) and x0..x3 (finals)
RECORD_ERRORS = {
    "unknown record id 'y9'": {"m0": 0, "y9": 1, "m1": 0},
    "outcome assignment skips an intermediate measurement": {"m1": 0, "x0": 1},
    "final outcomes given while intermediates are unassigned": {"m0": 0, "x0": 1},
}


def _assert_raises(backend, circuit, outcomes, reason):
    with pytest.raises(BackendInapplicable) as exc:
        JOINTS[backend](circuit, outcomes)
    assert (exc.value.backend, exc.value.reason) == (backend, reason)
    assert str(exc.value) == f"backend {backend!r} inapplicable: {reason}"


@pytest.mark.parametrize("reason", sorted(CIRCUIT_ERRORS))
def test_circuit_errors_name_each_backend_called(reason):
    circuit = CIRCUIT_ERRORS[reason]()
    for backend in ("pfaffian", "heisenberg", "pfaffian", "heisenberg"):
        _assert_raises(backend, circuit, {"y9": 0}, reason)


@pytest.mark.parametrize("reason", sorted(RECORD_ERRORS))
@pytest.mark.parametrize("backend", sorted(JOINTS))
@pytest.mark.parametrize("warm_with", sorted(JOINTS))
def test_record_errors_cold_and_after_a_successful_joint(reason, backend, warm_with):
    circuit = random_mg_circuit(4, 12, seed=8, n_intermediate=2)
    _assert_raises(backend, circuit, RECORD_ERRORS[reason], reason)
    assert 0.0 <= JOINTS[warm_with](circuit, {"m0": 0, "m1": 1}) <= 1.0
    _assert_raises(backend, circuit, RECORD_ERRORS[reason], reason)

"""The benchmark's tracer (perfbench/tracer.py) patches program functions at
the names their callers look up and reads some of their arguments and
results.  A simplification that drops or reshapes one of those names breaks
the benchmark; this guard fails first."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

from matchsim import cli, heisenberg, majorana, oracle, pfaffian
from matchsim.circuit import BitsBlock, EntangledBlock, InputSpec
from matchsim.oracle import random_mg_circuit
from matchsim.serialize import serialize_circuit

ROOT = Path(__file__).resolve().parents[1]
NAMESPACES = {"cli": cli, "heisenberg": heisenberg, "majorana": majorana, "oracle": oracle,
              "pfaffian": pfaffian, "ChainRuleSampler": pfaffian.ChainRuleSampler}
PATCHED = {
    "cli.parse_circuit", "cli.compile_circuit", "pfaffian.instantiate_segments",
    "majorana.gate_rotation_block", "pfaffian.segment_rotation", "heisenberg.segment_rotation",
    "heisenberg.expectation_pauli", "heisenberg.apply_majorana_sum", "pfaffian.cumulative_ts",
    "pfaffian.build_o", "pfaffian.pfaffian", "pfaffian.joint_prob_entangled",
    "heisenberg.strong_single_line", "heisenberg.joint_prob_few_adaptive", "oracle.run_exact",
    "ChainRuleSampler.sample", "ChainRuleSampler._conditionals",
}


def _tracer_module():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    return importlib.import_module("perfbench.tracer")


def _snapshot():
    return {f"{label}.{key}": value for label, ns in NAMESPACES.items()
            for key, value in vars(ns).items()}


def test_tracer_install_and_restore_keep_every_patched_name(tmp_path, capsys):
    tracing = _tracer_module()
    path = tmp_path / "adaptive.json"
    path.write_text(serialize_circuit(random_mg_circuit(4, 10, seed=3, n_intermediate=1)))
    # a width-3 zone, which compiling keeps, so the joints take the pair sum
    zone = tmp_path / "zone.json"
    spec = InputSpec((BitsBlock("01"), EntangledBlock(3, np.full(8, 8 ** -0.5))))
    zone.write_text(serialize_circuit(random_mg_circuit(5, 10, seed=3, n_intermediate=1,
                                                        input_spec=spec)))
    before = _snapshot()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        patched = {name for name, value in _snapshot().items() if before.get(name) is not value}
        # one traced command of each kind runs every counter on real arguments
        tracer.begin_command("sample")
        assert cli.main(["sample", str(path), "--shots", "20"]) == 0
        sample_counts = tracer.end_command()
        tracer.begin_command("prob")
        assert cli.main(["prob", str(path), "-p", "0***", "--backend", "pfaffian"]) == 0
        tracer.end_command()
        tracer.begin_command("prob-zone")
        assert cli.main(["prob", str(zone), "-p", "0****", "--backend", "pfaffian"]) == 0
        prob_counts = tracer.end_command()
    finally:
        restore()
    capsys.readouterr()
    assert patched == PATCHED
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [name for name in before if after[name] is not before[name]] == []
    assert sample_counts["pfaffian.sampler.lookups"] > 0
    assert sample_counts["pfaffian.sampler.cache_entries"] > 0
    assert prob_counts["pfaffian.build_o.dim"] > 0
    assert prob_counts["pfaffian.support_pairs"] > 0
    assert prob_counts["pfaffian.cumulative_ts.calls"] > 0


def test_signatures_the_tracer_unpacks():
    params = inspect.signature(pfaffian.cumulative_ts).parameters
    assert list(params)[:4] == ["circuit", "outcomes", "upto", "with_final"]
    params = inspect.signature(pfaffian.ChainRuleSampler._conditionals).parameters
    assert list(params) == ["self", "prefix_bits", "prefix_assign", "denom"]

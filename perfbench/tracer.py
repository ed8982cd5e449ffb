"""Span tracing of the matchsim layers, from outside the program.

Each traced function is replaced, at the name its callers resolve, by a
wrapper that opens a span (name, start, end, parent) under the current
command id.  Spans of the hot names are only aggregated per (name, parent)
into count, total and self time, which bounds memory at ~1e5 calls per
command; the other spans are also kept in full and written out at the end.
A layer's self time is its span's duration minus the time its child spans
cover.  Counters are taken at the same boundaries, from arguments and
return values, so ratios are measured where the work happens.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Spans too frequent to keep one record each; they are aggregated only.
HOT = frozenset({
    "majorana.gate_rotation_block", "majorana.segment_rotation",
    "majorana.expectation_pauli", "majorana.apply_majorana_sum",
    "circuit.instantiate_segments", "pfaffian.cumulative_ts",
    "pfaffian.build_o", "pfaffian.pfaffian",
    "pfaffian.sampler.shot",
})

# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
LAYERS = (
    "serialize.parse_circuit", "gadgets.compile_circuit", "circuit.instantiate_segments",
    "majorana.gate_rotation_block", "majorana.segment_rotation",
    "majorana.expectation_pauli", "majorana.apply_majorana_sum",
    "pfaffian.cumulative_ts", "pfaffian.build_o", "pfaffian.pfaffian",
    "pfaffian.joint_prob_entangled", "heisenberg.strong_single_line",
    "heisenberg.joint_prob_few_adaptive", "oracle.run_exact",
)


class Tracer:
    """Nested spans on one thread; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.command = None  # id of the command being traced, None = off
        self.stack = []  # open frames: [name, start, child_time, span_id]
        self.next_id = 0
        self.spans = []  # (command, span_id, parent_id, name, start, end)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> count, total, self
        self.counts = defaultdict(float)  # counters of the current command
        self.totals = defaultdict(float)  # counters summed over finished commands
        self.seen = {}  # per-command identity sets for the distinct ratios

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        self.next_id += 1
        self.stack.append([name, self.clock(), 0.0, self.next_id])

    def close(self):
        end = self.clock()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        cell = self.agg[(name, parent[0] if parent else None)]
        cell[0] += 1
        cell[1] += dur
        cell[2] += dur - child
        self.counts[name + ".calls"] += 1
        if name not in HOT:
            self.spans.append((self.command, span_id, parent[3] if parent else None,
                               name, start, end))

    def begin_command(self, command_id):
        self.command = command_id
        self.counts = defaultdict(float)
        self.seen = {"gates": {}, "prefixes": set(), "samplers": {}, "circuits": {}}

    def end_command(self):
        """Close the command's counters; returns them for cross-checks."""
        counts = self.counts
        counts["pfaffian.sampler.cache_entries"] = sum(
            len(s.cache) for s in self.seen["samplers"].values())
        counts["majorana.gate_rotation_block.distinct"] = len(self.seen["gates"])
        counts["pfaffian.cumulative_ts.distinct_prefix"] = len(self.seen["prefixes"])
        for key, value in counts.items():
            self.totals[key] += value
        self.totals["ops"] += 1
        self.command = None
        self.seen = {}
        return counts

    def wrap(self, name, fn, counter=None):
        """``fn`` traced under ``name``; ``counter(tracer, args, result)``
        runs after the span closes, inside the caller's span."""

        def traced(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def self_time(self, name):
        return sum(cell[2] for (n, _), cell in self.agg.items() if n == name)

    def metrics(self):
        """Per-layer metrics, each averaged per traced command."""
        ops = max(self.totals["ops"], 1)
        t = self.totals
        out = {"cli.main.self_s": self.self_time("cli.main") / ops}
        for span in LAYERS:
            out[span + ".calls"] = t[span + ".calls"] / ops
            out[span + ".self_s"] = self.self_time(span) / ops

        def ratio(a, b):
            return a / b if b else 0.0

        out["cli.stdout_bytes"] = t["cli.stdout_bytes"] / ops
        out["gadgets.compile_circuit.added_lines"] = t["gadgets.added_lines"] / ops
        out["gadgets.compile_circuit.added_records"] = t["gadgets.added_records"] / ops
        out["majorana.gate_rotation_block.distinct_ratio"] = ratio(
            t["majorana.gate_rotation_block.distinct"], t["majorana.gate_rotation_block.calls"])
        out["pfaffian.cumulative_ts.distinct_prefix_ratio"] = ratio(
            t["pfaffian.cumulative_ts.distinct_prefix"], t["pfaffian.cumulative_ts.calls"])
        out["pfaffian.build_o.mean_dim"] = ratio(t["pfaffian.build_o.dim"],
                                                 t["pfaffian.build_o.calls"])
        out["pfaffian.pfaffian.ops_computed"] = t["pfaffian.pfaffian.ops"] / ops
        out["pfaffian.pair_keep_ratio"] = ratio(t["pfaffian.pfaffian.calls"],
                                                t["pfaffian.support_pairs"])
        out["pfaffian.sampler.shots"] = t["pfaffian.sampler.shot.calls"] / ops
        out["pfaffian.sampler.shot_self_s"] = self.self_time("pfaffian.sampler.shot") / ops
        out["pfaffian.sampler.cond_lookups"] = t["pfaffian.sampler.lookups"] / ops
        out["pfaffian.sampler.cond_hit_ratio"] = ratio(t["pfaffian.sampler.hits"],
                                                       t["pfaffian.sampler.lookups"])
        out["pfaffian.sampler.cache_entries"] = t["pfaffian.sampler.cache_entries"] / ops
        return out

    def shares(self):
        """Each span name's share of all self time (sums to 1)."""
        names = {n for n, _ in self.agg}
        total = sum(self.self_time(n) for n in names) or 1.0
        return {n: self.self_time(n) / total for n in sorted(names)}

    def dump(self):
        return {
            "spans": [dict(zip(("command", "id", "parent", "name", "start", "end"), s))
                      for s in self.spans],
            "aggregate": [{"name": n, "parent": p, "count": c[0], "total_s": c[1], "self_s": c[2]}
                          for (n, p), c in sorted(self.agg.items(), key=lambda kv: str(kv[0]))],
        }


# ---------------------------------------------------------------------------
# Counters taken at the span boundaries
# ---------------------------------------------------------------------------

def _gate_counter(tr, args, result):
    gate = args[0]
    tr.seen["gates"][id(gate)] = gate  # holding the object keeps its id unique


def _prefix_counter(tr, args, result):
    circuit, outcomes, upto, with_final = args
    inter = tr.seen["circuits"].get(id(circuit))
    if inter is None:
        inter = [m.record_id for m in circuit.measurements("intermediate")]
        tr.seen["circuits"][id(circuit)] = inter
    key = (id(circuit), with_final, tuple(outcomes[r] for r in inter[:upto]))
    tr.seen["prefixes"].add(key)


def _build_o_counter(tr, args, result):
    tr.counts["pfaffian.build_o.dim"] += result.shape[0]


def _pfaffian_counter(tr, args, result):
    d = len(args[0])
    tr.counts["pfaffian.pfaffian.ops"] += d ** 3 / 3


def _support_counter(split_canonical_input):
    def counter(tr, args, result):
        canon = split_canonical_input(args[0])
        amps = canon.zone_amps
        support = 1 if amps is None else int((amps != 0).sum())
        tr.counts["pfaffian.support_pairs"] += support * support
    return counter


def _compile_counter(tr, args, result):
    circuit, (out, _) = args[0], result
    tr.counts["gadgets.added_lines"] += out.n - circuit.n
    tr.counts["gadgets.added_records"] += (len(out.measurements())
                                           - len(circuit.measurements()))


def install(tracer):
    """Patch every traced name where its callers look it up; returns a
    function that restores the originals."""
    from matchsim import cli, heisenberg, majorana, oracle, pfaffian

    sampler = pfaffian.ChainRuleSampler
    original_conditionals = sampler._conditionals

    def conditionals(self, prefix_bits, prefix_assign, denom):
        # counted without a span: one lookup per step of every shot, and a
        # span each would swamp the shot loop it sits in
        if tracer.command is not None:
            tracer.counts["pfaffian.sampler.lookups"] += 1
            if prefix_bits in self.cache:
                tracer.counts["pfaffian.sampler.hits"] += 1
            tracer.seen["samplers"][id(self)] = self
        return original_conditionals(self, prefix_bits, prefix_assign, denom)

    plan = [
        ("serialize.parse_circuit", [(cli, "parse_circuit")], None),
        ("gadgets.compile_circuit", [(cli, "compile_circuit")], _compile_counter),
        ("circuit.instantiate_segments", [(pfaffian, "instantiate_segments")], None),
        ("majorana.gate_rotation_block", [(majorana, "gate_rotation_block")], _gate_counter),
        ("majorana.segment_rotation",
         [(pfaffian, "segment_rotation"), (heisenberg, "segment_rotation")], None),
        ("majorana.expectation_pauli", [(heisenberg, "expectation_pauli")], None),
        ("majorana.apply_majorana_sum", [(heisenberg, "apply_majorana_sum")], None),
        ("pfaffian.cumulative_ts", [(pfaffian, "cumulative_ts")], _prefix_counter),
        ("pfaffian.build_o", [(pfaffian, "build_o")], _build_o_counter),
        ("pfaffian.pfaffian", [(pfaffian, "pfaffian")], _pfaffian_counter),
        ("pfaffian.joint_prob_entangled", [(pfaffian, "joint_prob_entangled")],
         _support_counter(pfaffian.split_canonical_input)),
        ("heisenberg.strong_single_line", [(heisenberg, "strong_single_line")], None),
        ("heisenberg.joint_prob_few_adaptive", [(heisenberg, "joint_prob_few_adaptive")], None),
        ("oracle.run_exact", [(oracle, "run_exact")], None),
        ("pfaffian.sampler.shot", [(sampler, "sample")], None),
    ]
    saved = []
    for name, sites, counter in plan:
        fn = getattr(*sites[0])
        traced = tracer.wrap(name, fn, counter)
        for owner, attr in sites:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, traced)
    saved.append((sampler, "_conditionals", original_conditionals))
    sampler._conditionals = conditionals

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore

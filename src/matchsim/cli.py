"""Command-line interface: prob, sample, xcheck, gadget expand.

Every command is deterministic given (inputs, flags, seed): timing goes to
stderr, reports to stdout.  Exit codes: 0 success, 2 validation error,
3 backend inapplicable, 4 tolerance breach in xcheck.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import heisenberg, oracle, pfaffian
from .circuit import Circuit
from .errors import BackendInapplicable, CapExceeded, Inapplicable, MatchsimError, ValidationError
from .gadgets import compile_circuit, expand_macros
from .serialize import parse_circuit, serialize_circuit

DEFAULT_TOL = 1e-7
# xcheck skips the Heisenberg joint above this many intermediates: on n = 6 with 3
# it takes 0.18-0.42 s (2-core host), 2-3x what the rest of the check takes.
XCHECK_HEISENBERG_INTERMEDIATES = 2
# xcheck --random refuses DEPTH x COUNT above this many gates before it builds
# a circuit; it builds them one at a time, and one holds at most this many
XCHECK_RANDOM_GATES = 10 ** 5

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INAPPLICABLE = 3
EXIT_TOLERANCE = 4


@dataclass
class RunReport:
    backend: str
    command: str
    seed: int | None = None
    probabilities: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    wall_ms: float = 0.0  # reported on stderr only, to keep stdout deterministic

    def to_text(self) -> str:
        lines = [f"# command={self.command} backend={self.backend}"
                 + (f" seed={self.seed}" if self.seed is not None else "")]
        for key in sorted(self.probabilities):
            lines.append(f"p({key}) = {self.probabilities[key]!r}")
        lines.extend(self.samples)
        for key in sorted(self.counters):
            lines.append(f"# {key}={self.counters[key]}")
        if self.flags:
            lines.append("# flags=" + ",".join(self.flags))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "backend": self.backend,
            "seed": self.seed,
            "probabilities": self.probabilities,
            "samples": self.samples,
            "counters": self.counters,
            "flags": self.flags,
        }
        return json.dumps(doc, sort_keys=True) + "\n"


def _read_circuit(path) -> Circuit:
    with open(path, "rb") as fh:
        return parse_circuit(fh.read())


def _read_lowered(path, command) -> Circuit:
    """The circuit at ``path``, which must hold no macro: only ``gadget
    expand`` lowers them.  The macros are decoded first, by lowering them, so
    a malformed one exits 2 and only a well-formed one exits 3."""
    circuit = _read_circuit(path)
    if circuit.has_macros():
        expand_macros(circuit)
        raise BackendInapplicable(command, "circuit has unexpanded macros; run gadget expand")
    return circuit


def _final_records(circuit):
    return [m.record_id for m in circuit.measurements("final")]


def _intermediate_records(circuit):
    return [m.record_id for m in circuit.measurements("intermediate")]


def _pattern_assignment(circuit, pattern):
    finals = _final_records(circuit)
    if len(pattern) != len(finals):
        raise ValidationError(
            "pattern", f"pattern length {len(pattern)} != {len(finals)} final measurements"
        )
    out = {}
    for rid, ch in zip(finals, pattern):
        if ch == "*":
            continue
        if ch not in "01":
            raise ValidationError("pattern", f"bad pattern character {ch!r}")
        out[rid] = int(ch)
    return out


def _sum_over(records, outcomes, joint):
    """Sum of ``joint`` over every 0/1 assignment of ``records``, each added
    to ``outcomes``."""
    total = 0.0
    for y in np.ndindex(*([2] * len(records))):
        oc = dict(outcomes)
        oc.update(zip(records, map(int, y)))
        total += joint(oc)
    return total


def _marginal_probability(circuit, pattern, backend, stats):
    """p(pattern) marginalized over wildcards and intermediate outcomes;
    the backends' numerical-health flags accumulate in ``stats.flags``."""
    assignment = _pattern_assignment(circuit, pattern)
    inters = _intermediate_records(circuit)
    if backend == "oracle":
        dist = oracle.run_exact(circuit)
        return dist.probability(assignment), {"branches": len(dist.probs)}
    if backend == "heisenberg":
        if not inters and len(assignment) == 1:
            ((rid, bit),) = assignment.items()
            line = next(m.line for m in circuit.measurements("final") if m.record_id == rid)
            total = heisenberg.strong_single_line(circuit, line, outcome=bit, stats=stats)
        else:
            total = _sum_over(inters, assignment, lambda oc: heisenberg.joint_prob_few_adaptive(
                circuit, oc, stats=stats))
        return total, {"terms": stats.term_count}
    # pfaffian, summed over the compiled circuit's added records too
    work, _ = compile_circuit(circuit)
    added = [r for r in _intermediate_records(work) if r not in inters]
    total = _sum_over(inters, assignment, lambda oc: _sum_over(
        added, oc, lambda full: pfaffian.joint_prob_entangled(work, full, stats)))
    return total, {"pfaffian_evals": stats.evaluated_pairs}


def _pick_backend(requested, circuit, pattern):
    if requested != "auto":
        return requested
    if not _intermediate_records(circuit) and sum(ch != "*" for ch in pattern) == 1:
        try:
            pfaffian.plan(circuit, "heisenberg")
            return "heisenberg"
        except BackendInapplicable:
            pass
    return "pfaffian"


def cmd_prob(args) -> tuple[int, RunReport]:
    circuit = _read_lowered(args.circuit, "prob")
    backend = _pick_backend(args.backend, circuit, args.pattern)
    stats = pfaffian.EvalStats()
    p, counters = _marginal_probability(circuit, args.pattern, backend, stats)
    report = RunReport(backend, "prob", seed=None, probabilities={args.pattern: p},
                       counters=counters, flags=stats.flags)
    return EXIT_OK, report


def _format_record(rec_bits, order):
    d = dict(rec_bits)
    return " ".join(f"{rid}={d[rid]}" for rid in order if rid in d)


def cmd_sample(args) -> tuple[int, RunReport]:
    circuit = _read_lowered(args.circuit, "sample")
    backend = args.backend if args.backend != "auto" else "pfaffian"
    report = RunReport(backend, "sample", seed=args.seed)
    if backend == "oracle":
        keys, index = oracle.sample_distribution(oracle.run_exact(circuit), args.shots, args.seed)
    elif backend == "pfaffian":
        work, _ = compile_circuit(circuit)
        sampler = pfaffian.ChainRuleSampler(work)
        keys, index = pfaffian.sample_many(work, args.shots, args.seed, sampler=sampler)
        report.counters["conditionals_cached"] = len(sampler.cache)
    else:
        keys, index = pfaffian.sample_many(circuit, args.shots, args.seed,
                                           sampler=heisenberg.heisenberg_sampler(circuit))
    order = [m.record_id for m in circuit.measurements()]
    texts = [_format_record(key, order) for key in keys]
    report.samples = [texts[i] for i in index.tolist()]
    report.counters["shots"] = args.shots
    return EXIT_OK, report


def _deviation(dist, joint):
    """(max |p - q|, total-variation distance) between the oracle's records
    and ``joint`` on them."""
    dev = 0.0
    tv = 0.0
    for rec, p in dist.probs.items():
        q = joint(dict(rec))
        dev = max(dev, abs(p - q))
        tv += abs(p - q)
    return dev, tv / 2


def _xcheck_one(circuit):
    """Run every applicable backend against the oracle joint distribution.

    Returns ({backend: (max_abs_deviation, tv_distance)}, flags)."""
    dist = oracle.run_exact(circuit)
    stats = pfaffian.EvalStats()
    # pfaffian on the compiled circuit, compared against the oracle on the
    # same compiled circuit (record sets match exactly)
    work, _ = compile_circuit(circuit)
    wdist = dist if work is circuit else oracle.run_exact(work)
    devs = {"pfaffian": _deviation(
        wdist, lambda oc: pfaffian.joint_prob_entangled(work, oc, stats))}
    flags = stats.flags
    # heisenberg where applicable
    if len(_intermediate_records(circuit)) > XCHECK_HEISENBERG_INTERMEDIATES:
        flags.append("heisenberg skipped: more than "
                     f"{XCHECK_HEISENBERG_INTERMEDIATES} intermediate measurements")
        return devs, flags
    try:
        pfaffian.plan(circuit, "heisenberg")
    except BackendInapplicable as exc:
        flags.append(f"heisenberg skipped: {exc.reason}")
        return devs, flags
    devs["heisenberg"] = _deviation(
        dist, lambda oc: heisenberg.joint_prob_few_adaptive(circuit, oc, stats=stats))
    return devs, flags


def cmd_xcheck(args) -> tuple[int, RunReport]:
    if args.circuit:
        circuits, count = [("file", _read_lowered(args.circuit, "xcheck"))], 1
    else:
        n, depth, count, seed = args.random
        if n < 2 or count < 1:
            raise ValidationError("xcheck-random", f"need N >= 2 and COUNT >= 1, got {n}, {count}")
        oracle.check_width(n)
        if depth * count > XCHECK_RANDOM_GATES:
            raise CapExceeded(f"DEPTH x COUNT = {depth * count} random gates exceeds cap "
                              f"{XCHECK_RANDOM_GATES}")
        circuits = ((f"random{i}", oracle.random_mg_circuit(n, depth, seed=seed + i,
                                                           n_intermediate=i % 4))
                    for i in range(count))
    report = RunReport("xcheck", "xcheck", seed=None)
    worst = 0.0
    for name, c in circuits:
        devs, flags = _xcheck_one(c)
        for b in sorted(devs):
            dev, tv = devs[b]
            worst = max(worst, dev)
            report.probabilities[f"{name}.{b}.maxdev"] = dev
            report.probabilities[f"{name}.{b}.tv"] = tv
        report.flags.extend(f"{name}: {f}" for f in flags)
    report.counters["circuits"] = count
    report.counters["max_abs_deviation"] = worst
    code = EXIT_OK if worst <= args.tol else EXIT_TOLERANCE
    return code, report


def cmd_gadget_expand(args) -> tuple[int, RunReport]:
    circuit = _read_circuit(args.circuit)
    expanded, cost = expand_macros(circuit, post_selected_swaps=args.post_selected)
    expanded.validate()
    text = serialize_circuit(expanded)
    report = RunReport("gadgets", "gadget-expand")
    report.samples = [text.rstrip("\n")]
    for name, c in cost.items():
        for key, value in asdict(c).items():
            report.counters[f"{name}.{key}"] = value
    report.counters["lines"] = expanded.n
    return EXIT_OK, report


def natural(text):
    """argparse type of counts, sizes and seeds: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def tolerance(text):
    """argparse type of --tol: a float, not nan."""
    value = float(text)
    if np.isnan(value):
        raise argparse.ArgumentTypeError("must be a number, got nan")
    return value


def build_parser():
    ap = argparse.ArgumentParser(prog="matchsim",
                                 description="Classical simulation of nearest-neighbour "
                                             "matchgate circuits")
    sub = ap.add_subparsers(dest="command", required=True)

    options = {
        "--backend": dict(choices=["auto", "heisenberg", "pfaffian", "oracle"],
                          default="auto"),
        "--seed": dict(type=natural, default=0),
        "--tol": dict(type=tolerance, default=DEFAULT_TOL),
    }

    def common(p, *names):
        """The named options, each read by the subcommand, plus --json."""
        for name in names:
            p.add_argument(name, **options[name])
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("prob", help="probability of an outcome pattern")
    p.add_argument("circuit")
    p.add_argument("--pattern", "-p", required=True,
                   help="final-outcome pattern over the final measurements, "
                        "e.g. 01*1 (* marginalizes)")
    common(p, "--backend")

    p = sub.add_parser("sample", help="weak simulation: sample outcome records")
    p.add_argument("circuit")
    p.add_argument("--shots", type=natural, default=1)
    common(p, "--backend", "--seed")

    p = sub.add_parser("xcheck", help="differential check of all backends vs the oracle")
    p.add_argument("circuit", nargs="?", default=None)
    p.add_argument("--random", nargs=4, type=natural, metavar=("N", "DEPTH", "COUNT", "SEED"),
                   help="check COUNT >= 1 random circuits of N >= 2 lines instead of a file; "
                        "circuit i has i %% 4 intermediate measurements")
    common(p, "--tol")

    p = sub.add_parser("gadget", help="gadget utilities")
    gsub = p.add_subparsers(dest="gadget_command", required=True)
    g = gsub.add_parser("expand", help="lower gadget macros to primitives")
    g.add_argument("circuit")
    g.add_argument("--post-selected", action="store_true",
                   help="emit the post-selected SWAP-gadget variant")
    common(g)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "prob":
            code, report = cmd_prob(args)
        elif args.command == "sample":
            code, report = cmd_sample(args)
        elif args.command == "xcheck":
            if args.circuit is None and args.random is None:
                print("xcheck: need a circuit file or --random", file=sys.stderr)
                return EXIT_VALIDATION
            code, report = cmd_xcheck(args)
        else:
            code, report = cmd_gadget_expand(args)
    except Inapplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except MatchsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report.wall_ms = (time.perf_counter() - t0) * 1e3
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    print(f"# wall_ms={report.wall_ms:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

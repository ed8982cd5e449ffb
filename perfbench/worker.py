"""One workload in one fresh process: set up, time a closed loop of CLI
commands, then check every output against references outside the timed
phase.  Started by ``run.py`` with BLAS pinned to one thread; prints
``READY`` when set-up ends and one JSON result as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import FILE, SAMPLE_SHOTS, WORKLOADS  # noqa: E402

PROB_ORACLE_TOL = 1e-7  # pfaffian / heisenberg against the dense oracle
SUM_TOL = 1e-9  # a complete pattern set sums to 1
TV_TOL_AT_1E5 = 0.01  # sampler marginal against the oracle at 1e5 shots
ORACLE_MAX_N = 16


class Op:
    """One timed command and what the checks need from its output."""

    def __init__(self, cls, path, argv):
        self.cls = cls
        self.path = path
        self.argv = argv
        self.code = None
        self.wall = self.cpu = 0.0
        self.doc = None
        self.digest = ""
        self.final_counts = None
        self.breaches = []
        self.trace_counts = None


def run_cli(argv):
    """Run ``matchsim.cli.main`` in process; returns (exit code, stdout,
    wall s, cpu s).  An uncaught exception is a failed command (code 1)."""
    from matchsim import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed command, not a crash of the run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue(), wall, cpu


def _record(op, code, stdout):
    """Keep a compact summary of the output; the text itself is dropped so
    stored results do not grow the process's peak memory."""
    op.code = code
    op.digest = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        doc = json.loads(stdout)
    except ValueError:
        op.breaches.append("stdout is not one JSON document")
        return
    samples = doc.pop("samples", [])
    if op.argv[0] == "sample":
        op.final_counts = Counter(
            tuple(int(tok.split("=")[1]) for tok in s.split() if tok.startswith("x"))
            for s in samples)
    op.doc = doc


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = None
        self.round = 0
        self.pending = []

    def write(self, text, argv, tag):
        path = self.workdir / f"{tag}.json"
        path.write_text(text)
        return str(path), [str(path) if a == FILE else a for a in argv]

    def generate_round(self):
        self.pending = []
        for c, label in enumerate(self.workload.classes):
            text, argv = self.workload.make(self.seed, self.round, c)
            path, argv = self.write(text, argv, f"r{self.round}-{label}")
            self.pending.append(Op(c, path, argv))
        self.round += 1

    def run_round(self, traced):
        ops, self.pending = self.pending, []
        for op in ops:
            if traced:
                self.tracer.begin_command(Path(op.path).name)
                self.tracer.open("cli.main")
            try:
                code, stdout, op.wall, op.cpu = run_cli(op.argv)
            finally:
                if traced:
                    self.tracer.close()
            if traced:
                self.tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
                op.trace_counts = self.tracer.end_command()
            _record(op, code, stdout)
        return ops

    def timed_phase(self, seconds, traced=False):
        """Whole rounds until the commands' summed wall time reaches
        ``seconds``; file generation between commands is not timed."""
        ops, busy = [], 0.0
        while busy < seconds:
            if not self.pending:
                self.generate_round()
            done = self.run_round(traced)
            ops += done
            busy += sum(op.wall for op in done)
        return ops, busy


# ---------------------------------------------------------------------------
# References and checks (outside the timed phase)
# ---------------------------------------------------------------------------

def _circuit(path):
    from matchsim import parse_circuit

    return parse_circuit(Path(path).read_bytes())


def _assignment(circuit, pattern):
    finals = [m.record_id for m in circuit.measurements("final")]
    return {rid: int(ch) for rid, ch in zip(finals, pattern) if ch != "*"}


def oracle_probability(path, pattern):
    from matchsim.oracle import run_exact

    circuit = _circuit(path)
    dist = run_exact(circuit, n_cap=max(circuit.n, 14))
    return dist.probability(_assignment(circuit, pattern))


def oracle_final_marginal(path):
    from matchsim.oracle import run_exact

    circuit = _circuit(path)
    finals = [m.record_id for m in circuit.measurements("final")]
    return run_exact(circuit).marginal(finals)


class References:
    """The reference computations; a test substitutes wrong ones to show
    that a breach is counted."""

    oracle_probability = staticmethod(oracle_probability)
    oracle_final_marginal = staticmethod(oracle_final_marginal)

    @staticmethod
    def cli_probability(argv, pattern):
        """p(pattern) from a further CLI command on the same file."""
        argv = list(argv)
        argv[argv.index("-p") + 1] = pattern
        code, stdout, _, _ = run_cli(argv)
        if code != 0:
            return math.nan
        return json.loads(stdout)["probabilities"][pattern]

    @staticmethod
    def cli_digest(argv):
        code, stdout, _, _ = run_cli(argv)
        return hashlib.sha256(stdout.encode()).hexdigest()


def _probability(op):
    (value,) = op.doc["probabilities"].values()
    return value


def _pattern(op):
    return op.argv[op.argv.index("-p") + 1]


def _lines(path):
    return json.loads(Path(path).read_text())["n"]


def _complements(pattern):
    """Every pattern with the same fixed positions, the given one excluded."""
    fixed = [j for j, ch in enumerate(pattern) if ch != "*"]
    out = []
    for bits in range(2 ** len(fixed)):
        p = list(pattern)
        for k, j in enumerate(fixed):
            p[j] = str((bits >> (len(fixed) - 1 - k)) & 1)
        if "".join(p) != pattern:
            out.append("".join(p))
    return out


def check_prob_ops(ops, refs):
    """Every command within 1e-7 of the dense oracle where n <= 16.  Beyond
    the oracle's reach, the first command of each size class is run for
    every pattern over the same fixed positions, and the set must sum to 1
    (p(0)+p(1) for one fixed position)."""
    seen = set()
    for op in ops:
        p = _probability(op)
        if not 0.0 <= p <= 1.0:
            op.breaches.append(f"probability {p!r} outside [0, 1]")
        elif _lines(op.path) <= ORACLE_MAX_N:
            ref = refs.oracle_probability(op.path, _pattern(op))
            if not abs(p - ref) <= PROB_ORACLE_TOL:
                op.breaches.append(f"p={p!r} differs from the oracle {ref!r}")
        elif op.cls not in seen:
            seen.add(op.cls)
            total = p + sum(refs.cli_probability(op.argv, q) for q in _complements(_pattern(op)))
            if not abs(total - 1.0) <= SUM_TOL:
                op.breaches.append(f"pattern set sums to {total!r}")


def check_sample_ops(ops, refs):
    tol = TV_TOL_AT_1E5 * math.sqrt(1e5 / SAMPLE_SHOTS)  # same confidence at fewer shots
    for op in ops:
        marg = refs.oracle_final_marginal(op.path)
        shots = sum(op.final_counts.values())
        keys = set(marg) | set(op.final_counts)
        tv = 0.5 * sum(abs(op.final_counts.get(k, 0) / shots - marg.get(k, 0.0)) for k in keys)
        if not tv <= tol:
            op.breaches.append(f"sampled final marginal at TV {tv:.4f} > {tol:.4f}")
    if ops and refs.cli_digest(ops[0].argv) != ops[0].digest:
        ops[0].breaches.append("sample stdout differs on a repeat of the same (file, seed)")


def check_xcheck_ops(ops, refs):
    for op in ops:
        dev = op.doc["counters"]["max_abs_deviation"]
        if not dev <= PROB_ORACLE_TOL:
            op.breaches.append(f"xcheck max deviation {dev!r}")


def check_ops(name, ops, refs=References):
    """Append breaches to ``ops``; returns the number of failed commands."""
    ok = [op for op in ops if op.code == 0 and op.doc is not None]
    if name == "sample-adaptive":
        check_sample_ops(ok, refs)
    elif name == "prob":
        check_prob_ops(ok, refs)
    elif name == "xcheck-random":
        check_xcheck_ops(ok, refs)
    return sum(1 for op in ops if op.code != 0 or op.breaches)


def cross_check_counters(name, ops):
    """The wrappers must see exactly what the program's own counters
    report, which shows they wrap the bindings the callers resolve."""
    for op in ops:
        counts, counters = op.trace_counts, (op.doc or {}).get("counters", {})
        if counts is None or op.code != 0:
            continue
        backend = op.doc["backend"]
        if name == "prob" and backend == "pfaffian" and (
                counts["pfaffian.pfaffian.calls"] != counters["pfaffian_evals"]):
            op.breaches.append(f"traced pfaffian calls {counts['pfaffian.pfaffian.calls']} "
                               f"!= pfaffian_evals {counters['pfaffian_evals']}")
        if name == "sample-adaptive" and (
                counts["pfaffian.sampler.cache_entries"] != counters["conditionals_cached"]):
            op.breaches.append("traced cache entries != conditionals_cached")
        if name == "prob" and backend == "heisenberg":
            n = _lines(op.path)
            if not counts["majorana.expectation_pauli.calls"] == counters["terms"] == (2 * n) ** 2:
                op.breaches.append("traced expectation_pauli calls != terms != (2n)^2")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def class_median(ops, attr):
    """Mean over size classes of each class's median; one class = median."""
    by_class = {}
    for op in ops:
        by_class.setdefault(op.cls, []).append(getattr(op, attr))
    return statistics.fmean(statistics.median(v) for v in by_class.values())


def end_to_end(ops, busy, peak_rss_kb):
    return {
        "ops_per_s": len(ops) / busy,
        "op_s_p50": class_median(ops, "wall"),
        "op_cpu_s_p50": class_median(ops, "cpu"),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    head = Path(".git/HEAD")
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            commit = Path(".git", ref[5:]).read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "matchsim_threads": os.environ.get("MATCHSIM_THREADS", "unset (program default 1)"),
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import matchsim  # noqa: F401  (import cost belongs to set-up)

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.workdir)
    runner.generate_round()
    warm_codes = [run_cli(runner.write(text, argv, f"warm-up{k}")[1])[0]
                  for k, (text, argv) in enumerate(workload.warmup(args.seed))]
    warm_failed = sum(1 for code in warm_codes if code != 0)
    print("READY", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    if args.setup_only:
        return 0 if not warm_failed else 1

    result = {"environment": environment(args.seed)}
    if args.trace:
        import tracer as tracing

        runner.tracer = tracing.Tracer()
        plain, plain_busy = runner.timed_phase(args.seconds / 2)
        restore = tracing.install(runner.tracer)
        try:
            traced, traced_busy = runner.timed_phase(args.seconds / 2, traced=True)
        finally:
            restore()
        ops = plain + traced
        metrics = runner.tracer.metrics()
        metrics["trace.ops_per_s_untraced"] = len(plain) / plain_busy
        metrics["trace.ops_per_s_traced"] = len(traced) / traced_busy
        metrics["trace.overhead_ops_per_s"] = (metrics["trace.ops_per_s_untraced"]
                                               - metrics["trace.ops_per_s_traced"])
        cross_check_counters(args.workload, traced)
        result["layer_shares"] = runner.tracer.shares()
        result["trace"] = runner.tracer.dump()
    else:
        ops, busy = runner.timed_phase(args.seconds)
        metrics = end_to_end(ops, busy, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result.update({
        "attempted": len(ops) + len(warm_codes),
        "failed": check_ops(args.workload, ops) + warm_failed,
        "metrics": metrics,
        "ops_per_class": dict(Counter(workload.classes[op.cls] for op in ops)),
        "class_p50_s": {workload.classes[c]: statistics.median(op.wall for op in ops if op.cls == c)
                        for c in sorted({op.cls for op in ops})},
        "breaches": [f"{workload.classes[op.cls]} {Path(op.path).name}: {b}"
                     for op in ops for b in op.breaches]
                    + [f"{Path(op.path).name}: exit code {op.code}" for op in ops if op.code],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""matchsim benchmark: closed-loop CLI workloads, end to end or traced.

Run from the root of a matchsim checkout:

    python3 perfbench/run.py --workload prob --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans under ``perfbench/_out/``).  ``--workload all``
runs every workload in turn and prints one table.  A human-readable report
goes to stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in a fresh child process with BLAS pinned to one thread
and ``MATCHSIM_THREADS`` unset.  ``setup_s`` is the median, over
``SETUP_SAMPLES`` fresh processes, of the time from process start to the
first timed command: interpreter, ``import matchsim``, input generation and
the warm-up commands.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured; the last one runs the workload
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_cpu_s_p50": "s",
    "peak_rss_mb": "MB",
}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def unit(name, trace):
    return per_layer_unit(name) if trace else END_TO_END_UNITS[name]


def per_layer_unit(name):
    if name.startswith("trace."):
        return "1/s"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B/op"
    if name.endswith("mean_dim"):
        return "rows"
    return "count/op"


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("MATCHSIM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, workdir, env, deadline, setup_only):
    """Run one worker to its end; returns (seconds from process start to
    READY, last stdout line).  Both ends read the system-wide monotonic
    clock, so the interval includes interpreter start-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    ready = [float(line.split()[1]) - t0 for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready[0], lines[-1]


def run_workload(args, root):
    """One workload: set-up samples, then the measured run in the last
    process.  Returns the worker's result with ``setup_s`` added."""
    env = child_env(root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = HERE / "_work" / str(os.getpid())
    setups = []
    try:
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, base / f"setup{k}", env, deadline, True)[0])
        ready, last = spawn(args, base / "run", env, deadline, False)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            base.parent.rmdir()
    result = json.loads(last)
    if not args.trace:
        setups.append(ready)
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(name, result, trace):
    err = sys.stderr
    env = result["environment"]
    print(f"== {name}  seed={env['seed']}  attempted={result['attempted']} "
          f"failed={result['failed']}  commands per class={result['ops_per_class']}", file=err)
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()), file=err)
    print("   median command wall time per class: " + ", ".join(
        f"{c}={t:.4g} s" for c, t in result["class_p50_s"].items()), file=err)
    for metric, value in sorted(result["metrics"].items()):
        print(f"   {metric:48s} {value:14.6g} {unit(metric, trace)}", file=err)
    if result.get("layer_shares"):
        print("   share of traced self time:", file=err)
        for span, share in sorted(result["layer_shares"].items(), key=lambda kv: -kv[1]):
            print(f"     {span:46s} {share:7.1%}", file=err)
    for breach in result["breaches"]:
        print(f"   FAILED {breach}", file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "matchsim" / "cli.py").is_file():
        print("error: run from the root of a matchsim checkout (src/matchsim/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            results[name] = run_workload(one, root)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name], args.trace)
        if args.trace:
            out = HERE / "_out"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{name}-seed{args.seed}.json"
            path.write_text(json.dumps({k: results[name][k] for k in
                                        ("environment", "layer_shares", "trace")}))
            print(f"   spans written to {path.relative_to(root)}", file=sys.stderr)

    prefix = len(names) > 1
    print(json.dumps({"environment": results[names[0]]["environment"]}))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{name}.{m}" if prefix else m): {"value": v, "unit": unit(m, args.trace)}
                    for name, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

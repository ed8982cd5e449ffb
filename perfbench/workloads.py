"""Seeded input generators for the four benchmark workloads.

Every generator is pure Python (``random.Random`` plus ``json``), so the
bytes of each circuit file depend only on the seed, never on numpy or on the
program under test.  Structure (line count, depth, measurement positions)
is fixed per workload so that per-command cost varies little between seeds;
the seed draws gate angles, gate lines, guards, input states and patterns.
"""

from __future__ import annotations

import json
import math
import random

TWO_PI = 2 * math.pi
FILE = "{file}"  # placeholder for the circuit path in a command line


def _rng(seed, *stream):
    """Independent, reproducible stream per (seed, workload, file index)."""
    return random.Random(repr((seed,) + stream))


def _state(rng, dim):
    """Random normalised complex vector as (re, im) pairs."""
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def _bits(rng, k):
    return "".join(rng.choice("01") for _ in range(k))


def _doc(n, blocks, program):
    return json.dumps({"n": n, "input": blocks, "program": program},
                      sort_keys=True, separators=(",", ":")) + "\n"


def _program(rng, n, depth, inter_at, final_lines, guard_prob=0.5):
    """Random nearest-neighbour gates with intermediate measurements placed
    before the given gate indices; later gates may carry parity guards on
    the intermediates measured so far (the ``random_mg_circuit`` family)."""
    program = []
    available = []
    for d in range(depth):
        for k, at in enumerate(inter_at):
            if at == d:
                rid = f"m{k}"
                program.append({"op": "measure", "line": rng.randrange(n) + 1, "id": rid,
                                "role": "intermediate", "basis": {"kind": "computational"}})
                available.append(rid)
        gate = {"op": "gate", "line": rng.randrange(n - 1) + 1,
                "angles": [rng.uniform(0, TWO_PI) for _ in range(6)]}
        if available and rng.random() < guard_prob:
            ids = rng.sample(available, rng.randint(1, len(available)))
            gate["guard"] = {"ids": sorted(ids), "parity": rng.randrange(2)}
        program.append(gate)
    for j, line in enumerate(final_lines):
        program.append({"op": "measure", "line": line + 1, "id": f"x{j}",
                        "role": "final", "basis": {"kind": "computational"}})
    return program


def _finals(rng, n, count):
    return sorted(rng.sample(range(n), count))


# ---------------------------------------------------------------------------
# sample-adaptive: n=6 with a two-qubit entangled block in the middle, which
# compile_circuit lowers to 10 lines with 3 extra records; 1 guarded
# intermediate, depth 30, 2 final lines, so the conditional tree is 6 deep.
# ---------------------------------------------------------------------------

SAMPLE_SHOTS = 25_000


def sample_adaptive(seed, index):
    rng = _rng(seed, "sample-adaptive", index)
    n = 6
    blocks = [{"kind": "bits", "value": _bits(rng, 2)},
              {"kind": "entangled", "k": 2,
               "amps": [[z.real, z.imag] for z in _state(rng, 4)]},
              {"kind": "bits", "value": _bits(rng, 2)}]
    program = _program(rng, n, 30, (15,), _finals(rng, n, 2))
    argv = ["sample", FILE, "--shots", str(SAMPLE_SHOTS),
            "--seed", str(rng.randrange(2 ** 31)), "--json"]
    return _doc(n, blocks, program), argv


# ---------------------------------------------------------------------------
# prob-zone: bits plus a trailing width-6 entangled zone with 32 nonzero
# amplitudes (16 of each parity, so 512 of the 1024 cross pairs survive the
# parity pruning), depth 2n, 3 final lines, patterns with 2 fixed positions.
# ---------------------------------------------------------------------------

ZONE_WIDTH = 6
ZONE_SIZES = ((8, 0), (16, 1), (32, 0), (64, 1))  # (n, intermediate count)


def prob_zone(seed, index, n, n_intermediate):
    rng = _rng(seed, "prob-zone", index)
    width = ZONE_WIDTH
    even = [w for w in range(2 ** width) if bin(w).count("1") % 2 == 0]
    odd = [w for w in range(2 ** width) if bin(w).count("1") % 2 == 1]
    support = sorted(rng.sample(even, 16) + rng.sample(odd, 16))
    vals = _state(rng, len(support))
    amps = [[0.0, 0.0] for _ in range(2 ** width)]
    for w, z in zip(support, vals):
        amps[w] = [z.real, z.imag]
    blocks = [{"kind": "bits", "value": _bits(rng, n - width)},
              {"kind": "entangled", "k": width, "amps": amps}]
    depth = 2 * n
    inter_at = tuple(rng.randrange(depth) for _ in range(n_intermediate))
    program = _program(rng, n, depth, inter_at, _finals(rng, n, 3))
    free = rng.randrange(3)
    pattern = "".join("*" if j == free else rng.choice("01") for j in range(3))
    return _doc(n, blocks, program), ["prob", FILE, "-p", pattern, "--json"]


# ---------------------------------------------------------------------------
# prob-single-line: non-adaptive, every line a random product state,
# depth 4n, 3 final lines, one fixed pattern position.
# ---------------------------------------------------------------------------

SINGLE_LINE_SIZES = (16, 32)


def prob_single_line(seed, index, n):
    rng = _rng(seed, "prob-single-line", index)
    states = []
    for _ in range(n):
        a, b = _state(rng, 2)
        states.append([a.real, a.imag, b.real, b.imag])
    blocks = [{"kind": "product", "states": states}]
    program = _program(rng, n, 4 * n, (), _finals(rng, n, 3))
    fixed = rng.randrange(3)
    pattern = "".join(rng.choice("01") if j == fixed else "*" for j in range(3))
    return _doc(n, blocks, program), ["prob", FILE, "-p", pattern, "--json"]


# ---------------------------------------------------------------------------
# xcheck-random: n=6, depth 30, all-zero bits input, 0..3 intermediates,
# every line measured finally (the ``xcheck --random`` family, except that
# the intermediates sit evenly spaced instead of at random depths: an early
# one usually has a fixed outcome, which divides the record count, and so
# the cost, by up to 8 between circuits of one class).
# ---------------------------------------------------------------------------

def xcheck_random(seed, index, n_intermediate):
    rng = _rng(seed, "xcheck-random", index)
    n, depth = 6, 30
    inter_at = tuple(depth * (j + 1) // (n_intermediate + 1) for j in range(n_intermediate))
    program = _program(rng, n, depth, inter_at, list(range(n)))
    doc = _doc(n, [{"kind": "bits", "value": "0" * n}], program)
    return doc, ["xcheck", FILE, "--json"]


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

class Workload:
    """A closed-loop command stream.  One round issues one command per size
    class, each on a fresh file; ``make(seed, round, cls)`` returns the
    file text and the command line with ``FILE`` in place of its path, and
    ``warmup(seed)`` the commands run once before timing."""

    def __init__(self, name, classes, make, warmup):
        self.name = name
        self.classes = classes
        self.make = make
        self.warmup = warmup


def _warmup(seed, name, blocks, inter_at, finals, argv):
    """A 4-line circuit outside the timed list."""
    rng = _rng(seed, name, "warm-up")
    return _doc(4, blocks, _program(rng, 4, 8, inter_at, finals)), argv


def _prob(seed, r, c):
    if c < len(ZONE_SIZES):
        return prob_zone(seed, (r, c), *ZONE_SIZES[c])
    return prob_single_line(seed, (r, c), SINGLE_LINE_SIZES[c - len(ZONE_SIZES)])


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sample-adaptive", ("n6",),
            lambda seed, r, c: sample_adaptive(seed, r),
            lambda seed: [_warmup(seed, "sample-adaptive", [{"kind": "bits", "value": "0110"}],
                                  (4,), [0, 3], ["sample", FILE, "--shots", "1000",
                                                 "--seed", "1", "--json"])]),
        Workload(
            "prob",
            tuple(f"zone-n{n}" for n, _ in ZONE_SIZES)
            + tuple(f"line-n{n}" for n in SINGLE_LINE_SIZES),
            _prob,
            lambda seed: [
                _warmup(seed, "prob-zone", [{"kind": "bits", "value": "10"},
                                            {"kind": "entangled", "k": 2,
                                             "amps": [[0.6, 0], [0, 0], [0, 0], [0, 0.8]]}],
                        (3,), [0, 1, 2], ["prob", FILE, "-p", "1*0", "--json"]),
                _warmup(seed, "prob-single-line",
                        [{"kind": "product", "states": [[0.6, 0, 0, 0.8]] * 4}],
                        (), [1, 2], ["prob", FILE, "-p", "*1", "--json"])]),
        Workload(
            "xcheck-random", ("k0", "k1", "k2", "k3"),
            lambda seed, r, c: xcheck_random(seed, (r, c), c),
            lambda seed: [_warmup(seed, "xcheck-random", [{"kind": "bits", "value": "0000"}],
                                  (2,), [0, 1, 2, 3], ["xcheck", FILE, "--json"])]),
    )
}

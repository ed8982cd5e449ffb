"""Pfaffian/Wick backend.

Joint outcome probabilities of adaptive matchgate circuits on computational
basis inputs are Pfaffians of antisymmetric contraction matrices.  An input
with one trailing entangled zone of k lines sums over at most 2^{2k} cross
terms, pruned by Hamming-weight parity; they share the middle block F of the
contraction matrix, so a joint costs poly(n) + 2^{2k} poly(k): one Pfaffian of
F, one solve for the 2k x 2k Schur complement, and one Pfaffian of size <= 2k
per cross term.  A singular or near-singular F falls back to one full
Pfaffian per cross term, 2^{2k} poly(n).

What depends only on the circuit (the admissibility check, the measurements,
the prefix rotations, the input rows and h) is built once per circuit
object, in its ``Plan``; a joint stacks its measurement rows between the
input rows and takes one contraction matrix and its Pfaffians.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    BitsBlock,
    Circuit,
    Computational,
    EntangledBlock,
    MagicBlock,
    ProductBlock,
    Gate,
    Macro,
    instantiate_segments,
)
from .errors import (
    BackendInapplicable,
    BlockTooLarge,
    CapExceeded,
    NotSkew,
    ZeroProbabilityPrefix,
)
from .majorana import h_matrix, segment_rotation, t_from_r

SKEW_TOL = 1e-10
NEG_CLAMP = 1e-9
ZERO_PREFIX = 1e-12
ZONE_CAP = 14
# The Schur route gives way to full Pfaffians when |Pf(F)| is at most PF_FLOOR
# or an entry of S exceeds SCHUR_CAP in modulus: F is then close to singular,
# and the pair Pfaffians of S lose digits to cancellation (on random circuits
# with n <= 10, |S| ~ 1e3 cost 4e-14, ~1e5 cost 3e-10; below 100, 2e-15).
PF_FLOOR = 1e-10
SCHUR_CAP = 100.0


def pfaffian(m, check=True) -> complex:
    """Pfaffian of an antisymmetric matrix, sign included.

    Skew-symmetric elimination to tridiagonal form with partial pivoting
    (Parlett-Reid), O(d^3), tracking the sign of row/column swaps.  The
    Pfaffian of an odd-dimensional matrix is 0 by convention.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSkew(f"expected square matrix, got shape {a.shape}")
    d = a.shape[0]
    if check and d:
        scale = max(1.0, float(np.max(np.abs(a))))
        residual = float(np.max(np.abs(a + a.T)))
        if residual > SKEW_TOL * scale:
            raise NotSkew(f"skew-symmetry residual {residual:.3e}")
    if d % 2 == 1:
        return 0.0
    if d == 0:
        return 1.0 + 0.0j
    pf = 1.0 + 0.0j
    for k in range(0, d - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        if k + 2 < d:
            tau = a[k, k + 2:] / a[k, k + 1]
            col = a[k + 2:, k + 1].copy()
            upd = np.outer(tau, col)
            # subtracting the same product transposed keeps the block exactly
            # antisymmetric (two independent outer products need not agree
            # bitwise), so later exact-zero pivot tests stay consistent
            a[k + 2:, k + 2:] += upd - upd.T
    return complex(pf)


# ---------------------------------------------------------------------------
# Contraction rows
# ---------------------------------------------------------------------------
#
# Each Majorana factor of the joint-probability expression is one row of
# expansion coefficients over the 2n Majorana operators: a (possibly
# conjugated) T-matrix row for a measurement factor, a standard basis vector
# for an input-string factor.  Left to right the rows are: bra-side input
# 1-positions, ket-side adaptive pairs, final measurement pairs, bra-side
# adaptive pairs, ket-side input 1-positions.


def build_o(rows, h) -> np.ndarray:
    """Antisymmetric contraction matrix from rows in operator order.

    Entry (i, j), i < j, is the vacuum contraction of rows i and j:
    v_i H v_j^T.  This reproduces every pattern of the single- and
    multi-measurement lookup tables (T H T^T, T H T^dag, (T H)_{.,2p-1},
    delta entries, and the zero q-q / p-p corners) uniformly.
    """
    o = np.triu(rows @ h @ rows.T, 1)
    return o - o.T


def _projector_rows(t_row, outcome):
    """Row pair for one projector, ordered by outcome.

    Outcome 0 projects onto a a^dag (plain row first), outcome 1 onto
    a^dag a (conjugated row first).
    """
    return [t_row, t_row.conj()] if outcome == 0 else [t_row.conj(), t_row]


@dataclass
class EvalStats:
    """Cost-law counters and numerical-health flags of one evaluation run.

    The Heisenberg joint fills ``term_count`` (its nominal summand count).
    The Pfaffian joint fills ``evaluated_pairs``, the Pfaffians it computed:
    per joint one of the middle block F, plus one per parity-matched zone
    pair when the zone is not empty (of the Schur complement; on the
    fallback, of the pair's full matrix, except for the pair (0, 0), whose
    matrix is F).  ``schur_fallbacks`` counts the joints whose F was too
    close to singular for the Schur route; ``flags`` holds either backend's
    clamped residuals (imaginary, negative, or a single-line value above 1).
    """

    term_count: int = 0
    evaluated_pairs: int = 0
    schur_fallbacks: int = 0
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# One plan per circuit, shared with the Heisenberg backend
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Plan:
    """What every joint on one circuit object shares; it does not refer to
    the circuit, so it dies with it.  ``position`` maps a record id to its
    intermediate's index, or to -1 for a final.  ``prefix_r`` maps the
    outcomes y_<s of the intermediates before segment s to the read-only
    cumulative rotation through it, which depends on nothing else, since
    guards read only earlier records.  ``zone`` is the Pfaffian input, built
    by the first Pfaffian joint (``_pfaffian_input``), and ``dense`` the
    Heisenberg one, built by the first dense Heisenberg joint
    (``heisenberg._dense_input``)."""

    intermediates: list
    finals: list
    position: dict
    prefix_r: dict = field(default_factory=dict)
    zone: tuple | None = None
    dense: tuple | None = None


_PLANS = weakref.WeakKeyDictionary()


def plan(circuit: Circuit, backend: str) -> Plan:
    """The circuit's plan.  Its first use builds it in one pass over the
    program, which applies both backends' admissibility rules: a lowered
    program, computational bases, no gate after a final measurement."""
    if circuit in _PLANS:
        return _PLANS[circuit]
    intermediates, finals, problem = [], [], None
    for ins in circuit.program:
        if isinstance(ins, Macro):
            raise BackendInapplicable(backend, "circuit contains unexpanded macros")
        if isinstance(ins, Gate):
            if finals:
                problem = problem or "gate after a final measurement"
        elif not isinstance(ins.basis, Computational):
            problem = problem or "non-computational measurement basis"
        else:
            (intermediates if ins.role == "intermediate" else finals).append(ins)
    if problem:
        raise BackendInapplicable(backend, problem)
    position = {m.record_id: s for s, m in enumerate(intermediates)}
    position.update((m.record_id, -1) for m in finals)
    _PLANS[circuit] = Plan(intermediates, finals, position)
    return _PLANS[circuit]


def cumulative_ts(circuit: Circuit, outcomes: dict, upto: int, with_final: bool):
    """Cumulative T matrices T^(1), .., T^(upto) (and the final-segment T as
    the last entry when ``with_final``), with guards resolved from outcomes.
    The segments are resolved only when a cumulative rotation is missing."""
    p = plan(circuit, "pfaffian")
    prefix_r = p.prefix_r
    y = tuple(outcomes[m.record_id] for m in p.intermediates[:upto])
    keys = [y[:s] for s in range(len(p.intermediates) + 1 if with_final else upto)]
    if any(key not in prefix_r for key in keys):
        segs = instantiate_segments(circuit, outcomes, upto=None if with_final else upto)
        r = np.eye(2 * circuit.n)
        for seg, key in zip(segs, keys):
            if key not in prefix_r:
                extended = r @ segment_rotation(seg, circuit.n)
                extended.flags.writeable = False
                prefix_r[key] = extended
            r = prefix_r[key]
    return [t_from_r(prefix_r[key]) for key in keys]


def measurement_rows(circuit, outcomes, backend="pfaffian") -> np.ndarray:
    """Measurement rows of the joint-probability expression as one complex
    (m, 2n) array in operator order (ket-side adaptive pairs, final pairs,
    bra-side adaptive pairs).  The nominal summand count of the displayed sum
    is (2n)^m.

    ``outcomes`` must cover a contiguous prefix of the intermediate
    measurements; final records may be included only when every intermediate
    is assigned."""
    p = plan(circuit, backend)
    for rid in outcomes:
        if rid not in p.position:
            raise BackendInapplicable(backend, f"unknown record id {rid!r}")
    t = sum(p.position[rid] >= 0 for rid in outcomes)
    if any(p.position[rid] >= t for rid in outcomes):
        raise BackendInapplicable(backend, "outcome assignment skips an intermediate measurement")
    assigned_finals = [m for m in p.finals if m.record_id in outcomes]
    if assigned_finals and t < len(p.intermediates):
        raise BackendInapplicable(backend, "final outcomes given while intermediates are unassigned")
    ts = cumulative_ts(circuit, outcomes, t, bool(assigned_finals))
    adaptive = [_projector_rows(ts[s][m.line], outcomes[m.record_id])
                for s, m in enumerate(p.intermediates[:t])]
    finals = [_projector_rows(ts[-1][m.line], outcomes[m.record_id]) for m in assigned_finals]
    return np.array(adaptive + finals + adaptive[::-1], dtype=complex).reshape(-1, 2 * circuit.n)


# ---------------------------------------------------------------------------
# Canonical input handling
# ---------------------------------------------------------------------------


# bits + trailing superposition zone (|+> line and/or an entangled block,
# merged); a bit-string input has a zone of width 0 whose single amplitude is 1
CanonicalInput = namedtuple("CanonicalInput", "bits zone_amps")


def split_canonical_input(circuit: Circuit):
    """Decompose the input into leading bits and a trailing zone.

    Accepts Bits blocks first, then any run of product/entangled/magic blocks
    which are merged into a single zone vector.  Anything else (for example
    bits after the zone) needs ``gadgets.compile_input`` first.
    """
    bits = []
    zone = np.ones(1, dtype=complex)  # width 0 until the first zone block
    for block in circuit.input.blocks:
        if isinstance(block, BitsBlock) and len(zone) == 1:
            bits.append(block.bits)
        elif isinstance(block, (ProductBlock, EntangledBlock, MagicBlock)):
            zone = np.kron(zone, block.state())
        else:
            raise BackendInapplicable(
                "pfaffian", "input is not in canonical bits + trailing-zone form; "
                            "compile it first"
            )
    bits = "".join(bits)
    width = circuit.n - len(bits)
    if width > ZONE_CAP:
        raise BlockTooLarge(
            f"superposition zone of width {width} exceeds cap {ZONE_CAP}"
        )
    return CanonicalInput(bits, zone)


def _input_rows(lines, n):
    """One row per input 1-position, in the order given: the X-type
    Majorana index 2l of line l."""
    rows = np.zeros((len(lines), 2 * n), dtype=complex)
    rows[np.arange(len(lines)), 2 * np.asarray(lines, dtype=int)] = 1.0
    return rows


def _pfaffian_input(circuit: Circuit):
    """The plan's read-only ``zone``, built on first use: (zone amplitudes,
    zone width k, h, bra rows, ket rows).  The ket rows are the input
    1-positions and then the zone lines, ascending; the bra rows descend."""
    p = plan(circuit, "pfaffian")
    if p.zone is None:
        canon = split_canonical_input(circuit)
        n, k = circuit.n, circuit.n - len(canon.bits)
        ket = _input_rows([i for i, b in enumerate(canon.bits) if b == "1"]
                          + list(range(n - k, n)), n)
        amps, h, bra = canon.zone_amps, h_matrix(n), ket[::-1]
        for a in (amps, h, bra, ket):
            a.flags.writeable = False
        p.zone = (amps, k, h, bra, ket)
    return p.zone


# ---------------------------------------------------------------------------
# Joint probabilities
# ---------------------------------------------------------------------------


def _clamp_probability(value, flags, backend) -> float:
    """The real part of a joint probability of ``backend``, clamped at 0.
    An imaginary part or a negative value beyond ``NEG_CLAMP`` is flagged;
    a value that is not finite makes the backend inapplicable."""
    if not np.isfinite(value):
        raise BackendInapplicable(backend, f"non-finite joint probability {value}")
    if abs(value.imag) > NEG_CLAMP:
        flags.append(f"imaginary residual {value.imag:.2e}")
    p = float(value.real)
    if p < -NEG_CLAMP:
        flags.append(f"negative probability {p:.2e}")
    return max(p, 0.0)


def _pair_sum(amps, pf_of):
    """Sum over parity-matched zone components (w, w') of
    lam_w lam_{w'}^* pf_of(bra, ket).

    ``bra`` indexes the zone lines set in w' in descending order (candidate
    row k-1-i for zone line i), ``ket`` those set in w in ascending order
    (row k+i), among the 2k candidate zone rows."""
    width = int(np.log2(len(amps)))
    comps = []
    for w in np.flatnonzero(amps):
        lines = [i for i in range(width) if (w >> (width - 1 - i)) & 1]
        comps.append((amps[w], len(lines) & 1,
                      [width - 1 - i for i in reversed(lines)], [width + i for i in lines]))
    value = 0.0 + 0.0j
    for amp, parity, _, ket in comps:
        for amp_p, parity_p, bra, _ in comps:
            if parity == parity_p:
                value += amp * np.conj(amp_p) * pf_of(bra, ket)
    return value


def _schur_complement(o, k, f):
    """S = Z + X^T F^-1 X of ``o`` = [bra zone (k), F (f), ket zone (k)]
    over its 2k zone rows, or None when an entry of S is not finite or
    exceeds ``SCHUR_CAP`` in modulus.

    Listing F first moves the bra zone rows past the even-sized F, which
    changes no Pfaffian's sign.  S is made exactly antisymmetric, as the
    zero-pivot test of ``pfaffian`` needs."""
    cand = np.r_[0:k, k + f:2 * k + f]
    x = o[k:k + f, cand]
    try:
        s = np.triu(o[np.ix_(cand, cand)] + x.T @ np.linalg.solve(o[k:k + f, k:k + f], x), 1)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None
    s -= s.T
    return s if np.all(np.abs(s) <= SCHUR_CAP) else None  # False on nan too


def joint_prob_entangled(circuit: Circuit, outcomes: dict,
                         stats: EvalStats | None = None) -> float:
    """Joint probability of an outcome assignment for bits + one trailing
    superposition zone of k lines.

    ``outcomes`` assigns bits to a prefix of the intermediate records plus
    any subset of final records (unassigned finals are marginalized).
    The zone state is expanded over computational components w with
    amplitudes lam_w; the probability is sum over (w, w') of
    lam_w lam_{w'}^* Pf(O_{w,w'}), and pairs whose Hamming weights differ in
    parity are skipped since their vacuum expectation vanishes.

    Every O_{w,w'} shares its middle block F (bra bits, measurement rows, ket
    bits), which has even size, so Pf(O_{w,w'}) = Pf(F) Pf(S[sel]) with the
    Schur complement S = Z + X^T F^-1 X over the 2k candidate zone rows: one
    n-sized Pfaffian and one solve, then one Pfaffian of size <= 2k per pair.
    A bit-string input is the width-0 zone: Pf(F) alone.  When F is
    singular or close to it (|Pf(F)| <= ``PF_FLOOR``, as when a zone line
    that no gate touches is measured 1, or an entry of S beyond
    ``SCHUR_CAP``), each pair's full Pfaffian is taken instead, and
    ``stats.schur_fallbacks`` counts the joint.
    """
    amps, k, h, bra_rows, ket_rows = _pfaffian_input(circuit)
    stats = stats if stats is not None else EvalStats()
    rows = np.vstack([bra_rows, measurement_rows(circuit, outcomes), ket_rows])
    f = len(rows) - 2 * k
    # operator order: [bra zone (k), F (f), ket zone (k)]
    o = build_o(rows, h)
    pf_f = pfaffian(o[k:k + f, k:k + f], check=False)
    stats.evaluated_pairs += 1
    if not k:
        return _clamp_probability(pf_f, stats.flags, "pfaffian")
    s = _schur_complement(o, k, f) if abs(pf_f) > PF_FLOOR else None
    if s is not None:
        def schur(bra, ket):
            stats.evaluated_pairs += 1
            return pfaffian(s[np.ix_(bra + ket, bra + ket)], check=False)

        return _clamp_probability(pf_f * _pair_sum(amps, schur), stats.flags, "pfaffian")
    stats.schur_fallbacks += 1
    middle = list(range(k, k + f))

    def full(bra, ket):
        if not bra and not ket:
            return pf_f  # the pair (0, 0) is F itself
        stats.evaluated_pairs += 1
        idx = bra + middle + [f + j for j in ket]
        return pfaffian(o[np.ix_(idx, idx)], check=False)

    return _clamp_probability(_pair_sum(amps, full), stats.flags, "pfaffian")


# ---------------------------------------------------------------------------
# Chain-rule weak sampling
# ---------------------------------------------------------------------------


class ChainRuleSampler:
    """Chain-rule weak sampler over the tree of measurement prefixes.

    Each step draws one record from its conditional given the records drawn
    so far: p(b | prefix) = p(prefix, b) / p(prefix), both joints from
    ``prob_fn``.  ``sample`` descends the tree level by level for every shot
    at once, so each distinct prefix costs one pair of joints per call, and
    ``cache`` keeps those pairs, keyed by the prefix's bit tuple, across
    calls.
    """

    def __init__(self, circuit: Circuit, prob_fn=None):
        self.prob_fn = prob_fn or (lambda oc: joint_prob_entangled(circuit, oc))
        self.cache = {}
        ms = circuit.measurements()
        self.order = [m.record_id for m in ms if m.role == "intermediate"]
        self.order += [m.record_id for m in ms if m.role == "final"]

    def _conditionals(self, prefix_bits, prefix_assign, denom):
        key = prefix_bits
        if key not in self.cache:
            rid = self.order[len(prefix_bits)]
            p0 = self.prob_fn({**prefix_assign, rid: 0})
            p1 = self.prob_fn({**prefix_assign, rid: 1})
            self.cache[key] = (p0, p1)
        return self.cache[key]

    def sample(self, uniforms):
        """Draw one record per row of the (shots, >= steps) ``uniforms``.

        Shot i takes outcome 0 at step k when ``uniforms[i, k]`` is below
        the conditional probability of 0 given its prefix, clamped to
        [0, 1].  Returns (records, leaf), the shape
        ``oracle.sample_distribution`` returns: the distinct records drawn,
        as (record id, bit) tuples in ``order`` sorted by their bits, and
        each shot's index into them.  A prefix reached below probability
        ``ZERO_PREFIX`` raises ZeroProbabilityPrefix.  When one call meets
        more than one error, which of them it raises is unspecified.
        """
        shots = len(uniforms)
        node = np.zeros(shots, dtype=np.intp)  # each shot's index into ``prefixes``
        prefixes, denoms = [()] * min(shots, 1), [1.0] * min(shots, 1)
        for step in range(len(self.order)):
            low = [d for d in denoms if d < ZERO_PREFIX]
            if low:
                raise ZeroProbabilityPrefix(
                    f"prefix probability {low[0]:.3e} below {ZERO_PREFIX:.0e}"
                )
            pairs = [self._conditionals(prefix, dict(zip(self.order, prefix)), d)
                     for prefix, d in zip(prefixes, denoms)]
            cond0 = np.array([min(max(p0 / d, 0.0), 1.0) for (p0, _), d in zip(pairs, denoms)])
            # children 2j, 2j + 1 of prefix j, renumbered densely in order
            child = 2 * node + (uniforms[:, step] >= cond0[node])
            reached = np.bincount(child, minlength=2 * len(prefixes)) > 0
            node = (np.cumsum(reached) - 1)[child]
            kids = [divmod(c, 2) for c in np.flatnonzero(reached).tolist()]
            prefixes = [prefixes[j] + (b,) for j, b in kids]
            denoms = [pairs[j][b] for j, b in kids]
        return [tuple(zip(self.order, prefix)) for prefix in prefixes], node


def sample_many(circuit: Circuit, shots: int, seed: int,
                sampler: ChainRuleSampler | None = None):
    """Deterministic multi-shot sampling with a shared conditional cache;
    returns ``sampler.sample``'s (records, leaf).

    Shot i consumes row i of a uniform table drawn once from the master
    seed (a counter scheme: the row index addresses the stream), so results
    are reproducible and independent of how rows are later distributed
    across workers.
    """
    sampler = sampler or ChainRuleSampler(circuit)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    try:
        rows = rng.random((shots, max(1, len(sampler.order))))
    except (ValueError, MemoryError) as exc:  # numpy refuses a table of this shape
        raise CapExceeded(f"no table of {shots} shots: {exc}") from exc
    return sampler.sample(rows)

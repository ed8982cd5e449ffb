"""Pfaffian/Wick backend.

Joint outcome probabilities of adaptive matchgate circuits on bits plus one
trailing superposition zone of k lines, by one of two routes.

At k <= 1 (bit strings, and every compiled bits + |+> input) the covariance
route runs the Gaussian chain rule: the zone's components never interfere,
so the state is a mixture of at most two Gaussian states, each a real
antisymmetric covariance matrix; a segment rotates it and a measurement is a
rank-2 update, O(n^2), with no Pfaffian.

Wider zones are sums over at most 2^{2k} cross terms, pruned by
Hamming-weight parity, of Pfaffians of antisymmetric contraction matrices;
they share the middle block F of the contraction matrix, so a joint costs
poly(n) + 2^{2k} poly(k): one Pfaffian of F, one solve for the 2k x 2k Schur
complement, and one Pfaffian of size <= 2k per cross term.  A singular or
near-singular F falls back to one full Pfaffian per cross term,
2^{2k} poly(n).

What depends only on the circuit (the admissibility check, the
measurements, the route, the covariance route's states or the other route's
prefix rotations, zone components, input rows and h) is built once per
circuit object, in its ``Plan``.
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
    ZeroProbabilityPrefix,
)
from .majorana import h_matrix, segment_rotation, t_from_r

NEG_CLAMP = 1e-9
ZERO_PREFIX = 1e-12
ZONE_CAP = 14
# The Schur route gives way to full Pfaffians when |Pf(F)| is at most PF_FLOOR
# or an entry of S exceeds SCHUR_CAP in modulus: F is then close to singular,
# and the pair Pfaffians of S lose digits to cancellation (on random circuits
# with n <= 10, |S| ~ 1e3 cost 4e-14, ~1e5 cost 3e-10; below 100, 2e-15).
PF_FLOOR = 1e-10
SCHUR_CAP = 100.0


def pfaffian(m) -> complex:
    """Pfaffian of an exactly antisymmetric matrix, sign included.

    Skew-symmetric elimination to tridiagonal form with partial pivoting
    (Parlett-Reid), O(d^3), tracking the sign of row/column swaps.  The
    Pfaffian of an odd-dimensional matrix is 0 by convention.
    """
    a = np.array(m, dtype=complex)
    d = a.shape[0]
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

    The Heisenberg backend fills ``term_count`` (its nominal summand count).
    The Pfaffian joint fills ``evaluated_pairs``, the Pfaffians it computed:
    none on the covariance route (zone width <= 1); on the pair sum, per
    joint one of the middle block F, plus one per parity-matched zone pair
    (of the Schur complement; on the fallback, of the pair's full matrix,
    except for the pair (0, 0), whose matrix is F).  ``schur_fallbacks``
    counts the joints whose F was too close to singular for the Schur route;
    ``flags`` holds either backend's clamped residuals (imaginary, negative,
    or a single-line value above 1), on the covariance route those of each
    component's joint at each measurement.
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
    guards read only earlier records.  The first Pfaffian joint picks the
    route: ``states``, the covariance route's memo, maps the same keys y_<s
    to the read-only state (masses, gammas) right after segment s
    (``_prefix_state``); ``zone`` is the pair sum's input
    (``_pfaffian_input``).  ``dense`` is the Heisenberg input, built by the
    first dense Heisenberg joint (``heisenberg._dense_input``)."""

    intermediates: list
    finals: list
    position: dict
    prefix_r: dict = field(default_factory=dict)
    zone: tuple | None = None
    states: dict | None = None
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


def _assigned(p: Plan, outcomes, backend):
    """(t, assigned finals) of an outcome assignment, which must cover a
    contiguous prefix of t intermediate measurements; final records may be
    included only when every intermediate is assigned."""
    for rid in outcomes:
        if rid not in p.position:
            raise BackendInapplicable(backend, f"unknown record id {rid!r}")
    t = sum(p.position[rid] >= 0 for rid in outcomes)
    if any(p.position[rid] >= t for rid in outcomes):
        raise BackendInapplicable(backend, "outcome assignment skips an intermediate measurement")
    assigned_finals = [m for m in p.finals if m.record_id in outcomes]
    if assigned_finals and t < len(p.intermediates):
        raise BackendInapplicable(backend, "final outcomes given while intermediates are unassigned")
    return t, assigned_finals


def measurement_rows(circuit, outcomes, backend="pfaffian") -> np.ndarray:
    """Measurement rows of the joint-probability expression as one complex
    (m, 2n) array in operator order (ket-side adaptive pairs, final pairs,
    bra-side adaptive pairs).  The nominal summand count of the displayed sum
    is (2n)^m.  ``outcomes`` is checked by ``_assigned``."""
    p = plan(circuit, backend)
    t, assigned_finals = _assigned(p, outcomes, backend)
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


def _pfaffian_input(circuit: Circuit, canon: CanonicalInput | None = None):
    """The plan's read-only ``zone``, built on first use from ``canon`` (by
    default, the circuit's canonical input): (components, zone width k, h,
    bra rows, ket rows).  The ket rows are the input 1-positions
    and then the zone lines, ascending; the bra rows descend.

    One component per nonzero zone amplitude lam_w, w ascending: (lam_w,
    parity of w, bra, ket).  ``bra`` indexes the bra zone rows of the zone
    lines set in w, descending (row k-1-i for zone line i), ``ket`` the ket
    zone rows, ascending, counted from the end (row i-k), so one index list
    serves the contraction matrix and its Schur complement alike."""
    p = plan(circuit, "pfaffian")
    if p.zone is None:
        canon = canon or split_canonical_input(circuit)
        n, k = circuit.n, circuit.n - len(canon.bits)
        ket = _input_rows([i for i, b in enumerate(canon.bits) if b == "1"]
                          + list(range(n - k, n)), n)
        comps = []
        for w in np.flatnonzero(canon.zone_amps):
            lines = [i for i in range(k) if (w >> (k - 1 - i)) & 1]
            comps.append((canon.zone_amps[w], len(lines) & 1,
                          [k - 1 - i for i in reversed(lines)], [i - k for i in lines]))
        h, bra = h_matrix(n), ket[::-1]
        for a in (h, bra, ket):
            a.flags.writeable = False
        p.zone = (tuple(comps), k, h, bra, ket)
    return p.zone


# ---------------------------------------------------------------------------
# Covariance route: zones of width <= 1
# ---------------------------------------------------------------------------
#
# Matchgates and computational measurements preserve parity, so the two
# components of a width-1 zone never interfere: the state stays a mixture of
# pure Gaussian states, one per nonzero amplitude lam_w, of weight |lam_w|^2
# (a bit string is the one-component case).  A component is its real
# antisymmetric covariance Gamma[mu, nu] = -i <c_mu c_nu>, mu != nu; bit b on
# line l gives Gamma[2l, 2l+1] = 1 - 2b.  A segment of rotation R maps Gamma
# to R^T Gamma R, and a measurement is a rank-2 update (``_measure``).  A
# state is (masses, gammas): each component's weight times the probability of
# the outcomes measured so far, and the components' (c, 2n, 2n) stack.


def _input_state(canon: CanonicalInput, n):
    """The state of a canonical input with a zone of width <= 1."""
    bits = [int(b) for b in canon.bits]
    ws = np.flatnonzero(canon.zone_amps)
    z = 1.0 - 2.0 * np.array([bits + [int(w)] * (len(canon.zone_amps) == 2) for w in ws])
    gammas = np.zeros((len(ws), 2 * n, 2 * n))
    lines = np.arange(n)
    gammas[:, 2 * lines, 2 * lines + 1] = z
    gammas[:, 2 * lines + 1, 2 * lines] = -z
    return np.abs(canon.zone_amps[ws]) ** 2, gammas


def _outcome_masses(state, line, outcome, flags):
    """Each component's mass times its probability p = (1 + z Gamma[a, b]) / 2
    of ``outcome`` on ``line`` (z = 1 - 2 outcome, a = 2l, b = a + 1): the
    joint of its branch, through ``_clamp_probability``'s rules.  The rules
    apply to that joint, not to p: once a branch of mass ~1e-16 is
    conditioned on, its Gamma holds rounding noise divided by p, and its
    next p can read -1e-7 while the joint it adds is far below
    ``NEG_CLAMP``."""
    masses, gammas = state
    z = 1 - 2 * outcome
    joints = masses * (1 + z * gammas[:, 2 * line, 2 * line + 1]) / 2
    return np.array([_clamp_probability(v, flags, "pfaffian") for v in joints.tolist()])


def _measure(state, line, outcome, flags):
    """``state`` after ``outcome`` on ``line``: each component's mass as
    ``_outcome_masses`` gives it, and Gamma + z (Gamma[:, b] Gamma[:, a]^T -
    Gamma[:, a] Gamma[:, b]^T) / (2p) with rows and columns a, b reset to the
    pure outcome Gamma[a, b] = z.  A component whose mass drops to 0 (p <= 0)
    is dropped."""
    masses = _outcome_masses(state, line, outcome, flags)
    keep = masses > 0
    gammas = state[1][keep]
    a, b, z = 2 * line, 2 * line + 1, 1 - 2 * outcome
    probs = (1 + z * gammas[:, a, b]) / 2
    upd = gammas[:, :, b, None] * gammas[:, None, :, a]
    out = gammas + (z / (2 * probs))[:, None, None] * (upd - upd.transpose(0, 2, 1))
    out[:, [a, b], :] = 0.0
    out[:, :, [a, b]] = 0.0
    out[:, a, b], out[:, b, a] = z, -z
    return masses[keep], out


def _after_segment(masses, gammas, seg, n):
    """The read-only state (masses, R^T Gamma R) after ``seg``, of rotation R."""
    r = segment_rotation(seg, n)
    gammas = r.T @ gammas @ r
    for a in (masses, gammas):
        a.flags.writeable = False
    return masses, gammas


def _prefix_state(circuit: Circuit, p: Plan, outcomes, y, flags):
    """The state right after segment len(y), with the intermediates before
    it measured as ``y``, from the plan's memo: the longest stored prefix of
    ``y`` is extended one segment at a time, and each state it passes is
    stored, read-only, under its y-prefix."""
    states = p.states
    s0 = len(y)
    while y[:s0] not in states:
        s0 -= 1
    if s0 < len(y):
        segs = instantiate_segments(
            circuit, outcomes, upto=None if len(y) == len(p.intermediates) else len(y) + 1)
        state = states[y[:s0]]
        for s in range(s0 + 1, len(y) + 1):
            masses, gammas = _measure(state, p.intermediates[s - 1].line, y[s - 1], flags)
            state = states[y[:s]] = _after_segment(masses, gammas, segs[s], circuit.n)
    return states[y]


def _covariance_joint(circuit: Circuit, p: Plan, outcomes, t, finals, flags) -> float:
    """The joint of the first t intermediates and the assigned ``finals``,
    measured from the stored state before them: every measurement but the
    last through ``_measure``, the last through ``_outcome_masses`` alone."""
    y = tuple(outcomes[m.record_id] for m in p.intermediates[:t])
    if finals:
        state = _prefix_state(circuit, p, outcomes, y, flags)
        measured = [(m.line, outcomes[m.record_id]) for m in finals]
    elif t:
        state = _prefix_state(circuit, p, outcomes, y[:-1], flags)
        measured = [(p.intermediates[t - 1].line, y[-1])]
    else:
        return float(p.states[()][0].sum())
    *first, last = measured
    for line, outcome in first:
        state = _measure(state, line, outcome, flags)
    return float(_outcome_masses(state, *last, flags).sum())


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
    any subset of final records (unassigned finals are marginalized).  At
    k <= 1 the covariance route measures the plan's memoised Gaussian
    states (``_covariance_joint``); wider zones take the Pfaffian pair sum
    (``_pair_sum``).  The first joint on a circuit picks the route.
    """
    stats = stats if stats is not None else EvalStats()
    p = plan(circuit, "pfaffian")
    if p.states is None and p.zone is None:
        canon = split_canonical_input(circuit)
        if len(canon.zone_amps) > 2:
            _pfaffian_input(circuit, canon)
        else:
            # the state after segment 0, which reads no outcome
            (seg,) = instantiate_segments(circuit, {}, upto=1)
            p.states = {(): _after_segment(*_input_state(canon, circuit.n), seg, circuit.n)}
    if p.states is None:
        return _pair_sum(circuit, outcomes, stats)
    t, finals = _assigned(p, outcomes, "pfaffian")
    return _covariance_joint(circuit, p, outcomes, t, finals, stats.flags)


def _pair_sum(circuit: Circuit, outcomes: dict, stats: EvalStats) -> float:
    """The joint as a sum over component pairs (w, w') of
    lam_w lam_{w'}^* Pf(O_{w,w'}); pairs whose Hamming weights differ in
    parity are skipped since their vacuum expectation vanishes.

    Every O_{w,w'} shares its middle block F (bra bits, measurement rows, ket
    bits), which has even size, so Pf(O_{w,w'}) = Pf(F) Pf(S[sel]) with the
    Schur complement S = Z + X^T F^-1 X over the 2k candidate zone rows: one
    n-sized Pfaffian and one solve, then one Pfaffian of size <= 2k per pair.
    When F is singular or close to it (|Pf(F)| <= ``PF_FLOOR``, as when a
    zone line that no gate touches is measured 1, or an entry of S beyond
    ``SCHUR_CAP``), the same loop over the zone's components takes each
    pair's full Pfaffian instead (Pf(F) itself for the pair (0, 0)), and
    ``stats.schur_fallbacks`` counts the joint.
    """
    comps, k, h, bra_rows, ket_rows = _pfaffian_input(circuit)
    rows = np.vstack([bra_rows, measurement_rows(circuit, outcomes), ket_rows])
    f = len(rows) - 2 * k
    # operator order: [bra zone (k), F (f), ket zone (k)]
    o = build_o(rows, h)
    pf_f = pfaffian(o[k:k + f, k:k + f])
    stats.evaluated_pairs += 1
    s = _schur_complement(o, k, f) if abs(pf_f) > PF_FLOOR else None
    if s is None:
        stats.schur_fallbacks += 1
    m, middle = (o, list(range(k, k + f))) if s is None else (s, [])
    value = 0.0 + 0.0j
    for amp, parity, _, ket in comps:
        for amp_p, parity_p, bra, _ in comps:
            if parity != parity_p:
                continue
            if s is None and not bra and not ket:
                pf = pf_f  # the pair (0, 0) is F itself
            else:
                idx = bra + middle + ket
                pf = pfaffian(m[np.ix_(idx, idx)])
                stats.evaluated_pairs += 1
            value += amp * np.conj(amp_p) * pf
    return _clamp_probability(value if s is None else pf_f * value, stats.flags, "pfaffian")


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
    rng = np.random.default_rng(seed)
    try:
        rows = rng.random((shots, max(1, len(sampler.order))))
    except (ValueError, MemoryError) as exc:  # numpy refuses a table of this shape
        raise CapExceeded(f"no table of {shots} shots: {exc}") from exc
    return sampler.sample(rows)

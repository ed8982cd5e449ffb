"""Pfaffian kernel and Wick-backend tests against the dense oracle."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchsim.pfaffian
from matchsim.circuit import (
    BitsBlock,
    Circuit,
    EntangledBlock,
    FSWAP,
    Gate,
    InputSpec,
    MagicBlock,
    MatchgateAngles,
    Measure,
    ProductBlock,
    bits_input,
    matchgate_from_angles,
)
from matchsim.errors import BlockTooLarge, ZeroProbabilityPrefix
from matchsim.heisenberg import heisenberg_sampler
from matchsim.majorana import h_matrix
from matchsim.oracle import random_mg_circuit, run_exact
from matchsim.pfaffian import (
    ZERO_PREFIX,
    ChainRuleSampler,
    EvalStats,
    _input_rows,
    _pfaffian_input,
    build_o,
    joint_prob_entangled,
    measurement_rows,
    pfaffian,
    sample_many,
    split_canonical_input,
)
from helpers import pfaffian_brute

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def random_skew(rng, d, cplx=False):
    a = rng.normal(size=(d, d))
    if cplx:
        a = a + 1j * rng.normal(size=(d, d))
    return a - a.T


# -- kernel --------------------------------------------------------------------


def test_pfaffian_2x2_definition():
    a = 3.7 - 0.2j
    m = np.array([[0, a], [-a, 0]])
    assert pfaffian(m) == pytest.approx(a, abs=1e-12)


def test_pfaffian_4x4_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_skew(rng, 4, cplx=True)
        want = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
        assert abs(pfaffian(m) - want) < 1e-12 * max(1, abs(want))
        assert abs(pfaffian_brute(m) - want) < 1e-12 * max(1, abs(want))


def test_pfaffian_matches_brute_force_up_to_8x8():
    rng = np.random.default_rng(2)
    for d in (2, 4, 6, 8):
        for _ in range(5):
            m = random_skew(rng, d, cplx=True)
            assert abs(pfaffian(m) - pfaffian_brute(m)) < 1e-10 * max(1, abs(pfaffian_brute(m)))


def test_pfaffian_squared_equals_determinant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_skew(rng, 12, cplx=True)
        pf = pfaffian(m)
        det = np.linalg.det(m)
        assert abs(pf ** 2 - det) < 1e-8 * abs(det)


def test_pfaffian_odd_dimension_is_zero():
    assert pfaffian(np.zeros((3, 3))) == 0.0
    assert pfaffian(np.zeros((0, 0))) == pytest.approx(1.0)


def test_pfaffian_singular_matrix():
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 1.0, -1.0  # rows 2,3 zero
    assert pfaffian(m) == 0.0


# -- contraction matrix --------------------------------------------------------


def test_build_o_qq_and_pp_corners_vanish():
    # distinct input 1-positions contract to zero among themselves
    n = 3
    h = h_matrix(n)
    for descending in (True, False):
        o = build_o(_input_rows([2, 0] if descending else [0, 2], n), h)
        assert o.shape == (2, 2)
        assert np.allclose(o, 0)


def test_single_final_measurement_matches_heisenberg():
    from matchsim.heisenberg import strong_single_line

    c = random_mg_circuit(4, 20, seed=5)
    for line in range(4):
        p_pf = joint_prob_entangled(c, {f"x{line}": 1})
        p_h = strong_single_line(c, line)
        assert abs(p_pf - p_h) < 1e-10


def test_identity_circuit_is_a_delta_distribution():
    w = "0110"
    c = Circuit(4, bits_input(w),
                tuple(Measure(l, f"x{l}", "final") for l in range(4))).validate()
    for x in np.ndindex(2, 2, 2, 2):
        oc = {f"x{l}": int(x[l]) for l in range(4)}
        want = 1.0 if "".join(map(str, x)) == w else 0.0
        assert joint_prob_entangled(c, oc) == pytest.approx(want, abs=1e-12)


def test_fswap_swaps_bits():
    c = Circuit(2, bits_input("10"),
                (Gate(0, FSWAP), Measure(0, "a", "final"), Measure(1, "b", "final"))).validate()
    assert joint_prob_entangled(c, {"a": 0, "b": 1}) == pytest.approx(1.0)
    assert joint_prob_entangled(c, {"a": 1, "b": 0}) == pytest.approx(0.0, abs=1e-12)


def test_projector_onto_prepared_one():
    c = Circuit(2, bits_input("10"), (Measure(0, "x", "final"), Measure(1, "y", "final"))).validate()
    assert joint_prob_entangled(c, {"x": 1}) == pytest.approx(1.0)


def test_random_adaptive_joint_matches_oracle_and_normalizes():
    # 3 intermediate + 4 final measurements on n=6
    c = random_mg_circuit(6, 30, seed=6, n_intermediate=3, final_lines=[0, 2, 3, 5],
                          input_spec=bits_input("011010"))
    dist = run_exact(c)
    total = 0.0
    for rec, p in dist.probs.items():
        q = joint_prob_entangled(c, dict(rec))
        assert abs(p - q) < 1e-8
        total += q
    assert total == pytest.approx(1.0, abs=1e-8)


def test_prefix_marginals_consistent():
    c = random_mg_circuit(5, 25, seed=7, n_intermediate=2)
    # p(y1) = sum_y2 sum_x p(y1, y2, x); check against oracle marginal
    dist = run_exact(c)
    for y1 in (0, 1):
        want = dist.probability({"m0": y1})
        got = joint_prob_entangled(c, {"m0": y1})
        assert abs(want - got) < 1e-9


# -- entangled zone ------------------------------------------------------------


def test_zone_degenerate_single_component_equals_bits():
    zero_block = EntangledBlock(1, np.array([1.0, 0.0]))
    c1 = random_mg_circuit(3, 15, seed=8, input_spec=InputSpec((BitsBlock("01"), zero_block)))
    c2 = random_mg_circuit(3, 15, seed=8, input_spec=bits_input("010"))
    for x in np.ndindex(2, 2, 2):
        oc = {f"x{l}": int(x[l]) for l in range(3)}
        assert abs(joint_prob_entangled(c1, oc) - joint_prob_entangled(c2, oc)) < 1e-12


def test_plus_zone_against_oracle_with_hadamard_pair_circuit():
    spec = InputSpec((BitsBlock("00"), ProductBlock((PLUS,))))
    from matchsim.circuit import HADAMARD_PAIR

    prog = (Gate(1, HADAMARD_PAIR),
            Measure(0, "x0", "final"), Measure(1, "x1", "final"), Measure(2, "x2", "final"))
    c = Circuit(3, spec, prog).validate()
    dist = run_exact(c)
    for rec, p in dist.probs.items():
        assert abs(joint_prob_entangled(c, dict(rec)) - p) < 1e-8


def test_magic_zone_matches_oracle_and_respects_parity():
    spec = InputSpec((BitsBlock("00"), MagicBlock()))
    c = random_mg_circuit(6, 25, seed=9, input_spec=spec)
    dist = run_exact(c)
    stats = EvalStats()
    for rec, p in dist.probs.items():
        q = joint_prob_entangled(c, dict(rec), stats)
        assert abs(p - q) < 1e-8
    # parity superselection: even-weight input support forces even outcomes
    for x in np.ndindex(*([2] * 6)):
        if sum(x) % 2 == 1:
            oc = {f"x{l}": int(x[l]) for l in range(6)}
            assert joint_prob_entangled(c, oc) < 1e-10


def test_cross_term_parity_pruning_counter():
    spec = InputSpec((BitsBlock("0"), MagicBlock()))
    c = random_mg_circuit(5, 10, seed=10, input_spec=spec, final_lines=[0])
    stats = EvalStats()
    joint_prob_entangled(c, {"x0": 0}, stats)
    # |M> has 4 components, all even weight: 16 pairs survive of 2^{2k} = 256,
    # each one Pfaffian of the Schur complement, plus one of the middle block
    assert stats.evaluated_pairs == 16 + 1
    assert stats.schur_fallbacks == 0


def _zone_circuit(n, k, depth, seed, n_intermediate, final_lines):
    """Random circuit on bits + a trailing width-k zone whose amplitudes
    are random, some of them zero."""
    rng = np.random.default_rng(seed)
    amps = (rng.normal(size=2 ** k) + 1j * rng.normal(size=2 ** k)) * (rng.random(2 ** k) < 0.7)
    amps[rng.integers(2 ** k)] += 1.0
    bits = "".join(rng.choice(["0", "1"], size=n - k))
    zone = EntangledBlock(k, amps / np.linalg.norm(amps))
    blocks = ((BitsBlock(bits),) if bits else ()) + (zone,)
    return random_mg_circuit(n, depth, seed=seed, n_intermediate=n_intermediate,
                             input_spec=InputSpec(blocks), final_lines=final_lines)


@st.composite
def _zone_circuits(draw, max_n=10, max_k=4):
    n = draw(st.integers(2, max_n))
    finals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    # depths down to 1 leave zone lines untouched, whose outcome 1 makes F singular
    return _zone_circuit(n, draw(st.integers(1, min(max_k, n))), draw(st.integers(1, 2 * n)),
                         draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(0, 2)),
                         sorted(finals))


def _full_records(c):
    ids = [m.record_id for m in c.measurements()]
    return [dict(zip(ids, bits)) for bits in itertools.product((0, 1), repeat=len(ids))]


def _pair_loop(c, outcomes, stats=None):
    """The pair sum with every pair's full Pfaffian (the Schur route's
    fallback), called directly, so at any zone width."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchsim.pfaffian, "PF_FLOOR", np.inf)
        return matchsim.pfaffian._pair_sum(c, outcomes, stats or EvalStats())


def _literal_pair_sum(c, outcomes):
    """Sum over every (w, w') of lam_w lam_{w'}^* Pf(O_{w,w'}), each O built
    from its own rows: the bra input lines of w' descending, the measurement
    rows, the ket input lines of w ascending.  Pairs of unlike parity have
    an odd number of rows, whose Pfaffian is 0."""
    canon = split_canonical_input(c)
    n, k = c.n, c.n - len(canon.bits)
    ones = [i for i, b in enumerate(canon.bits) if b == "1"]
    meas, h = measurement_rows(c, outcomes), h_matrix(c.n)

    def lines(w):
        return ones + [n - k + i for i in range(k) if (w >> (k - 1 - i)) & 1]

    total = 0.0
    for w, w_p in itertools.product(range(2 ** k), repeat=2):
        rows = np.vstack([_input_rows(lines(w_p)[::-1], n), meas, _input_rows(lines(w), n)])
        total += (canon.zone_amps[w] * np.conj(canon.zone_amps[w_p])
                  * pfaffian(build_o(rows, h)))
    return total.real


@settings(max_examples=40, deadline=None)
@given(c=_zone_circuits())
def test_schur_joint_matches_pair_loop_and_oracle(c):
    dist = run_exact(c)
    for oc in _full_records(c):
        q = joint_prob_entangled(c, oc)
        assert abs(q - _pair_loop(c, oc)) < 1e-12
        assert abs(q - dist.probs.get(tuple(oc.items()), 0.0)) < 1e-7


@settings(max_examples=25, deadline=None)
@given(c=_zone_circuits(max_n=8, max_k=3))
def test_full_route_matches_literal_pair_sum_and_oracle(c):
    # with PF_FLOOR at infinity every joint takes the full route, which
    # otherwise runs only when F is singular
    dist = run_exact(c)
    amps = split_canonical_input(c).zone_amps
    parity = [bin(w).count("1") & 1 for w in np.flatnonzero(amps)]
    kept = parity.count(0) ** 2 + parity.count(1) ** 2
    for oc in _full_records(c):
        stats = EvalStats()
        q = _pair_loop(c, oc, stats)
        assert stats.schur_fallbacks == 1
        # F, then every kept pair but (0, 0), whose matrix is F
        assert stats.evaluated_pairs == 1 + kept - (amps[0] != 0)
        assert abs(q - _literal_pair_sum(c, oc)) < 1e-12
        assert abs(q - dist.probs.get(tuple(oc.items()), 0.0)) < 1e-7


def _with_idle_line(c, bit, role):
    """``c`` with a line 0 prepended that holds ``bit`` and no gate touches,
    measured first (``role`` intermediate) or last (final) as record "u":
    its other outcome has probability exactly 0."""
    first, *rest = c.input.blocks  # the bits, from ``_covariance_circuits``
    blocks = (BitsBlock(str(bit) + first.bits), *rest)
    program = tuple(dataclasses.replace(ins, line=ins.line + 1) for ins in c.program)
    idle = Measure(0, "u", role)
    program = (idle,) + program if role == "intermediate" else program + (idle,)
    return Circuit(c.n + 1, InputSpec(blocks), program).validate()


@st.composite
def _covariance_circuits(draw):
    """Bits, or bits + one |+> or product line, with 0-3 guarded
    intermediates and an idle line measured as an intermediate or a final."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    bits = "".join(rng.choice(["0", "1"], size=n))
    last = draw(st.sampled_from(["bit", "plus", "product"]))
    if last == "bit":
        spec = bits_input(bits)
    else:
        state = PLUS if last == "plus" else rng.normal(size=2) + 1j * rng.normal(size=2)
        spec = InputSpec((BitsBlock(bits[1:]), ProductBlock((state / np.linalg.norm(state),))))
    finals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    c = random_mg_circuit(n, draw(st.integers(1, 2 * n)), seed=seed,
                          n_intermediate=draw(st.integers(0, 3)), input_spec=spec,
                          final_lines=sorted(finals), guard_prob=0.8)
    return _with_idle_line(c, int(rng.integers(2)), draw(st.sampled_from(["intermediate",
                                                                          "final"])))


def _assignments(c):
    """Every y-prefix alone, then every full y with each final assigned 0, 1
    or left out."""
    inters = [m.record_id for m in c.measurements("intermediate")]
    finals = [m.record_id for m in c.measurements("final")]
    for t in range(len(inters) + 1):
        for y in itertools.product((0, 1), repeat=t):
            yield dict(zip(inters, y))
    for y in itertools.product((0, 1), repeat=len(inters)):
        for x in itertools.product((0, 1, None), repeat=len(finals)):
            if any(b is not None for b in x):
                yield {**dict(zip(inters, y)),
                       **{rid: b for rid, b in zip(finals, x) if b is not None}}


@settings(max_examples=30, deadline=None)
@given(c=_covariance_circuits())
def test_covariance_route_matches_pair_loop_and_oracle(c):
    dist = run_exact(c)
    idle_bit = int(c.input.blocks[0].bits[0])
    stats = EvalStats()
    for oc in _assignments(c):
        q = joint_prob_entangled(c, oc, stats)
        assert abs(q - _pair_loop(c, oc)) < 1e-12
        assert abs(q - dist.probability(oc)) < 1e-7
        if oc.get("u", idle_bit) != idle_bit:
            assert q == 0.0  # every component dropped, none divided by
    assert (stats.evaluated_pairs, stats.flags) == (0, [])


def test_singular_middle_block_takes_the_pair_loop():
    # line 3 is in the zone and no gate touches it, so with the zone at 00 the
    # final x1 on line 3 reads 0: Pf(F) = p(x | zone = 00) = 0
    amps = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    spec = InputSpec((BitsBlock("10"), EntangledBlock(2, amps)))
    gates = tuple(Gate(1, matchgate_from_angles(MatchgateAngles(*a)))
                  for a in ((0.3, 1.1, 2.0, 0.4, 2.9, 1.7), (1.9, 0.2, 0.8, 2.4, 0.6, 1.3)))
    c = Circuit(4, spec, gates + (Measure(0, "x0", "final"), Measure(3, "x1", "final"))).validate()
    dist = run_exact(c)
    for x0 in (0, 1):
        oc = {"x0": x0, "x1": 1}
        stats = EvalStats()
        q = joint_prob_entangled(c, oc, stats)
        assert stats.schur_fallbacks == 1
        assert abs(q - dist.probability(oc)) < 1e-7
        assert abs(q - _pair_loop(c, oc)) < 1e-12
    assert dist.probability({"x1": 1}) > 0.1


@settings(max_examples=30, deadline=None)
@given(c=_zone_circuits(max_n=8, max_k=3))
def test_joints_over_every_full_record_sum_to_one(c):
    assert abs(sum(joint_prob_entangled(c, oc) for oc in _full_records(c)) - 1.0) < 1e-9


def test_widest_zone_plan_holds_components_not_pairs():
    # one component per nonzero amplitude: 2^14 at ZONE_CAP, where the pairs
    # that parity keeps would number 2^27
    amps = np.full(2 ** 14, 2.0 ** -7, dtype=complex)
    c = Circuit(14, InputSpec((EntangledBlock(14, amps),)),
                (Measure(0, "x", "final"),)).validate()
    comps, k = _pfaffian_input(c)[:2]
    assert (k, len(comps)) == (14, 2 ** 14)
    assert sum(parity for _, parity, _, _ in comps) == 2 ** 13


def test_zone_cap():
    amps = np.zeros(2 ** 15)
    amps[0] = 1.0
    spec = InputSpec((EntangledBlock(15, amps),))
    c = Circuit(15, spec, (Measure(0, "x", "final"),)).validate()
    with pytest.raises(BlockTooLarge):
        joint_prob_entangled(c, {"x": 0})


def test_non_canonical_input_rejected():
    from matchsim.errors import BackendInapplicable

    spec = InputSpec((MagicBlock(), BitsBlock("0")))
    c = Circuit(5, spec, (Measure(0, "x", "final"),)).validate()
    with pytest.raises(BackendInapplicable):
        split_canonical_input(c)


# -- chain-rule sampling -------------------------------------------------------


def test_sampler_deterministic_under_seed():
    c = random_mg_circuit(4, 20, seed=11, n_intermediate=2)
    records1, leaf1 = sample_many(c, 5, seed=3)
    records2, leaf2 = sample_many(c, 5, seed=3)
    assert records1 == records2 and np.array_equal(leaf1, leaf2)


def test_sampler_nonadapt_equals_categorical_draw():
    c = random_mg_circuit(3, 12, seed=12)
    records, leaf = sample_many(c, 4000, seed=5)
    dist = run_exact(c)
    marg = dist.marginal([m.record_id for m in c.measurements("final")])
    counts = {tuple(b for _, b in rec): k
              for rec, k in zip(records, np.bincount(leaf).tolist())}
    tv = 0.5 * sum(abs(counts.get(k, 0) / 4000 - p) for k, p in marg.items())
    assert tv < 0.03


def test_sampler_conditionals_in_range_and_product_equals_joint():
    c = random_mg_circuit(8, 30, seed=13, n_intermediate=10, final_lines=[0, 7])
    sampler = ChainRuleSampler(c)
    records, _ = sample_many(c, 20, seed=6, sampler=sampler)
    for rec in records:
        record = tuple(b for _, b in rec)
        # the clamped conditionals the draw compared against: their product
        # equals the joint only if p0 + p1 matches each parent prefix
        product, denom = 1.0, 1.0
        for step, bit in enumerate(record):
            p0, p1 = sampler.cache[record[:step]]
            assert -1e-12 <= p0 / denom <= 1 + 1e-12
            cond0 = min(max(p0 / denom, 0.0), 1.0)
            product *= (cond0, 1.0 - cond0)[bit]
            denom = (p0, p1)[bit]
        joint = joint_prob_entangled(c, dict(rec))
        assert abs(product - joint) < 1e-8


@settings(max_examples=30, deadline=None)
@given(c=_zone_circuits(max_n=7, max_k=3), seed=st.integers(0, 2 ** 32 - 1))
def test_cached_conditionals_in_range_and_summing_to_parent(c, seed):
    sampler = ChainRuleSampler(c)
    sample_many(c, 20, seed, sampler=sampler)
    for prefix, (p0, p1) in sampler.cache.items():
        parent = sampler.cache[prefix[:-1]][prefix[-1]] if prefix else 1.0
        assert 0.0 <= p0 <= parent + 1e-9 and 0.0 <= p1 <= parent + 1e-9
        assert abs(p0 + p1 - parent) < 1e-9


def test_zero_probability_prefix_error():
    # a prefix whose probability collapses below threshold aborts the draw
    c = Circuit(1, bits_input("0"), (Measure(0, "m", "intermediate"),
                                     Measure(0, "x", "final"))).validate()
    sampler = ChainRuleSampler(c, prob_fn=lambda oc: 0.0)

    with pytest.raises(ZeroProbabilityPrefix):
        sampler.sample(np.full((1, 2), 0.5))


def _per_shot_records(sampler, table):
    """The chain rule one shot at a time: the reference the level-by-level
    descent of ``ChainRuleSampler.sample`` must equal bit for bit."""
    records = []
    for u in table:
        bits, assign, denom = (), {}, 1.0
        for step, rid in enumerate(sampler.order):
            if denom < ZERO_PREFIX:
                raise ZeroProbabilityPrefix(f"prefix probability {denom:.3e}")
            p0, p1 = sampler._conditionals(bits, assign, denom)
            bit = 0 if u[step] < min(max(p0 / denom, 0.0), 1.0) else 1
            bits, assign[rid], denom = bits + (bit,), bit, (p0, p1)[bit]
        records.append(bits)
    return records


@st.composite
def _sampled_circuits(draw):
    n = draw(st.integers(2, 5))
    finals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    return _zone_circuit(n, draw(st.integers(1, min(3, n))), draw(st.integers(1, 2 * n)),
                         draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(0, 3)),
                         sorted(finals))


# no measurement at all (``validate`` would reject it; the sampler need not)
_UNMEASURED = Circuit(2, bits_input("01"), (Gate(0, FSWAP),))


@settings(max_examples=60, deadline=None)
@given(c=st.one_of(_sampled_circuits(), st.just(_UNMEASURED)),
       backend=st.sampled_from([ChainRuleSampler, heisenberg_sampler]),
       shots=st.sampled_from([0, 1, 200]), seed=st.integers(0, 2 ** 32 - 1))
def test_level_descent_equals_per_shot_loop(c, backend, shots, seed):
    table = np.random.default_rng(seed).random((shots, max(1, len(c.measurements()))))
    sampler = backend(c)
    records, leaf = sampler.sample(table)
    reference = _per_shot_records(backend(c), table)
    assert all([rid for rid, _ in rec] == sampler.order for rec in records)
    distinct = [tuple(b for _, b in rec) for rec in records]
    assert distinct == sorted(set(reference))
    assert [distinct[i] for i in leaf.tolist()] == reference


def test_pf_squared_equals_det_on_built_matrices():
    c = random_mg_circuit(4, 18, seed=14, n_intermediate=1, input_spec=bits_input("0110"))
    ones = [1, 2]
    mids = measurement_rows(c, {"m0": 1, "x0": 0, "x1": 1, "x2": 0, "x3": 1})
    rows = np.vstack([_input_rows(ones[::-1], 4), mids, _input_rows(ones, 4)])
    o = build_o(rows, h_matrix(4))
    pf = pfaffian(o)
    assert abs(pf ** 2 - np.linalg.det(o)) < 1e-8 * max(1.0, abs(np.linalg.det(o)))

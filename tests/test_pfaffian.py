"""Pfaffian kernel and Wick-backend tests against the dense oracle."""

import numpy as np
import pytest

from matchsim.circuit import (
    BitsBlock,
    Circuit,
    EntangledBlock,
    FSWAP,
    Gate,
    InputSpec,
    MagicBlock,
    Measure,
    ProductBlock,
    bits_input,
)
from matchsim.errors import BlockTooLarge, NotSkew, ZeroProbabilityPrefix
from matchsim.majorana import h_matrix
from matchsim.oracle import random_mg_circuit, run_exact
from matchsim.pfaffian import (
    ChainRuleSampler,
    EvalStats,
    _input_rows,
    build_o,
    joint_prob_entangled,
    measurement_rows,
    pfaffian,
    pfaffian_brute,
    sample_many,
    split_canonical_input,
)

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


def test_pfaffian_rejects_non_skew():
    with pytest.raises(NotSkew):
        pfaffian(np.eye(4))


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
        o = build_o(_input_rows([0, 2], n, descending), h)
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
    # |M> has 4 components, all even weight: 16 pairs survive of 2^{2k} = 256
    assert stats.evaluated_pairs == 16


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
    r1 = sample_many(c, 5, seed=3)
    r2 = sample_many(c, 5, seed=3)
    assert [r.assignments for r in r1] == [r.assignments for r in r2]


def test_sampler_nonadapt_equals_categorical_draw():
    c = random_mg_circuit(3, 12, seed=12)
    recs = sample_many(c, 4000, seed=5)
    dist = run_exact(c)
    marg = dist.marginal([m.record_id for m in c.measurements("final")])
    counts = {}
    for r in recs:
        key = tuple(b for _, b, _ in r.assignments)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(k, 0) / 4000 - p) for k, p in marg.items())
    assert tv < 0.03


def test_sampler_conditionals_in_range_and_product_equals_joint():
    c = random_mg_circuit(8, 30, seed=13, n_intermediate=10, final_lines=[0, 7])
    recs = sample_many(c, 20, seed=6)
    for r in recs:
        for _, _, cond in r.assignments:
            assert -1e-12 <= cond <= 1 + 1e-12
        joint = joint_prob_entangled(c, r.bits())
        assert abs(r.joint_probability() - joint) < 1e-8


def test_zero_probability_prefix_error():
    # a prefix whose probability collapses below threshold aborts the shot
    c = Circuit(1, bits_input("0"), (Measure(0, "m", "intermediate"),
                                     Measure(0, "x", "final"))).validate()
    sampler = ChainRuleSampler(c, prob_fn=lambda oc: 0.0)

    with pytest.raises(ZeroProbabilityPrefix):
        sampler.sample([0.5, 0.5])


def test_pf_squared_equals_det_on_built_matrices():
    c = random_mg_circuit(4, 18, seed=14, n_intermediate=1, input_spec=bits_input("0110"))
    ones = [1, 2]
    mids = measurement_rows(c, {"m0": 1, "x0": 0, "x1": 1, "x2": 0, "x3": 1})
    rows = np.vstack([_input_rows(ones, 4, descending=True), mids, _input_rows(ones, 4)])
    o = build_o(rows, h_matrix(4))
    pf = pfaffian(o)
    assert abs(pf ** 2 - np.linalg.det(o)) < 1e-8 * max(1.0, abs(np.linalg.det(o)))

"""Heisenberg backend.

Strong simulation of single-line outputs for product/block inputs, and
weak simulation with a few adaptive measurements: the joint probability is a
sum of (2n)^(4k + 2|x|) summands, each a product of T-matrix coefficients
times an input expectation value of a Majorana-operator product.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .errors import BackendInapplicable, BudgetExceeded
from .majorana import (
    apply_majorana_sum,
    expectation_pauli,
    majorana_action_table,
    majorana_pair,
    segment_rotation,
    t_from_r,
)
from .pfaffian import (
    NEG_CLAMP,
    ChainRuleSampler,
    EvalStats,
    _clamp_probability,
    _projector_rows,
    measurement_rows,
    plan,
)

DEFAULT_TERM_BUDGET = 400_000  # summand cap above GROUPED_N_CAP lines
GROUPED_N_CAP = 16  # dense evaluation holds 2^n amplitudes


def strong_single_line(circuit: Circuit, line: int, outcome: int = 1, *,
                       stats: EvalStats | None = None) -> float:
    """Probability that a final computational measurement of ``line`` yields
    ``outcome``, for circuits without intermediate measurements.

    Evaluates the projector's row pair against the (2n)^2 input expectation
    values; each factorizes over the input blocks.  The value is clamped to
    [0, 1], and ``stats.flags`` notes a residual beyond ``NEG_CLAMP``.
    """
    p = plan(circuit, "heisenberg")
    if p.intermediates:
        raise BackendInapplicable("heisenberg", "strong_single_line requires NONADAPT")
    if line not in [m.line for m in p.finals]:
        raise BackendInapplicable("heisenberg", f"line {line + 1} is not measured finally")
    stats = stats if stats is not None else EvalStats()
    n = circuit.n
    t = t_from_r(segment_rotation(circuit.gates(), n))
    value = _clamp_probability(_eval_pair(_projector_rows(t[line], outcome), circuit.input, n),
                               stats.flags, "heisenberg")
    if value > 1 + NEG_CLAMP:
        stats.flags.append(f"probability above 1 by {value - 1:.2e}")
    return min(value, 1.0)


def _pair_expectations(spec, n):
    """M[mu, nu] = <psi| c_mu c_nu |psi> for all Majorana index pairs."""
    m = np.empty((2 * n, 2 * n), dtype=complex)
    for i in range(2 * n):
        for j in range(2 * n):
            m[i, j] = expectation_pauli(majorana_pair(i, j, n), spec)
    return m


def _eval_pair(rows, spec, n):
    """p = sum_{d,e} v0[d] v1[e] <psi| c_d c_e |psi> for one projector's row
    pair (v0, v1)."""
    return np.einsum("d,e,de->", rows[0], rows[1], _pair_expectations(spec, n))


def joint_prob_few_adaptive(circuit: Circuit, outcomes: dict, *,
                            stats: EvalStats | None = None) -> float:
    """Joint probability of a y-prefix plus a subset of final outcomes.

    The displayed sum has (2n)^(4k + 2|x|) summands, and its nominal count is
    reported in ``stats.term_count``.  Up to ``GROUPED_N_CAP`` lines it is
    evaluated densely (``_eval_grouped``).  Above that, ``DEFAULT_TERM_BUDGET``
    admits at most one projector, evaluated by the single-line pair formula.
    """
    stats = stats if stats is not None else EvalStats()
    rows = measurement_rows(circuit, outcomes, backend="heisenberg")
    n = circuit.n
    count = (2 * n) ** len(rows)
    stats.term_count += count
    if n <= GROUPED_N_CAP:
        value = _eval_grouped(rows, *_dense_input(circuit))
    elif count > DEFAULT_TERM_BUDGET:
        raise BudgetExceeded(count, DEFAULT_TERM_BUDGET)
    elif len(rows):
        value = _eval_pair(rows, circuit.input, n)
    else:
        value = 1.0 + 0.0j
    return _clamp_probability(value, stats.flags, "heisenberg")


def _dense_input(circuit: Circuit):
    """The plan's read-only ``dense`` input, built on first use: the 2^n
    input vector and the Majorana action table."""
    p = plan(circuit, "heisenberg")
    if p.dense is None:
        psi, table = circuit.input.state(), tuple(majorana_action_table(circuit.n))
        for a in [psi] + [phase for _, phase in table]:
            a.flags.writeable = False
        p.dense = (psi, table)
    return p.dense


def _eval_grouped(rows, psi, table):
    """Distribute the summation indices: apply each row's Majorana-sum
    operator in turn to the dense input vector and close with the bra."""
    phi = psi
    for v in rows[::-1]:
        phi = apply_majorana_sum(v, table, phi)
    return complex(np.vdot(psi, phi))


def heisenberg_sampler(circuit: Circuit) -> ChainRuleSampler:
    """Weak simulation by iterative conditional sampling; draw shots with
    ``pfaffian.sample_many(circuit, shots, seed, sampler=...)``."""
    return ChainRuleSampler(circuit, lambda oc: joint_prob_few_adaptive(circuit, oc))

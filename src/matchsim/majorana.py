"""Majorana / Jordan-Wigner algebra.

Builds the 2n x 2n orthogonal rotation induced by a matchgate circuit on the
Majorana operators, the derived n x 2n annihilation-coefficient matrix, and
evaluates expectation values of Majorana-operator products over block-product
inputs.

Majorana indices are 0-based in code: line l (0-based) owns indices 2l
(X-type, the paper's c_{2l+1} in 1-based counting) and 2l+1 (Y-type).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .circuit import BitsBlock, InputSpec, ProductBlock
from .errors import BlockTooLarge, NonRealResidual

REAL_TOL = 1e-10

PAULI_MATS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True, eq=False)
class PauliString:
    """Phase times a tensor product of Pauli letters, phase in {1, i, -1, -i}.

    The phase is stored exactly as a power of i.
    """

    phase_code: int  # power of i, 0..3
    letters: np.ndarray  # uint8 codes, length n

    @property
    def phase(self) -> complex:
        return _I_POWERS[self.phase_code % 4]

    @property
    def n(self) -> int:
        return len(self.letters)


def majorana_pair(mu: int, nu: int, n: int) -> PauliString:
    """c_mu c_nu in closed form, mu and nu 0-based in 0..2n-1.

    c_mu is Z on the lines below line mu // 2, X (even mu) or Y (odd mu) on
    it, and I above.  In the product the Z strings cancel below the lower of
    the two lines; the lower line carries its letter times Z (XZ = -iY,
    YZ = iX, ZX = iY, ZY = -iX), the lines strictly between carry Z, and the
    upper line carries its own letter.  On one line XX = YY = I, XY = iZ and
    YX = -iZ.
    """
    if not (0 <= mu < 2 * n and 0 <= nu < 2 * n):
        raise ValueError(f"majorana indices ({mu}, {nu}) outside 0..{2 * n - 1}")
    a, b = mu // 2, nu // 2
    pa, pb = 1 + mu % 2, 1 + nu % 2  # letter codes: X = 1, Y = 2
    letters = np.zeros(n, dtype=np.uint8)
    if a == b:
        if pa == pb:
            return PauliString(0, letters)
        letters[a] = 3
        return PauliString(1 if pa == 1 else 3, letters)
    lo, hi, low, high = (a, b, pa, pb) if a < b else (b, a, pb, pa)
    letters[lo] = 3 - low  # X times Z is Y up to phase, Y times Z is X
    letters[lo + 1: hi] = 3
    letters[hi] = high
    # XZ and ZY carry -i, YZ and ZX carry i
    return PauliString(3 if (a < b) == (low == 1) else 1, letters)


def _bits_factor(letters, bits) -> complex:
    out = 1.0
    for code, b in zip(letters, bits):
        if code == 0:
            continue
        if code == 3:
            out = -out if b == "1" else out
        else:
            return 0.0
    return out


def _dense_factor(letters, state) -> complex:
    k = len(letters)
    v = state.reshape([2] * k) if k > 1 else state
    v = np.array(v, dtype=complex)
    for axis, code in enumerate(letters):
        if code == 0:
            continue
        v = np.tensordot(PAULI_MATS[code], v, axes=([1], [axis]))
        v = np.moveaxis(v, 0, axis)
    return complex(np.vdot(state.reshape(-1), v.reshape(-1)))


BLOCK_CAP = 12  # widest entangled block expanded densely


def expectation_pauli(ps: PauliString, spec: InputSpec) -> complex:
    """<spec| ps |spec>, factorized over the input blocks.

    Each entangled block costs a dense contraction of size 2^k, so block
    widths above ``BLOCK_CAP`` are rejected.
    """
    value = complex(ps.phase)
    pos = 0
    for block in spec.blocks:
        letters = ps.letters[pos: pos + block.n]
        pos += block.n
        if not letters.any() and not isinstance(block, BitsBlock):
            continue
        if isinstance(block, BitsBlock):
            f = _bits_factor(letters, block.bits)
        elif isinstance(block, ProductBlock):
            f = 1.0
            for code, s in zip(letters, block.states):
                if code:
                    f *= np.vdot(s, PAULI_MATS[code] @ s)
        else:
            if block.n > BLOCK_CAP:
                raise BlockTooLarge(
                    f"entangled block of width {block.n} exceeds cap {BLOCK_CAP}"
                )
            f = _dense_factor(letters, block.state())
        value *= f
        if value == 0:
            return 0.0
    return value


# ---------------------------------------------------------------------------
# Rotation and T matrices
# ---------------------------------------------------------------------------

# Local parts of the four Majorana operators touching a gate on lines (l, l+1):
# X x 1, Y x 1, Z x X, Z x Y (the common Z prefix on lines < l commutes through).
_LOCAL_MAJORANA = (
    np.kron(PAULI_MATS[1], PAULI_MATS[0]),
    np.kron(PAULI_MATS[2], PAULI_MATS[0]),
    np.kron(PAULI_MATS[3], PAULI_MATS[1]),
    np.kron(PAULI_MATS[3], PAULI_MATS[2]),
)


def gate_rotation_block(gate) -> np.ndarray:
    """4x4 real block of the Majorana rotation of a single matchgate.

    Row mu holds the expansion of U c_mu U^dag over the four local Majorana
    operators; entries with imaginary part above tolerance signal that a
    non-matchgate slipped through validation.
    """
    u = gate.matrix()
    udg = u.conj().T
    block = np.empty((4, 4), dtype=complex)
    for i, mi in enumerate(_LOCAL_MAJORANA):
        conj = u @ mi @ udg
        for j, mj in enumerate(_LOCAL_MAJORANA):
            block[i, j] = np.trace(mj @ conj) / 4.0
    residual = np.max(np.abs(block.imag))
    if residual > REAL_TOL:
        raise NonRealResidual(f"rotation block has imaginary residual {residual:.3e}")
    return block.real


# Read-only rotation block of each Matchgate, computed once.  Matchgate is
# frozen with eq=False, so it is keyed by identity, and its arrays are
# read-only, so a block cannot go stale; the entry dies with its gate.
_BLOCKS = weakref.WeakKeyDictionary()


def segment_rotation(gates, n: int) -> np.ndarray:
    """Rotation of a sequence of ``Gate`` instructions (first-applied gate
    first in the list).

    With U c_mu U^dag = sum_nu R[mu, nu] c_nu and U = g_m ... g_1, one has
    R(U) = R(g_1) R(g_2) ... R(g_m).
    """
    r = np.eye(2 * n)
    for g in gates:
        block = _BLOCKS.get(g.gate)
        if block is None:
            block = gate_rotation_block(g.gate)
            block.flags.writeable = False
            _BLOCKS[g.gate] = block
        j = slice(2 * g.line, 2 * g.line + 4)
        # r @ r_gate touches only the four banded columns
        r[:, j] = r[:, j] @ block
    return r


def t_from_r(r: np.ndarray) -> np.ndarray:
    """n x 2n annihilation-coefficient matrix T[i, nu] = (R^T[2i, nu] + i R^T[2i+1, nu]) / 2
    (0-based rows; the defining formula holds exactly by construction)."""
    return 0.5 * (r[:, 0::2] + 1j * r[:, 1::2]).T


def h_matrix(n: int) -> np.ndarray:
    """Vacuum two-point function <0| c_mu c_nu |0> as a block-diagonal matrix."""
    h = np.eye(2 * n, dtype=complex)
    for l in range(n):
        h[2 * l, 2 * l + 1] = 1j
        h[2 * l + 1, 2 * l] = -1j
    return h


# ---------------------------------------------------------------------------
# Dense application of Majorana operators (used by the Heisenberg backend)
# ---------------------------------------------------------------------------


def majorana_action_table(n: int):
    """Per Majorana index mu (0-based), (flip_mask, phase_vector) such that
    (c_mu psi)[i] = phase_vector[i] * psi[i ^ flip_mask] on dense 2^n vectors.

    Line 0 is the most significant bit.
    """
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column l: line l
    signs = 1 - 2 * bits
    # column l: the sign of the Z string on lines < l (signs square to 1)
    zsigns = np.cumprod(signs, axis=1) * signs
    table = []
    for mu in range(2 * n):
        l = mu // 2
        mask = 1 << (n - 1 - l)
        if mu % 2 == 0:  # X-type
            phase = zsigns[:, l].astype(complex)
        else:  # Y-type: <i|Y|j> = i if bit set in i else -i
            phase = zsigns[:, l] * np.where(bits[:, l] > 0, 1j, -1j)
        table.append((mask, phase))
    return table


def apply_majorana_sum(weights, table, psi):
    """(sum_mu weights[mu] c_mu) |psi> on a dense vector."""
    out = np.zeros_like(psi)
    idx = np.arange(len(psi))
    for mu, w in enumerate(weights):
        if w == 0:
            continue
        mask, phase = table[mu]
        out += w * phase * psi[idx ^ mask]
    return out

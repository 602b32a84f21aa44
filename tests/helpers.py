"""Oracles used to cross-check the sparse exact engine.

The dense-vector oracle is deliberately independent of the implementation
under test: states become flat numpy arrays indexed by mixed-radix basis
tuples, and gates are applied by explicit loops over those arrays.
reference_hadamard is the exact per-term Hadamard built from ring
operations, which the engine's row-accumulating one must match term for
term.  dense_round re-implements a whole protocol round on such arrays,
with its own gate matrices and its own copies of the honest, ancilla and
intercept schedules, so a session can be checked without the ring, the
register or the round engine.  The remaining helpers are checks that
only the tests need.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

import numpy as np

from qkdlab.register import DensityMatrixSlice, PureState
from qkdlab.ring import CycloElem, cyclotomic_polynomial

#: stage labels of a round that no strategy with a stage prefix touched
GENERIC_STAGE_LABELS = ("pre_encode", "post_encode", "in_transit", "post_decode")


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """The NumPy Philox generator the tests draw their random data from.

    It is built as qkdlab.protocol.make_rng once built it, so the tests'
    data does not change when qkdlab's own generator does.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def sampler(rng):
    """The one-branch measure function run_round hands a strategy."""
    return lambda state, wire: [state.measure_computational(wire, rng)]


@lru_cache(maxsize=None)
def _unit_roots(dim: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * t / dim) for t in range(dim))


def to_complex(elem: CycloElem) -> complex:
    """The complex value of a ring element."""
    roots = _unit_roots(elem.dim)
    return sum((c * roots[t] for t, c in enumerate(elem.coeffs) if c), 0j)


def is_canonical(elem: CycloElem) -> bool:
    """True when the coefficients from index phi(d) up are zero."""
    phi = len(cyclotomic_polynomial(elem.dim)) - 1
    return not any(elem.coeffs[phi:])


def is_hermitian(rho: DensityMatrixSlice) -> bool:
    return all(
        (rho.entries[i][j] - rho.entries[j][i].conj()).is_zero()
        for i in range(rho.dim)
        for j in range(i, rho.dim)
    )


def reference_hadamard(state: PureState, wire: str, conjugate: bool = False) -> PureState:
    """Generalized Hadamard term by term through CycloElem.mul_zeta and +.

    Every input term adds amp * zeta**(+-jt) to output t, each partial
    sum reduced modulo Phi_d.  Then, while scale_exp is at least 2 and
    every coefficient is an int divisible by d, the amplitudes are divided
    by d and scale_exp drops by 2.
    """
    idx = state.wire_index(wire)
    dim = state.dim
    sign = -1 if conjugate else 1
    acc: dict[tuple[int, ...], CycloElem] = {}
    for basis, amp in state.terms.items():
        j = basis[idx]
        for t in range(dim):
            nb = basis[:idx] + (t,) + basis[idx + 1:]
            contrib = amp.mul_zeta(sign * j * t)
            prev = acc.get(nb)
            acc[nb] = contrib if prev is None else prev + contrib
    summed = PureState(dim, state.wires, state.scale_exp + 1, acc)
    terms, scale_exp = summed.terms, summed.scale_exp
    while scale_exp >= 2 and terms and all(
        isinstance(c, int) and c % dim == 0 for amp in terms.values() for c in amp.coeffs
    ):
        terms = {b: CycloElem(dim, tuple(c // dim for c in amp.coeffs)) for b, amp in terms.items()}
        scale_exp -= 2
    return PureState(dim, state.wires, scale_exp, terms)


def state_vector(state: PureState) -> np.ndarray:
    """Flatten a PureState into a dense complex vector (state's wire order)."""
    n = len(state.wires)
    vec = np.zeros(state.dim**n, dtype=complex)
    scale = state.dim ** (-state.scale_exp / 2)
    for basis, amp in state.terms.items():
        idx = 0
        for v in basis:
            idx = idx * state.dim + v
        vec[idx] = to_complex(amp) * scale
    return vec


def _indices(dim: int, n: int):
    for idx in range(dim**n):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % dim)
            rest //= dim
        yield idx, tuple(reversed(digits))


def dense_hadamard(vec: np.ndarray, dim: int, n: int, wire: int, conjugate: bool) -> np.ndarray:
    out = np.zeros_like(vec)
    sign = -1 if conjugate else 1
    root = cmath.exp(sign * 2j * cmath.pi / dim)
    for idx, basis in _indices(dim, n):
        if not vec[idx]:
            continue
        j = basis[wire]
        stride = dim ** (n - 1 - wire)
        base = idx - j * stride
        for t in range(dim):
            out[base + t * stride] += vec[idx] * root ** (j * t) / dim**0.5
    return out


def dense_controlled_shift(
    vec: np.ndarray, dim: int, n: int, control: int, target: int, direction: str
) -> np.ndarray:
    out = np.zeros_like(vec)
    sign = 1 if direction == "right" else -1
    for idx, basis in _indices(dim, n):
        if not vec[idx]:
            continue
        new_t = (basis[target] + sign * basis[control]) % dim
        stride = dim ** (n - 1 - target)
        out[idx + (new_t - basis[target]) * stride] = vec[idx]
    return out


def random_pure_state(rng, dim: int, wires: tuple[str, ...], max_terms: int = 6) -> PureState:
    """A random unnormalized state with monomial rational-times-root amplitudes.

    Basis tuples are distinct, so every stored amplitude is a single
    r * zeta**e monomial and the state's squared norm is exactly rational.
    """
    n_terms = min(int(rng.integers(1, max_terms + 1)), dim ** len(wires))
    terms = {}
    while len(terms) < n_terms:
        basis = tuple(int(x) for x in rng.integers(0, dim, len(wires)))
        if basis in terms:
            continue
        num = int(rng.integers(-4, 5)) or 1
        den = int(rng.integers(1, 4))
        phase = int(rng.integers(0, dim))
        coeffs = [Fraction(0)] * dim
        coeffs[phase] = Fraction(num, den)
        terms[basis] = CycloElem(dim, coeffs)
    return PureState(dim, wires, int(rng.integers(0, 3)), terms)


def random_ring_state(
    rng, dim: int, wires: tuple[str, ...], max_terms: int = 8, fractions: bool = True
) -> PureState:
    """A random unnormalized state whose amplitudes are general ring elements.

    Each amplitude has one to three nonzero coefficients; with fractions,
    some of them are non-integer Fractions.  scale_exp lies in 0..3.
    """
    n_terms = min(int(rng.integers(1, max_terms + 1)), dim ** len(wires))
    terms = {}
    while len(terms) < n_terms:
        basis = tuple(int(x) for x in rng.integers(0, dim, len(wires)))
        if basis in terms:
            continue
        coeffs = [0] * dim
        for i in rng.choice(dim, size=min(dim, int(rng.integers(1, 4))), replace=False):
            num = int(rng.integers(-4, 5)) or 1
            den = int(rng.choice((1, 1, 2, 3))) if fractions else 1
            coeffs[int(i)] = Fraction(num, den)
        terms[basis] = CycloElem(dim, coeffs)
    return PureState(dim, wires, int(rng.integers(0, 4)), terms)


def assert_vectors_close(actual: np.ndarray, expected: np.ndarray, tol: float = 1e-9):
    assert np.max(np.abs(actual - expected)) < tol


# -- whole-session dense oracle ------------------------------------------------
#
# A dense state is (wires, array): one array axis per wire label, in the
# same order.  Nothing below reads qkdlab; the schedules are the protocol's
# description, written out again.

#: Born weights at or below this are branches the exact engine does not make
DENSE_ZERO = 1e-12


def _fourier_matrix(dim: int, conjugate: bool) -> np.ndarray:
    """F[t, j] = exp(+-2 pi i j t / d) / sqrt(d)."""
    sign = -1 if conjugate else 1
    j = np.arange(dim)
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def _dense_gate(state, wire: str, matrix: np.ndarray):
    wires, vec = state
    axis = wires.index(wire)
    return wires, np.moveaxis(np.tensordot(matrix, vec, axes=([1], [axis])), 0, axis)


def _dense_shift(state, control: str, target: str, sign: int):
    """|..c..t..> -> |..c..(t + sign * c) mod d..>."""
    wires, vec = state
    dim = vec.shape[0]
    ci, ti = wires.index(control), wires.index(target)
    out = np.zeros_like(vec)
    for index in np.ndindex(vec.shape):
        moved = list(index)
        moved[ti] = (index[ti] + sign * index[ci]) % dim
        out[tuple(moved)] = vec[index]
    return wires, out


def _dense_insert(state, wire: str, value: int, position: int):
    wires, vec = state
    dim = vec.shape[0]
    fresh = np.zeros(dim, dtype=complex)
    fresh[value] = 1
    out = np.moveaxis(np.multiply.outer(vec, fresh), -1, position)
    return wires[:position] + (wire,) + wires[position:], out


def _dense_branches(state, wire: str):
    """[(outcome, collapsed normalized state, probability)] for every nonzero outcome."""
    wires, vec = state
    axis = wires.index(wire)
    out = []
    for value in range(vec.shape[axis]):
        kept = np.zeros_like(vec)
        index = (slice(None),) * axis + (value,)
        kept[index] = vec[index]
        weight = float(np.sum(np.abs(kept) ** 2))
        if weight > DENSE_ZERO:
            out.append((value, (wires, kept / np.sqrt(weight)), weight))
    return out


def _dense_drop(state, wire: str):
    """Remove a wire that holds one value on the whole support."""
    ((value, (wires, vec), _),) = _dense_branches(state, wire)
    axis = wires.index(wire)
    return wires[:axis] + wires[axis + 1:], np.take(vec, value, axis=axis)


def _dense_basis_hook(kind: str, state, round_index: int):
    if kind == "gao":
        if round_index == 1:
            return _dense_insert(state, "e", 0, len(state[0]))
        return _dense_gate(state, "e", _fourier_matrix(state[1].shape[0], False))
    return state


def _dense_transit_hook(kind: str, attacked, state, round_index: int):
    """[(states produced, value read, probability)], the last state travelling on."""
    if kind == "intercept" and (attacked is None or round_index in attacked):
        return [([collapsed], value, p) for value, collapsed, p in _dense_branches(state, "k")]
    if kind != "gao":
        return [([state], None, 1.0)]
    if round_index == 1:
        return [([_dense_shift(state, "k", "e", 1)], None, 1.0)]
    if round_index % 2 == 0:
        return [([_dense_shift(state, "e", "k", 1)], None, 1.0)]
    read = _dense_shift(state, "e", "k", -1)
    ((value, _, _),) = _dense_branches(read, "k")
    return [([read, _dense_shift(read, "e", "k", 1)], value, 1.0)]


def dense_round(state, round_index: int, key_dit: int, kind: str, attacked=None):
    """Every branch of one round: (stage states, value read, Bob's outcome, next shared state, p).

    kind is "honest", "gao" or "intercept"; attacked is the set of
    intercepted rounds, None for all.  The stages are the ones
    protocol._round yields: the basis change, pre_encode, post_encode,
    every transit state and post_decode.
    """
    dim = state[1].shape[0]
    basis = _dense_gate(state, "a", _fourier_matrix(dim, False))
    basis = _dense_gate(basis, "b", _fourier_matrix(dim, True))
    basis = _dense_basis_hook(kind, basis, round_index)
    pre = _dense_insert(basis, "k", key_dit, basis[0].index("b") + 1)
    post = _dense_shift(pre, "a", "k", 1)
    for transit, value, p_eve in _dense_transit_hook(kind, attacked, post, round_index):
        decoded = _dense_shift(transit[-1], "b", "k", -1)
        stages = [basis, pre, post, *transit, decoded]
        for outcome, collapsed, p_bob in _dense_branches(decoded, "k"):
            yield stages, value, outcome, _dense_drop(collapsed, "k"), p_eve * p_bob


def dense_bell(dim: int):
    """sum_j |j, j> / sqrt(d) on wires (a, b)."""
    return ("a", "b"), np.eye(dim, dtype=complex) / np.sqrt(dim)


def dense_of(state: PureState):
    """A PureState as a dense state in its own wire order."""
    shape = (state.dim,) * len(state.wires)
    return state.wires, state_vector(state).reshape(shape)

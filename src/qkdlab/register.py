"""Sparse multi-qudit pure states over named wires.

A state stores a map from basis tuples to exact ring amplitudes together
with a global factor d**(-scale_exp/2) * sqrt(scale_sq), so square roots
of the dimension never enter the coefficient ring.  In every state the
protocol engine produces, scale_sq stays 1 and the amplitudes stay
integer vectors; the extra factor exists for collapses whose branch
weight is not a power of d.

Wires are plain string labels.  The four canonical protocol wires are
Alice's and Bob's halves of the shared pair, the travelling key qudit,
and the eavesdropper's ancilla.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

from .ring import CycloElem, rational_value, sqrt_rational

Wire = str
BasisTuple = tuple[int, ...]

ALICE_WIRE: Wire = "a"
BOB_WIRE: Wire = "b"
TRANSIT_WIRE: Wire = "k"
ANCILLA_WIRE: Wire = "e"

#: preferred display order for the canonical wires in snapshots and JSON
WIRE_DISPLAY_ORDER: tuple[Wire, ...] = (ALICE_WIRE, BOB_WIRE, TRANSIT_WIRE, ANCILLA_WIRE)

_ONE = Fraction(1)


class PureState:
    """Sparse superposition over labelled d-level wires.

    terms maps basis tuples (one dit per wire, in wire order) to nonzero
    CycloElem amplitudes.  Normalized states satisfy norm_squared() == 1;
    the constructor does not enforce this so that intermediate values of
    unitary rewrites can exist.
    """

    __slots__ = ("dim", "wires", "scale_exp", "terms", "scale_sq")

    def __init__(
        self,
        dim: int,
        wires,
        scale_exp: int,
        terms,
        scale_sq: Fraction = _ONE,
    ) -> None:
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, got {dim}")
        wires = tuple(wires)
        if len(set(wires)) != len(wires):
            raise ValueError(f"duplicate wire labels in {wires}")
        if not wires:
            raise ValueError("a state needs at least one wire")
        if scale_exp < 0 or not isinstance(scale_exp, int):
            raise ValueError(f"scale_exp must be a non-negative integer, got {scale_exp}")
        scale_sq = Fraction(scale_sq)
        if scale_sq <= 0:
            raise ValueError(f"scale_sq must be positive, got {scale_sq}")
        clean: dict[BasisTuple, CycloElem] = {}
        for basis, amp in dict(terms).items():
            basis = tuple(basis)
            if len(basis) != len(wires):
                raise ValueError(f"basis tuple {basis} does not match wires {wires}")
            if any(not 0 <= v < dim for v in basis):
                raise ValueError(f"basis values out of range for dimension {dim}: {basis}")
            if not isinstance(amp, CycloElem):
                raise TypeError(f"amplitude must be CycloElem, got {type(amp).__name__}")
            if amp.dim != dim:
                raise ValueError(f"amplitude dimension {amp.dim} does not match state dimension {dim}")
            amp = amp.canonical_reduce()
            if any(amp.coeffs):
                clean[basis] = amp
        self.dim = dim
        self.wires = wires
        self.scale_exp = scale_exp
        self.terms = clean
        self.scale_sq = scale_sq

    # -- construction helpers ------------------------------------------------

    def wire_index(self, wire: Wire) -> int:
        try:
            return self.wires.index(wire)
        except ValueError:
            raise ValueError(f"wire {wire!r} not present in state wires {self.wires}") from None

    def tensor(self, other: PureState) -> PureState:
        """Adjoin another register; wire label sets must be disjoint."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        overlap = set(self.wires) & set(other.wires)
        if overlap:
            raise ValueError(f"duplicate wire labels in tensor product: {sorted(overlap)}")
        terms = {}
        for b1, a1 in self.terms.items():
            for b2, a2 in other.terms.items():
                terms[b1 + b2] = a1 * a2
        return PureState(
            self.dim,
            self.wires + other.wires,
            self.scale_exp + other.scale_exp,
            terms,
            self.scale_sq * other.scale_sq,
        )

    def reorder_wires(self, order) -> PureState:
        order = tuple(order)
        if sorted(order) != sorted(self.wires):
            raise ValueError(f"{order} is not a permutation of {self.wires}")
        perm = tuple(self.wires.index(w) for w in order)
        terms = {tuple(b[i] for i in perm): amp for b, amp in self.terms.items()}
        return PureState(self.dim, order, self.scale_exp, terms, self.scale_sq)

    def sorted_wires(self) -> PureState:
        return self.reorder_wires(sorted(self.wires))

    # -- gates ---------------------------------------------------------------

    def apply_controlled_shift(self, control: Wire, target: Wire, direction: str = "right") -> PureState:
        """Shift the target dit by +control (right) or -control (left), mod d."""
        if direction not in ("right", "left"):
            raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
        ci, ti = self.wire_index(control), self.wire_index(target)
        if ci == ti:
            raise ValueError("control and target must be distinct wires")
        sign = 1 if direction == "right" else -1
        dim = self.dim
        terms = {}
        for basis, amp in self.terms.items():
            shifted = (basis[ti] + sign * basis[ci]) % dim
            terms[basis[:ti] + (shifted,) + basis[ti + 1:]] = amp
        return PureState(dim, self.wires, self.scale_exp, terms, self.scale_sq)

    def apply_hadamard(self, wire: Wire, conjugate: bool = False) -> PureState:
        """Generalized Hadamard on one wire: |j> -> d**-1/2 sum_t zeta**(jt) |t>.

        conjugate=True applies the entry-wise conjugate transform
        (phases zeta**(-jt)).  The global exponent rises by one and is
        folded back down when all resulting amplitudes divide by d.
        """
        idx = self.wire_index(wire)
        dim = self.dim
        sign = -1 if conjugate else 1
        acc: dict[BasisTuple, CycloElem] = {}
        for basis, amp in self.terms.items():
            j = basis[idx]
            prefix, suffix = basis[:idx], basis[idx + 1:]
            for t in range(dim):
                nb = prefix + (t,) + suffix
                contrib = amp.mul_zeta(sign * j * t)
                prev = acc.get(nb)
                acc[nb] = contrib if prev is None else prev + contrib
        state = PureState(dim, self.wires, self.scale_exp + 1, acc, self.scale_sq)
        return state._reduce_scale()

    def _reduce_scale(self) -> PureState:
        """Divide all amplitudes by d and drop scale_exp by 2 while possible."""
        dim, terms, s = self.dim, self.terms, self.scale_exp
        while s >= 2 and terms:
            divisible = all(
                isinstance(c, int) and c % dim == 0
                for amp in terms.values()
                for c in amp.coeffs
            )
            if not divisible:
                break
            terms = {
                b: CycloElem(dim, tuple(c // dim for c in amp.coeffs))
                for b, amp in terms.items()
            }
            s -= 2
        if s == self.scale_exp:
            return self
        return PureState(dim, self.wires, s, terms, self.scale_sq)

    # -- measurement ---------------------------------------------------------

    def _branch_weights(self, wire: Wire) -> dict[int, Fraction]:
        idx = self.wire_index(wire)
        sums: dict[int, CycloElem] = {}
        for basis, amp in self.terms.items():
            v = basis[idx]
            contrib = amp * amp.conj()
            prev = sums.get(v)
            sums[v] = contrib if prev is None else prev + contrib
        weight = self.scale_sq / Fraction(self.dim) ** self.scale_exp
        return {v: weight * rational_value(s) for v, s in sums.items()}

    def measurement_distribution(self, wire: Wire) -> dict[int, Fraction]:
        """Exact Born probabilities for a computational measurement of wire."""
        weights = self._branch_weights(wire)
        total = sum(weights.values())
        if total == 0:
            raise ValueError("cannot measure a zero state")
        return {v: w / total for v, w in sorted(weights.items()) if w}

    def project(self, wire: Wire, outcome: int) -> PureState:
        """Collapse onto one outcome and renormalize."""
        idx = self.wire_index(wire)
        if not 0 <= outcome < self.dim:
            raise ValueError(f"outcome {outcome} out of range for dimension {self.dim}")
        branch = {b: a for b, a in self.terms.items() if b[idx] == outcome}
        if not branch:
            raise ValueError(f"outcome {outcome} has zero amplitude on wire {wire!r}")
        state = PureState(self.dim, self.wires, self.scale_exp, branch, self.scale_sq)
        norm = state.norm_squared()
        return PureState(
            self.dim, self.wires, self.scale_exp, branch, self.scale_sq / norm
        )._fold_scale_sq()

    def _fold_scale_sq(self) -> PureState:
        """Move any d-power content of scale_sq into the scale exponent."""
        dim = self.dim
        num, den = self.scale_sq.numerator, self.scale_sq.denominator
        shift = 0
        while num % dim == 0:
            num //= dim
            shift += 1
        while den % dim == 0:
            den //= dim
            shift -= 1
        s = self.scale_exp - shift
        rest = Fraction(num, den)
        if s < 0:
            rest *= Fraction(dim) ** (-s)
            s = 0
        if s == self.scale_exp and rest == self.scale_sq:
            return self
        return PureState(dim, self.wires, s, self.terms, rest)

    def measure_computational(self, wire: Wire, rng) -> tuple[int, PureState, Fraction]:
        """Sample an outcome with exact Born weights; rng supplies one uniform draw.

        Returns (outcome, collapsed renormalized state, exact probability).
        """
        dist = self.measurement_distribution(wire)
        u = Fraction(rng.random())
        cumulative = Fraction(0)
        outcome = None
        for v, p in dist.items():
            cumulative += p
            if u < cumulative:
                outcome = v
                break
        if outcome is None:  # guards against cumulative rounding never triggering
            outcome = next(reversed(dist))
        return outcome, self.project(wire, outcome), dist[outcome]

    def deterministic_outcome(self, wire: Wire) -> int | None:
        """The single value wire takes in every term, or None if it varies."""
        idx = self.wire_index(wire)
        values = {b[idx] for b in self.terms}
        if len(values) == 1:
            return values.pop()
        return None

    def drop_wire(self, wire: Wire) -> PureState:
        """Remove a wire whose value is the same in every term."""
        if self.deterministic_outcome(wire) is None:
            raise ValueError(f"wire {wire!r} is not deterministic; cannot drop it")
        idx = self.wire_index(wire)
        if len(self.wires) == 1:
            raise ValueError("cannot drop the last wire of a state")
        wires = self.wires[:idx] + self.wires[idx + 1:]
        terms = {b[:idx] + b[idx + 1:]: a for b, a in self.terms.items()}
        return PureState(self.dim, wires, self.scale_exp, terms, self.scale_sq)

    # -- aggregates ----------------------------------------------------------

    def norm_squared(self) -> Fraction:
        total = CycloElem.zero(self.dim)
        for amp in self.terms.values():
            total = total + amp * amp.conj()
        return self.scale_sq * rational_value(total) / Fraction(self.dim) ** self.scale_exp

    def reduced_density(self, wire: Wire) -> DensityMatrixSlice:
        """Trace out everything but one wire."""
        idx = self.wire_index(wire)
        dim = self.dim
        groups: dict[BasisTuple, list[tuple[int, CycloElem]]] = {}
        for basis, amp in self.terms.items():
            rest = basis[:idx] + basis[idx + 1:]
            groups.setdefault(rest, []).append((basis[idx], amp))
        weight = self.scale_sq / Fraction(dim) ** self.scale_exp
        rho = [[CycloElem.zero(dim) for _ in range(dim)] for _ in range(dim)]
        for group in groups.values():
            for i, a1 in group:
                for j, a2 in group:
                    rho[i][j] = rho[i][j] + a1 * a2.conj()
        entries = tuple(tuple(e * weight for e in row) for row in rho)
        return DensityMatrixSlice(dim, entries)

    def amplitude(self, basis: BasisTuple) -> CycloElem:
        return self.terms.get(tuple(basis), CycloElem.zero(self.dim))

    def global_factor(self) -> float:
        return sqrt(float(self.scale_sq)) * self.dim ** (-self.scale_exp / 2)

    def complex_amplitude(self, basis: BasisTuple) -> complex:
        return self.amplitude(basis).to_complex() * self.global_factor()

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "wires": list(self.wires),
            "scale_exp": self.scale_exp,
            "terms": [
                {
                    "basis": list(basis),
                    "coeffs": [str(Fraction(c)) for c in self.terms[basis].coeffs],
                }
                for basis in sorted(self.terms)
            ],
        }
        if self.scale_sq != 1:
            out["scale_sq"] = str(self.scale_sq)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> PureState:
        dim = data["dim"]
        terms = {
            tuple(entry["basis"]): CycloElem(dim, tuple(Fraction(c) for c in entry["coeffs"]))
            for entry in data["terms"]
        }
        return cls(
            dim,
            tuple(data["wires"]),
            data["scale_exp"],
            terms,
            Fraction(data.get("scale_sq", 1)),
        )

    def __repr__(self) -> str:
        return (
            f"PureState(dim={self.dim}, wires={self.wires}, scale_exp={self.scale_exp}, "
            f"terms={len(self.terms)})"
        )


class DensityMatrixSlice:
    """A d x d reduced density matrix with exact ring entries."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries) -> None:
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError(f"expected a {dim}x{dim} matrix")
        self.dim = dim
        self.entries = entries

    @classmethod
    def maximally_mixed(cls, dim: int) -> DensityMatrixSlice:
        w = Fraction(1, dim)
        return cls(
            dim,
            [
                [CycloElem.from_rational(dim, w if i == j else 0) for j in range(dim)]
                for i in range(dim)
            ],
        )

    def trace(self) -> CycloElem:
        total = CycloElem.zero(self.dim)
        for i in range(self.dim):
            total = total + self.entries[i][i]
        return total

    def is_hermitian(self) -> bool:
        return all(
            (self.entries[i][j] - self.entries[j][i].conj()).is_zero()
            for i in range(self.dim)
            for j in range(i, self.dim)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrixSlice):
            return NotImplemented
        if other.dim != self.dim:
            return False
        return all(
            (self.entries[i][j] - other.entries[i][j]).is_zero()
            for i in range(self.dim)
            for j in range(self.dim)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"DensityMatrixSlice(dim={self.dim})"


# -- canonical state constructors ---------------------------------------------


def bell_state(dim: int, wires: tuple[Wire, Wire] = (ALICE_WIRE, BOB_WIRE)) -> PureState:
    """The maximally entangled pair sum_j |j,j> / sqrt(d)."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    one = CycloElem.one(dim)
    return PureState(dim, wires, 1, {(j, j): one for j in range(dim)})


def basis_state(dim: int, wire_values) -> PureState:
    """A computational product state from (wire, value) pairs."""
    pairs = list(wire_values)
    wires = tuple(w for w, _ in pairs)
    values = tuple(v for _, v in pairs)
    return PureState(dim, wires, 0, {values: CycloElem.one(dim)})


# -- comparison ----------------------------------------------------------------


def state_equals(a: PureState, b: PureState) -> bool:
    """Decide exactly whether two states are the same vector.

    The global factors are aligned by writing their ratio as a ring
    element; when the field holds no such element, only two zero states
    can be equal.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if set(a.wires) != set(b.wires):
        raise ValueError(f"wire sets differ: {a.wires} vs {b.wires}")
    a = a.sorted_wires()
    b = b.sorted_wires()
    ratio_sq = (b.scale_sq / a.scale_sq) * Fraction(a.dim) ** (a.scale_exp - b.scale_exp)
    ratio = sqrt_rational(a.dim, ratio_sq)
    if ratio is None:
        return not a.terms and not b.terms
    keys = a.terms.keys() | b.terms.keys()
    return all((a.amplitude(k) - b.amplitude(k) * ratio).is_zero() for k in keys)

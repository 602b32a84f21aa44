"""Sparse multi-qudit pure states over named wires.

A state stores a map from basis tuples to exact ring amplitudes together
with a global factor d**(-scale_exp/2), so square roots of the dimension
never enter the coefficient ring.  Amplitudes are canonical from
construction, so this module never reduces modulo Phi_d and compares
them with ==.

The generalized Hadamard works on plain coefficients rather than ring
elements: it adds each input amplitude's coefficients, rotated by the
output's phase exponent, into one row of d ints or Fractions per output
basis state, builds one CycloElem per finished row (which reduces it)
and drops the zero ones.  It raises scale_exp by one and folds it back
exactly: while scale_exp is at least 2 and d divides every reduced
coefficient, all amplitudes are divided by d and scale_exp drops by 2.

The gate groups the terms by their other wires, and a group's outputs
depend only on (d, conjugate, members), where members is the tuple of
the group's (transformed dit, amplitude coefficients) pairs.  Few such
keys are distinct (442 among the 50,960 groups of 40 attacked d=7
sessions), so _hadamard_group memoizes the per-group rows in a
functools.lru_cache.  A hit is exact: equal keys are equal input rows
(== and hash treat an int and its equal Fraction alike, and the
CycloElem constructor brings both to one canonical tuple), and the
cached CycloElems are immutable, so states share them.  The cache holds
at most HADAMARD_GROUP_CACHE_SIZE keys, a constant; the least recently
used go first.

In front of the group memo sits a memo of the whole gate.  The protocol's
states recur: honest rounds leave the Bell state fixed, and the attack's
ancilla mirrors the basis change, whose Fourier gate has order 4, so from
round 2 on the shared state returns to the same few vectors.  The key is
(d, wire index, conjugate, scale_exp, the basis tuples in term order,
their coefficient tuples in the same order) and the value is the
output's scale_exp and terms.  A hit is exact: coefficient tuples are
canonical and basis values are plain ints (the constructor and
insert_wire refuse a bool and turn numpy integers into int), so equal
keys are equal input vectors written in the same term order, and the hit
returns a copy of the terms a fresh computation would give, in the same
order, under the caller's own wire labels.  The memo is bounded
by the terms it holds, input plus output, since one entry holds from d
to d**3 of them: it keeps at most HADAMARD_GATE_MEMO_TERMS, a constant,
and empties itself when an entry would take it past that.  No eviction
order would pay for its code: no benchmark workload fills the memo
(2,000 attacked d=7 sessions keep 44 entries, 11,872 terms), and from
d=29 on a session's 14 distinct inputs do not fit at all, so in their
period-4 cycle least-recently-used order too drops the entry needed next.

Born weights (|amplitude|**2 summed over some terms) come from _weight,
which works on plain rows like the Hadamard: each term whose amplitude is
sum_i c_i zeta**i adds c_i * c_j into row[(i - j) % d], and the row
becomes one CycloElem, whose constructor reduces it; a weight that is not
rational raises ValueError.  A measurement splits the state once:
_outcomes groups the terms by the wire's value in one pass and weighs
each branch once, and measurement_distribution, branches and the
sampling measurement all read it; the sampler draws one outcome and
collapses the terms it already holds for it.  norm_squared and project
weigh only their own terms.  A collapse moves the branch weight's powers
of d into scale_exp and builds one state; it raises ValueError when the
weight is no power of d.  Every Born weight on the protocol's stabilizer
states is such a power, so no protocol path reaches that error.

insert_wire adjoins a wire in a basis state by rebuilding the basis
tuples, with no ring arithmetic.  The public constructor checks every
term.  Gates, collapses, insert_wire and drop_wire build their terms
from a state that is already valid, so they go through the unchecked
PureState._derived instead.

Wires are plain string labels.  The four canonical protocol wires are
Alice's and Bob's halves of the shared pair, the travelling key qudit,
and the eavesdropper's ancilla.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .ring import CycloElem, rational_value, sqrt_rational

Wire = str
BasisTuple = tuple[int, ...]

ALICE_WIRE: Wire = "a"
BOB_WIRE: Wire = "b"
TRANSIT_WIRE: Wire = "k"
ANCILLA_WIRE: Wire = "e"

#: Hadamard groups _hadamard_group keeps.  A 13-round attacked session makes 690
#: distinct ones at d=13 and 2,140 at d=23; 2048 keeps full speed up to d=19, and
#: at d=23 ru_maxrss of six sessions grows by 7 MB (47 -> 54), where 4096 adds 12
HADAMARD_GROUP_CACHE_SIZE = 2048

#: Terms, input plus output, the whole-gate memo holds.  A 13-round attacked session
#: keeps 14 entries: 3,472 terms at d=7, 60,040 at d=19 and 104,880 at d=23.  Over
#: six d=23 sessions 2**17 runs 2.5x faster than no memo, with ru_maxrss 54.5 -> 65.5
#: MB; 2**16 thrashes (no hit, no gain) and 2**18 gains 6% more for 12 MB more
HADAMARD_GATE_MEMO_TERMS = 1 << 17


@lru_cache(maxsize=HADAMARD_GROUP_CACHE_SIZE)
def _hadamard_group(dim: int, conjugate: bool, members: tuple) -> tuple[tuple[int, CycloElem], ...]:
    """The nonzero (t, amplitude) outputs of one group of the generalized Hadamard.

    members holds the group's (j, coeffs) pairs: the transformed wire's
    value and the amplitude's canonical coefficients.  Each j adds c_i
    into row[(i + jt) % d] of output t (row[(i - jt) % d] when
    conjugate); each finished row becomes one CycloElem, and the zero
    ones are dropped.  The result depends on the arguments alone, and
    the elements are immutable, so states share them.
    """
    rows = [[0] * dim for _ in range(dim)]
    for j, coeffs in members:
        step = (-j if conjugate else j) % dim
        for i, c in enumerate(coeffs):
            if not c:
                continue
            for row in rows:
                row[i] += c
                i = (i + step) % dim
    outputs = ((t, CycloElem(dim, row)) for t, row in enumerate(rows))
    return tuple((t, amp) for t, amp in outputs if any(amp.coeffs))


class _GateMemo:
    """Whole-gate results in a plain dict, bounded by the terms they hold.

    An entry's size is its key's term count plus its value's.  Storing an
    entry that would take terms past budget first empties the memo; an
    entry larger than budget on its own is not stored.  hits and misses
    count the lookups since the last clear().
    """

    __slots__ = ("budget", "entries", "terms", "hits", "misses")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.entries: dict = {}
        self.terms = 0
        self.hits = self.misses = 0

    def get(self, key):
        """The value stored under key, or None."""
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value, size: int) -> None:
        """Store value under key, an absent key, as an entry of size terms."""
        if size > self.budget:
            return
        if self.terms + size > self.budget:
            self.entries.clear()
            self.terms = 0
        self.entries[key] = value
        self.terms += size

    def clear(self) -> None:
        self.entries.clear()
        self.terms = 0
        self.hits = self.misses = 0


_hadamard_gate_memo = _GateMemo(HADAMARD_GATE_MEMO_TERMS)
_coeffs = operator.attrgetter("coeffs")


class PureState:
    """Sparse superposition over labelled d-level wires.

    terms maps basis tuples (one dit per wire, in wire order) to nonzero
    CycloElem amplitudes; the vector is d**(-scale_exp/2) * sum(amp |basis>).
    Normalized states satisfy norm_squared() == 1;
    the constructor does not enforce this so that intermediate values of
    unitary rewrites can exist.
    """

    __slots__ = ("dim", "wires", "scale_exp", "terms")

    def __init__(self, dim: int, wires, scale_exp: int, terms) -> None:
        dim = check_integer(dim, "dim")
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, got {dim}")
        wires = tuple(wires)
        if len(set(wires)) != len(wires):
            raise ValueError(f"duplicate wire labels in {wires}")
        if not wires:
            raise ValueError("a state needs at least one wire")
        if isinstance(scale_exp, bool) or not isinstance(scale_exp, int) or scale_exp < 0:
            raise ValueError(f"scale_exp must be a non-negative integer, got {scale_exp}")
        clean: dict[BasisTuple, CycloElem] = {}
        for basis, amp in dict(terms).items():
            basis = tuple(basis)
            # plain-int tuples, the common case, need no per-item check
            if not {int}.issuperset(map(type, basis)):
                basis = tuple(check_integer(v, "basis value") for v in basis)
            if len(basis) != len(wires):
                raise ValueError(f"basis tuple {basis} does not match wires {wires}")
            if any(not 0 <= v < dim for v in basis):
                raise ValueError(f"basis values out of range for dimension {dim}: {basis}")
            if not isinstance(amp, CycloElem):
                raise TypeError(f"amplitude must be CycloElem, got {type(amp).__name__}")
            if amp.dim != dim:
                raise ValueError(f"amplitude dimension {amp.dim} does not match state dimension {dim}")
            if any(amp.coeffs):
                clean[basis] = amp
        self.dim = dim
        self.wires = wires
        self.scale_exp = scale_exp
        self.terms = clean

    @classmethod
    def _derived(cls, dim: int, wires: tuple, scale_exp: int, terms: dict) -> PureState:
        # internal fast path, like CycloElem._raw: the caller built terms
        # fresh from a valid state, so every basis tuple fits wires and dim,
        # every amplitude is a nonzero CycloElem of dimension dim, and the
        # state takes ownership of the dict
        state = object.__new__(cls)
        state.dim = dim
        state.wires = wires
        state.scale_exp = scale_exp
        state.terms = terms
        return state

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
        return PureState._derived(
            self.dim, self.wires + other.wires, self.scale_exp + other.scale_exp, terms
        )

    def reorder_wires(self, order) -> PureState:
        order = tuple(order)
        if sorted(order) != sorted(self.wires):
            raise ValueError(f"{order} is not a permutation of {self.wires}")
        perm = tuple(self.wires.index(w) for w in order)
        terms = {tuple(b[i] for i in perm): amp for b, amp in self.terms.items()}
        return PureState._derived(self.dim, order, self.scale_exp, terms)

    def insert_wire(self, wire: Wire, value: int, position: int) -> PureState:
        """Adjoin wire in basis state |value> at index position of the wires.

        Only the basis tuples change; no amplitude is touched.  value must
        be an integer and not a bool; a numpy integer is stored as int.
        """
        if wire in self.wires:
            raise ValueError(f"wire {wire!r} already present in state wires {self.wires}")
        value = check_integer(value, "value")
        if not 0 <= value < self.dim:
            raise ValueError(f"value {value} out of range for dimension {self.dim}")
        if not 0 <= position <= len(self.wires):
            raise ValueError(f"position {position} outside 0..{len(self.wires)}")
        wires = self.wires[:position] + (wire,) + self.wires[position:]
        terms = {b[:position] + (value,) + b[position:]: a for b, a in self.terms.items()}
        return PureState._derived(self.dim, wires, self.scale_exp, terms)

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
        return PureState._derived(dim, self.wires, self.scale_exp, terms)

    def apply_hadamard(self, wire: Wire, conjugate: bool = False) -> PureState:
        """Generalized Hadamard on one wire: |j> -> d**-1/2 sum_t zeta**(jt) |t>.

        conjugate=True applies the entry-wise conjugate transform (phases
        zeta**(-jt)).  The whole gate is memoized on (d, wire index,
        conjugate, scale_exp, the basis tuples in term order, their
        coefficient tuples).  Coefficient tuples are canonical and basis
        values plain ints, so equal keys are equal input vectors in the
        same term order, and a hit returns the stored output's scale_exp
        and a copy of its terms under this state's wires, with no grouping
        and no fold.  The memo keeps its own dict, so no state shares it,
        and holds at most HADAMARD_GATE_MEMO_TERMS terms, input plus output;
        a result that would take it past that empties it first (the module
        docstring says why no eviction order pays).

        On a miss the terms are grouped by their other wires; each group's
        nonzero outputs come from _hadamard_group, memoized on (d,
        conjugate, members) with members the group's (j, coeffs) pairs in
        term order.  Equal keys are equal input rows, so a hit returns
        exactly the elements a fresh computation would; that cache keeps
        at most HADAMARD_GROUP_CACHE_SIZE keys.  Each output goes under
        prefix + (t,) + suffix.  The global exponent rises by one; then,
        while it is at least 2 and every reduced coefficient is an int
        divisible by d, the amplitudes are divided by d and the exponent
        drops by 2.
        """
        idx = self.wire_index(wire)
        dim = self.dim
        bases = tuple(self.terms)
        rows = tuple(map(_coeffs, self.terms.values()))
        key = (dim, idx, conjugate, self.scale_exp, bases, rows)
        known = _hadamard_gate_memo.get(key)
        if known is not None:
            scale_exp, terms = known
            return PureState._derived(dim, self.wires, scale_exp, dict(terms))
        groups: dict[tuple[BasisTuple, BasisTuple], list] = {}
        for basis, coeffs in zip(bases, rows):
            groups.setdefault((basis[:idx], basis[idx + 1:]), []).append((basis[idx], coeffs))
        terms: dict[BasisTuple, CycloElem] = {}
        for (prefix, suffix), members in groups.items():
            for t, amp in _hadamard_group(dim, conjugate, tuple(members)):
                terms[prefix + (t,) + suffix] = amp
        scale_exp = self.scale_exp + 1
        # a coefficient that d divides is an int: a non-integer Fraction never is
        while scale_exp >= 2 and terms and not any(
            c % dim for amp in terms.values() for c in amp.coeffs
        ):
            terms = {b: CycloElem(dim, [c // dim for c in amp.coeffs]) for b, amp in terms.items()}
            scale_exp -= 2
        _hadamard_gate_memo.put(key, (scale_exp, terms), len(bases) + len(terms))
        return PureState._derived(dim, self.wires, scale_exp, dict(terms))

    # -- measurement ---------------------------------------------------------

    def _weight(self, terms: dict) -> Fraction:
        """Unnormalized Born weight of terms, a dict of this state's terms.

        Each term adds its c_i * c_j into one plain row at index (i - j) % d,
        and the row becomes one CycloElem; rational_value raises ValueError
        when that weight is not rational.
        """
        dim = self.dim
        row = [0] * dim
        for amp in terms.values():
            # |sum_i c_i zeta**i|**2 = sum_{i,j} c_i c_j zeta**(i-j)
            nonzero = [(i, c) for i, c in enumerate(amp.coeffs) if c]
            for i, a in nonzero:
                for j, b in nonzero:
                    row[(i - j) % dim] += a * b
        return Fraction(1, dim**self.scale_exp) * rational_value(CycloElem(dim, row))

    def _outcomes(self, idx: int) -> tuple[list, Fraction]:
        """(value, its terms, their Born weight) per value of wire idx, in value order, and the total.

        One pass splits the terms by value; each branch is weighed once.
        """
        split: dict[int, dict] = {}
        for basis, amp in self.terms.items():
            split.setdefault(basis[idx], {})[basis] = amp
        if not split:
            raise ValueError("cannot measure a zero state")
        outcomes = [(v, split[v], self._weight(split[v])) for v in sorted(split)]
        return outcomes, sum(w for _, _, w in outcomes)

    def measurement_distribution(self, wire: Wire) -> dict[int, Fraction]:
        """Exact Born probabilities for a computational measurement of wire."""
        outcomes, total = self._outcomes(self.wire_index(wire))
        return {v: w / total for v, _, w in outcomes}

    def branches(self, wire: Wire) -> list[tuple[int, PureState, Fraction]]:
        """Every (outcome, collapsed renormalized state, exact probability), in outcome order."""
        outcomes, total = self._outcomes(self.wire_index(wire))
        return [(v, self._collapse(branch, w), w / total) for v, branch, w in outcomes]

    def project(self, wire: Wire, outcome: int) -> PureState:
        """Collapse onto one outcome and renormalize; only that branch is weighed."""
        idx = self.wire_index(wire)
        if not 0 <= outcome < self.dim:
            raise ValueError(f"outcome {outcome} out of range for dimension {self.dim}")
        branch = {b: a for b, a in self.terms.items() if b[idx] == outcome}
        if not branch:
            raise ValueError(f"outcome {outcome} has zero amplitude on wire {wire!r}")
        return self._collapse(branch, self._weight(branch))

    def _collapse(self, branch: dict, weight: Fraction) -> PureState:
        """The branch terms renormalized by their positive Born weight d**j.

        The amplitudes stay and scale_exp gains j.  Any other weight, or a
        j that takes scale_exp below 0, raises ValueError.
        """
        dim, scale_exp = self.dim, self.scale_exp
        num, den = weight.numerator, weight.denominator
        while num and num % dim == 0:  # a zero weight is refused below
            num //= dim
            scale_exp += 1
        while den % dim == 0:
            den //= dim
            scale_exp -= 1
        if num != 1 or den != 1 or scale_exp < 0:
            raise ValueError(f"branch weight {weight} is no power of d={dim} that scale_exp can absorb")
        return PureState._derived(dim, self.wires, scale_exp, branch)

    def measure_computational(self, wire: Wire, rng) -> tuple[int, PureState, Fraction]:
        """Sample an outcome with exact Born weights; rng supplies one uniform draw.

        Returns the branch of branches(wire) that the draw picks, and
        collapses only that branch.
        """
        outcomes, total = self._outcomes(self.wire_index(wire))
        u = Fraction(rng.random()) * total  # u < total: the loop always breaks
        for outcome, branch, w in outcomes:
            if u < w:
                break
            u -= w
        return outcome, self._collapse(branch, w), w / total

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
        return PureState._derived(self.dim, wires, self.scale_exp, terms)

    # -- aggregates ----------------------------------------------------------

    def norm_squared(self) -> Fraction:
        return self._weight(self.terms)

    def reduced_density(self, wire: Wire) -> DensityMatrixSlice:
        """Trace out everything but one wire."""
        idx = self.wire_index(wire)
        dim = self.dim
        groups: dict[BasisTuple, list[tuple[int, CycloElem]]] = {}
        for basis, amp in self.terms.items():
            rest = basis[:idx] + basis[idx + 1:]
            groups.setdefault(rest, []).append((basis[idx], amp))
        weight = Fraction(1, dim**self.scale_exp)
        rho = [[CycloElem.zero(dim) for _ in range(dim)] for _ in range(dim)]
        for group in groups.values():
            for i, a1 in group:
                for j, a2 in group:
                    rho[i][j] = rho[i][j] + a1 * a2.conj()
        entries = tuple(tuple(e * weight for e in row) for row in rho)
        return DensityMatrixSlice(dim, entries)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "wires": list(self.wires),
            "scale_exp": self.scale_exp,
            "terms": [
                {
                    "basis": list(basis),
                    "coeffs": [str(c) for c in self.terms[basis].coeffs],
                }
                for basis in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> PureState:
        """The state to_json_dict wrote; malformed input raises ValueError naming the field."""
        _json_known_fields(data, ("dim", "wires", "scale_exp", "terms"))
        dim = _json_field(data, "dim", int)
        terms = {}
        for entry in _json_field(data, "terms", list):
            _json_known_fields(entry, ("basis", "coeffs"))
            basis = tuple(_json_field(entry, "basis", list, int))
            if basis in terms:
                raise ValueError(f"state JSON lists basis {list(basis)} twice")
            coeffs = _json_field(entry, "coeffs", list)
            if len(coeffs) != dim:
                raise ValueError(f"state JSON field 'coeffs' has {len(coeffs)} entries, not {dim}")
            values = [_json_fraction(c, "coeffs") for c in coeffs]
            amp = CycloElem(dim, values)
            # to_json_dict writes only nonzero canonical amplitudes; any other
            # vector the constructor would reduce, or drop as zero, unasked
            if amp.coeffs != tuple(values) or not any(values):
                raise ValueError(
                    f"state JSON field 'coeffs' holds {coeffs}, which is no nonzero "
                    f"amplitude reduced modulo Phi_{dim}"
                )
            terms[basis] = amp
        wires = _json_field(data, "wires", list, str)
        # __init__ checks scale_exp's type along with its range
        return cls(dim, wires, _json_field(data, "scale_exp"), terms)

    def __repr__(self) -> str:
        return (
            f"PureState(dim={self.dim}, wires={self.wires}, scale_exp={self.scale_exp}, "
            f"terms={len(self.terms)})"
        )


def check_integer(value, name: str) -> int:
    """value as an int; a bool, a float or any other non-integer raises ValueError naming name.

    Basis values go through it too: True == 1 with equal hashes, so a bool
    would share a Hadamard memo key with 1 and be written to JSON as true.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # numpy integers become int
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _json_known_fields(data, known: tuple[str, ...]) -> None:
    """Reject keys of data outside known, so no field is silently dropped."""
    unknown = sorted(set(data).difference(known)) if isinstance(data, dict) else []
    if unknown:
        raise ValueError(f"state JSON has unknown field(s) {', '.join(map(repr, unknown))}")


def _json_field(data, name: str, kind: type | None = None, item: type | None = None):
    """data[name], of exact type kind (no bool for int) and with items of type item."""
    if not isinstance(data, dict) or name not in data:
        raise ValueError(f"state JSON has no field {name!r}")
    value = data[name]
    if (kind is not None and type(value) is not kind) or (
        item is not None and any(type(v) is not item for v in value)
    ):
        raise ValueError(f"state JSON field {name!r} has the wrong type: {value!r}")
    return value


def _json_fraction(text, name: str) -> int | Fraction:
    """The int or Fraction whose str() is text, the only form to_json_dict writes.

    Fraction() alone also reads "1_0", "0.5", " 1", "+1", "2/4" and
    non-ASCII digits; a string that does not round-trip is refused.  A
    plain integer comes back as an int, so integer amplitudes take the
    CycloElem constructor's all-int path.
    """
    try:
        if type(text) is str:
            value = Fraction(text) if "/" in text else int(text)
            if str(value) == text:
                return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"state JSON field {name!r} holds {text!r}, which is no fraction string")


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrixSlice):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"DensityMatrixSlice(dim={self.dim})"


# -- canonical state constructors ---------------------------------------------


def bell_state(dim: int, wires: tuple[Wire, Wire] = (ALICE_WIRE, BOB_WIRE)) -> PureState:
    """The maximally entangled pair sum_j |j,j> / sqrt(d)."""
    one = CycloElem.one(check_integer(dim, "dim"))
    return PureState(dim, wires, 1, {(j, j): one for j in range(dim)})


def basis_state(dim: int, wire_values) -> PureState:
    """A computational product state from (wire, value) pairs."""
    pairs = list(wire_values)
    wires = tuple(w for w, _ in pairs)
    values = tuple(v for _, v in pairs)
    return PureState(dim, wires, 0, {values: CycloElem.one(check_integer(dim, "dim"))})


# -- comparison ----------------------------------------------------------------


def first_difference(a: PureState, b: PureState) -> str | None:
    """None when a and b are the same vector, else the first basis state where they differ.

    The line names the basis state by wire label, in a's wire order, and
    gives both exact amplitudes with their global factors.  The factors
    are aligned by writing their ratio as a ring element; when the field
    holds no such element, the states differ on every basis state where
    either is nonzero.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if set(a.wires) != set(b.wires):
        raise ValueError(f"wire sets differ: {a.wires} vs {b.wires}")
    perm = tuple(b.wires.index(w) for w in a.wires)
    b_terms = {tuple(basis[i] for i in perm): amp for basis, amp in b.terms.items()}
    ratio = sqrt_rational(a.dim, Fraction(a.dim) ** (a.scale_exp - b.scale_exp))
    zero = CycloElem.zero(a.dim)
    differing = [
        basis
        for basis in a.terms.keys() | b_terms.keys()
        if ratio is None
        or a.terms.get(basis, zero) != b_terms.get(basis, zero) * ratio
    ]
    if not differing:
        return None
    basis = min(differing)
    labels = ", ".join(f"{w}={v}" for w, v in zip(a.wires, basis))
    return (
        f"basis ({labels}): ({a.terms.get(basis, zero)}) * {a.dim}^(-{a.scale_exp}/2)"
        f" != ({b_terms.get(basis, zero)}) * {b.dim}^(-{b.scale_exp}/2)"
    )


def state_equals(a: PureState, b: PureState) -> bool:
    """Decide exactly whether two states are the same vector."""
    return first_difference(a, b) is None

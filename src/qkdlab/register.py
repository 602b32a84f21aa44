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
sessions), so the op memo keeps each group's outputs by that key.  A hit
is exact: equal keys are equal input rows (== and hash treat an int and
its equal Fraction alike, and the CycloElem constructor brings both to
one canonical tuple), and the stored CycloElems are immutable, so states
share them.

A Fourier gate on a state the protocol has seen before is one dict
lookup.  The protocol's states recur: honest rounds leave the Bell state
fixed, and the attack's ancilla mirrors the basis change, whose Fourier
gate has order 4, so from round 2 on the shared state returns to the
same few vectors, in this session and in the next.  intern keeps one
canonical state per content (dim, wires, scale_exp, basis tuples in
term order, coefficient tuples); bell_state, basis_state and
protocol._round, for the next shared state, go through it, so a
recurring vector is one object, hashed once per round.  An interned
state is stored: its _ops table maps (wire index, conjugate) to the
gate's result, which is stored in turn, so a round's chain of
basis-change gates is found by identity, with no key to hash and no
copy.  conjugate is read as a bool before the lookup, and a state's own
wires are part of what it is, so a hit returns exactly the state a
fresh computation would give, in the same term order.  The other ops
(the controlled shift, insert_wire, drop_wire, measurement) cost about
one pass over the terms and are computed afresh: the memo does not keep
their results.  States built by the public constructor, read by
from_json_dict, or made by tensor or reorder_wires are never stored.

The memo has one bound and one rule for it.  It counts the terms of its
stored states and group outputs, and when one more entry would take it
past MEMO_TERMS, a constant, it empties every table together and then
stores the entry, so no entry outlives the state it names; an entry
larger than the whole bound is never stored.  A group lookup can empty
it in the middle of a gate; the gate then keeps its result out of its
input's dropped table.  States share objects across sessions, so terms
is read-only by contract: nothing outside the constructors writes to it.

Born weights (|amplitude|**2 summed over some terms) are in the state's
stored units, without the factor d**-scale_exp: every probability is a
ratio of weights, so the factor cancels.  A measurement splits the state
once: _outcomes groups the terms by the wire's value in one pass, and
measurement_distribution, branches and the sampling measurement all read
it; the sampler draws one outcome and collapses the terms it already
holds for it.  How the branches are weighed is read from the amplitudes.
Every +-zeta**k has |amplitude|**2 = 1 exactly, so when every amplitude
of the state is one of them (ring.signed_root_coeffs, checked once per
measurement), a branch weighs as many as the terms it holds: _outcomes
counts terms, with no ring arithmetic, and the sampler compares plain
ints.  This needs no premise about how the state was made; the states a
protocol round measures are all of this kind.  Any other state weighs
each branch with _weight, which works on plain rows like the Hadamard:
each term whose amplitude is sum_i c_i zeta**i adds c_i * c_j into
row[(i - j) % d], and the row becomes one CycloElem, whose constructor
reduces it; a weight that is not rational raises ValueError naming it
with the factor applied.  norm_squared and project weigh rows on every
state, and only their own terms.  A collapse renormalizes by the
branch's stored weight d**j: scale_exp becomes j when j >= 0, and when
j < 0 the amplitudes are multiplied by d**ceil(-j/2) and scale_exp
becomes 0 or 1, so the result is the same however the vector is stored.
Any other weight raises ValueError naming it exactly, with the factor
applied.  Every Born weight on the protocol's states is such a power,
so no protocol path reaches that error.  norm_squared, reduced_density
and first_difference apply the factor to what they return.

insert_wire adjoins a wire in a basis state by rebuilding the basis
tuples, with no ring arithmetic.  The public constructor checks the
whole state at once: _terms_fit makes one pass over the state per check
(key types, basis value types, tuple lengths, value range, amplitude
types and dimensions).  Only when one of them fails does _checked_terms
walk the terms in order, to name the first bad one and turn numpy basis
values into int.  Gates, collapses, insert_wire and drop_wire build
their terms from a state that is already valid, so they go through the
unchecked PureState._derived instead.

JSON repeats few amplitudes: a protocol state holds one or a few
distinct coefficient tuples over up to d**3 terms.  to_json_dict formats
each distinct tuple once a call, and gives each term a fresh list of the
strings.  from_json_dict parses and canonical-checks each distinct list
of coefficient strings once a call, in a dict that lives for that call
only, so no table outlives a document or grows with the dim it names.

Wires are plain string labels.  The four canonical protocol wires are
Alice's and Bob's halves of the shared pair, the travelling key qudit,
and the eavesdropper's ancilla.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain

from .ring import CycloElem, rational_value, signed_root_coeffs, sqrt_rational

Wire = str
BasisTuple = tuple[int, ...]

ALICE_WIRE: Wire = "a"
BOB_WIRE: Wire = "b"
TRANSIT_WIRE: Wire = "k"
ANCILLA_WIRE: Wire = "e"

#: Terms the op memo holds over its stored states and Hadamard groups.  A 13-round
#: attacked session keeps 2,611 at d=7, 78,499 at d=23, 155,005 at d=29 and 188,635 at
#: d=31, so 2**17 would empty it mid-session from d=29 on; 2,000 d=7 sessions with
#: random keys keep 7,329
MEMO_TERMS = 1 << 18


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


class _OpMemo:
    """The op tables of stored states, the interned states and the Hadamard groups.

    A stored state's _ops maps an op key to the stored result, and groups
    maps (dim, conjugate, members) to _hadamard_group's outputs.  terms
    counts the terms of every stored state and group output; when an
    entry would take it past budget, every table is emptied together
    first, so no entry outlives the state it names.  overflows counts
    those emptyings.
    """

    __slots__ = ("budget", "states", "interned", "groups", "terms", "overflows")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.states: list[PureState] = []
        self.interned: dict[tuple, PureState] = {}
        self.groups: dict[tuple, tuple] = {}
        self.terms = 0
        self.overflows = 0

    def _make_room(self, size: int) -> bool:
        """Count an entry of size terms, emptying every table first when it does not fit.

        An entry larger than the whole budget empties nothing and is not
        counted: False, it is not to be stored.
        """
        if size > self.budget:
            return False
        if self.terms + size > self.budget:
            self.overflows += 1
            self.clear()
        self.terms += size
        return True

    def admit(self, state: PureState) -> bool:
        """Store state, an unstored one, unless it is larger than the whole budget."""
        if not self._make_room(len(state.terms)):
            return False
        state._ops = {}
        self.states.append(state)
        return True

    def add_group(self, key: tuple) -> tuple[tuple[int, CycloElem], ...]:
        """_hadamard_group's outputs for key, (dim, conjugate, members), stored in groups."""
        outputs = _hadamard_group(*key)
        if self._make_room(len(outputs)):
            self.groups[key] = outputs
        return outputs

    def clear(self) -> None:
        for state in self.states:
            state._ops = None
        self.states.clear()
        self.interned.clear()
        self.groups.clear()
        self.terms = 0


_memo = _OpMemo(MEMO_TERMS)
_coeffs = operator.attrgetter("coeffs")
_dim = operator.attrgetter("dim")
_STATE_FIELDS = frozenset(("dim", "wires", "scale_exp", "terms"))
_TERM_FIELDS = frozenset(("basis", "coeffs"))


class PureState:
    """Sparse superposition over labelled d-level wires.

    terms maps basis tuples (one dit per wire, in wire order) to nonzero
    CycloElem amplitudes; the vector is d**(-scale_exp/2) * sum(amp |basis>).
    terms is read-only: transcripts share stored states, and the op memo
    keeps them.
    Normalized states satisfy norm_squared() == 1;
    the constructor does not enforce this so that intermediate values of
    unitary rewrites can exist.

    How a measurement weighs the branches follows from the amplitudes
    alone: see _outcomes.
    """

    __slots__ = ("dim", "wires", "scale_exp", "terms", "_ops")

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
        clean = dict(terms)
        if not _terms_fit(dim, len(wires), clean):
            clean = _checked_terms(dim, wires, clean)
        if not all(map(any, map(_coeffs, clean.values()))):
            clean = {basis: amp for basis, amp in clean.items() if any(amp.coeffs)}
        self.dim = dim
        self.wires = wires
        self.scale_exp = scale_exp
        self.terms = clean
        self._ops = None

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
        state._ops = None
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

        Only the basis tuples change; no amplitude is touched.  value and
        position must be integers and not bools; a numpy integer becomes int.
        """
        if wire in self.wires:
            raise ValueError(f"wire {wire!r} already present in state wires {self.wires}")
        value = check_integer(value, "value")
        if not 0 <= value < self.dim:
            raise ValueError(f"value {value} out of range for dimension {self.dim}")
        position = check_integer(position, "position")
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

        conjugate=True (any true value) applies the entry-wise conjugate
        transform (phases zeta**(-jt)).  A stored state returns the gate it
        stored under (wire index, conjugate), and stores a new one; the
        module docstring describes the op memo.

        Otherwise the terms are grouped by their other wires; each group's
        nonzero outputs come from the op memo, kept under (d, conjugate,
        members) with members the group's (j, coeffs) pairs in term order.
        Equal keys are equal input rows, so a hit returns exactly the
        elements a fresh computation would.  Each output goes under
        prefix + (t,) + suffix.  The global exponent rises by one; then,
        while it is at least 2 and every reduced coefficient is an int
        divisible by d, the amplitudes are divided by d and the exponent
        drops by 2.
        """
        idx = self.wire_index(wire)
        # any true value is the conjugate gate, as it always was
        conjugate = bool(conjugate)
        key = (idx, conjugate)
        ops = self._ops
        known = None if ops is None else ops.get(key)
        if known is not None:
            return known
        dim = self.dim
        groups: dict[tuple[BasisTuple, BasisTuple], list] = {}
        for basis, amp in self.terms.items():
            groups.setdefault((basis[:idx], basis[idx + 1:]), []).append((basis[idx], amp.coeffs))
        stored = _memo.groups.get
        terms: dict[BasisTuple, CycloElem] = {}
        for (prefix, suffix), members in groups.items():
            group = (dim, conjugate, tuple(members))
            for t, amp in stored(group) or _memo.add_group(group):
                terms[prefix + (t,) + suffix] = amp
        scale_exp = self.scale_exp + 1
        # a coefficient that d divides is an int: a non-integer Fraction never is
        while scale_exp >= 2 and terms and not any(
            c % dim for amp in terms.values() for c in amp.coeffs
        ):
            terms = {b: CycloElem(dim, [c // dim for c in amp.coeffs]) for b, amp in terms.items()}
            scale_exp -= 2
        result = PureState._derived(dim, self.wires, scale_exp, terms)
        # a group lookup or admit may have emptied the memo, and this state's table with it
        if ops is not None and _memo.admit(result) and self._ops is ops:
            ops[key] = result
        return result

    # -- measurement ---------------------------------------------------------

    def _weight(self, terms: dict) -> Fraction:
        """Born weight of terms, a dict of this state's terms, in stored units: no d**-scale_exp.

        Each term adds its c_i * c_j into one plain row at index (i - j) % d,
        and the row becomes one CycloElem.  A weight that is not rational
        raises ValueError naming it with the factor d**-scale_exp applied,
        so the message is the same however the vector is stored.
        """
        dim = self.dim
        row = [0] * dim
        for amp in terms.values():
            # |sum_i c_i zeta**i|**2 = sum_{i,j} c_i c_j zeta**(i-j)
            nonzero = [(i, c) for i, c in enumerate(amp.coeffs) if c]
            for i, a in nonzero:
                for j, b in nonzero:
                    row[(i - j) % dim] += a * b
        weight = CycloElem(dim, row)
        try:
            return rational_value(weight)
        except ValueError:
            shown = weight * Fraction(1, dim**self.scale_exp)
            raise ValueError(f"element is not rational: {shown!r}") from None

    def _outcomes(self, idx: int) -> tuple[list, int | Fraction]:
        """([(value, its terms, their Born weight)] in value order, total weight) for wire idx.

        One pass splits the terms by value; weights are in stored units,
        and a branch's probability is its weight / total.  When every
        amplitude is some +-zeta**k, each has |amplitude|**2 = 1, so a
        branch weighs its term count, an int, with no ring arithmetic.
        Otherwise each branch is weighed once with _weight.
        """
        split: dict[int, dict] = {}
        for basis, amp in self.terms.items():
            split.setdefault(basis[idx], {})[basis] = amp
        if not split:
            raise ValueError("cannot measure a zero state")
        if signed_root_coeffs(self.dim).issuperset(map(_coeffs, self.terms.values())):
            return [(v, split[v], len(split[v])) for v in sorted(split)], len(self.terms)
        outcomes = [(v, split[v], self._weight(split[v])) for v in sorted(split)]
        return outcomes, sum(w for _, _, w in outcomes)

    def measurement_distribution(self, wire: Wire) -> dict[int, Fraction]:
        """Exact Born probabilities for a computational measurement of wire."""
        outcomes, total = self._outcomes(self.wire_index(wire))
        return {v: Fraction(weight, total) for v, _, weight in outcomes}

    def branches(self, wire: Wire) -> list[tuple[int, PureState, Fraction]]:
        """Every (outcome, collapsed renormalized state, exact probability), in outcome order."""
        outcomes, total = self._outcomes(self.wire_index(wire))
        return [
            (v, self._collapse(branch, weight), Fraction(weight, total))
            for v, branch, weight in outcomes
        ]

    def project(self, wire: Wire, outcome: int) -> PureState:
        """Collapse onto one outcome and renormalize; only that branch is weighed."""
        idx = self.wire_index(wire)
        outcome = check_integer(outcome, "outcome")
        if not 0 <= outcome < self.dim:
            raise ValueError(f"outcome {outcome} out of range for dimension {self.dim}")
        branch = {b: a for b, a in self.terms.items() if b[idx] == outcome}
        if not branch:
            raise ValueError(f"outcome {outcome} has zero amplitude on wire {wire!r}")
        return self._collapse(branch, self._weight(branch))

    def _collapse(self, branch: dict, weight: int | Fraction) -> PureState:
        """The branch terms renormalized by their Born weight in stored units, a power d**j.

        For j >= 0 the amplitudes stay and scale_exp becomes j.  For j < 0
        they are multiplied by d**m, m = ceil(-j/2), and scale_exp becomes
        j + 2m, so the result depends only on the vector, not on how it is
        stored.  Any other weight raises ValueError naming it with the
        factor d**-scale_exp applied.
        """
        dim, num, den, j = self.dim, weight.numerator, weight.denominator, 0
        while num and num % dim == 0:  # a zero weight is refused below
            num //= dim
            j += 1
        while den % dim == 0:
            den //= dim
            j -= 1
        if num != 1 or den != 1:
            shown = Fraction(weight, dim**self.scale_exp)
            raise ValueError(f"branch weight {shown} is no power of d={dim} that scale_exp can absorb")
        if j < 0:
            m = (1 - j) // 2
            branch = {b: a * dim**m for b, a in branch.items()}
            j += 2 * m
        return PureState._derived(dim, self.wires, j, branch)

    def measure_computational(self, wire: Wire, rng) -> tuple[int, PureState, Fraction]:
        """Sample an outcome with exact Born weights; rng supplies one uniform draw.

        Returns the branch of branches(wire) that the draw picks, and
        collapses only that branch.  The draw is exactly num/den, and the
        pick is the first branch whose running weight exceeds num/den times
        the total weight, compared as num * total < running * den: plain
        ints when _outcomes counts terms.
        """
        outcomes, total = self._outcomes(self.wire_index(wire))
        num, den = rng.random().as_integer_ratio()
        bound, running = num * total, 0  # the draw is below 1: the loop always breaks
        for outcome, branch, weight in outcomes:
            running += weight
            if bound < running * den:
                break
        return outcome, self._collapse(branch, weight), Fraction(weight, total)

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
        return self._weight(self.terms) / self.dim**self.scale_exp

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
        """The state as JSON-ready data; each distinct coefficient tuple is formatted once a call."""
        texts: dict[tuple, tuple[str, ...]] = {}
        terms = []
        for basis, amp in sorted(self.terms.items()):
            text = texts.get(amp.coeffs)
            if text is None:
                text = texts[amp.coeffs] = tuple(map(str, amp.coeffs))
            # a fresh list per term, so editing one term's list changes no other
            terms.append({"basis": list(basis), "coeffs": list(text)})
        return {
            "dim": self.dim,
            "wires": list(self.wires),
            "scale_exp": self.scale_exp,
            "terms": terms,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> PureState:
        """The state to_json_dict wrote; malformed input raises ValueError naming the field.

        Each distinct list of coefficient strings is parsed and checked
        once a call: amps maps it, as a tuple of plain strs, to its
        amplitude, and only a list that passed both is stored.
        """
        _json_known_fields(data, _STATE_FIELDS)
        dim = _json_field(data, "dim", int)
        terms = {}
        amps: dict[tuple[str, ...], CycloElem] = {}
        for entry in _json_field(data, "terms", list):
            _json_known_fields(entry, _TERM_FIELDS)
            basis = tuple(_json_field(entry, "basis", list, int))
            if basis in terms:
                raise ValueError(f"state JSON lists basis {list(basis)} twice")
            coeffs = _json_field(entry, "coeffs", list)
            if len(coeffs) != dim:
                raise ValueError(f"state JSON field 'coeffs' has {len(coeffs)} entries, not {dim}")
            key = tuple(coeffs)
            # a str subclass can equal a stored str, but _json_fraction refuses it
            amp = amps.get(key) if {str}.issuperset(map(type, key)) else None
            if amp is None:
                amp = amps[key] = _json_amplitude(dim, coeffs)
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
    would share an intern key with 1 and be written to JSON as true.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # numpy integers become int
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _terms_fit(dim: int, width: int, terms: dict) -> bool:
    """Whether every term passes the constructor's checks, each check one pass over the state.

    Every basis key is a tuple of width plain ints (type int, so no bool
    and no numpy integer) in range(dim), and every amplitude is a
    CycloElem (not a subclass) of dimension dim.
    """
    bases, amps = terms.keys(), terms.values()
    if not ({tuple}.issuperset(map(type, bases)) and {width}.issuperset(map(len, bases))):
        return False
    values = list(chain.from_iterable(bases))
    return (
        {int}.issuperset(map(type, values))
        and (not values or (min(values) >= 0 and max(values) < dim))
        and {CycloElem}.issuperset(map(type, amps))
        and {dim}.issuperset(map(_dim, amps))
    )


def _checked_terms(dim: int, wires: tuple, terms: dict) -> dict:
    """terms with basis values as int; the first bad term, in term order, raises naming it."""
    checked = {}
    for basis, amp in terms.items():
        basis = tuple(check_integer(v, "basis value") for v in basis)
        if len(basis) != len(wires):
            raise ValueError(f"basis tuple {basis} does not match wires {wires}")
        if any(not 0 <= v < dim for v in basis):
            raise ValueError(f"basis values out of range for dimension {dim}: {basis}")
        if not isinstance(amp, CycloElem):
            raise TypeError(f"amplitude must be CycloElem, got {type(amp).__name__}")
        if amp.dim != dim:
            raise ValueError(f"amplitude dimension {amp.dim} does not match state dimension {dim}")
        checked[basis] = amp
    return checked


def _json_known_fields(data, known: frozenset) -> None:
    """Reject keys of data outside known, so no field is silently dropped.

    The unknown keys are named in repr order: JSON keys are strings, but
    a dict built in Python may mix them with ints, which do not sort
    against strings.
    """
    if not isinstance(data, dict) or data.keys() <= known:
        return
    unknown = sorted(data.keys() - known, key=repr)
    raise ValueError(f"state JSON has unknown field(s) {', '.join(map(repr, unknown))}")


def _json_field(data, name: str, kind: type | None = None, item: type | None = None):
    """data[name], of exact type kind (no bool for int) and with items of type item."""
    if isinstance(data, dict) and name in data:
        value = data[name]
        if (kind is None or type(value) is kind) and (
            item is None or {item}.issuperset(map(type, value))
        ):
            return value
        raise ValueError(f"state JSON field {name!r} has the wrong type: {value!r}")
    raise ValueError(f"state JSON has no field {name!r}")


def _json_amplitude(dim: int, coeffs: list) -> CycloElem:
    """The amplitude whose d coefficient strings to_json_dict wrote; any other list raises."""
    values = [_json_fraction(c, "coeffs") for c in coeffs]
    amp = CycloElem(dim, values)
    # to_json_dict writes only nonzero canonical amplitudes; any other
    # vector the constructor would reduce, or drop as zero, unasked
    if amp.coeffs != tuple(values) or not any(values):
        raise ValueError(
            f"state JSON field 'coeffs' holds {coeffs}, which is no nonzero "
            f"amplitude reduced modulo Phi_{dim}"
        )
    return amp


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
    return intern(PureState(dim, wires, 1, {(j, j): one for j in range(dim)}))


def basis_state(dim: int, wire_values) -> PureState:
    """A computational product state from (wire, value) pairs."""
    pairs = list(wire_values)
    wires = tuple(w for w, _ in pairs)
    values = tuple(v for _, v in pairs)
    return intern(PureState(dim, wires, 0, {values: CycloElem.one(check_integer(dim, "dim"))}))


def intern(state: PureState) -> PureState:
    """The stored state with state's content: state itself, stored, when there is none yet.

    The content is (dim, wires, scale_exp, basis tuples in term order,
    their coefficient tuples).  A state too large for the memo's bound
    comes back unstored.
    """
    terms = state.terms
    key = (
        state.dim, state.wires, state.scale_exp, tuple(terms), tuple(map(_coeffs, terms.values())),
    )
    canonical = _memo.interned.get(key)
    if canonical is None:
        if state._ops is None and not _memo.admit(state):
            return state
        _memo.interned[key] = canonical = state
    return canonical


# -- comparison ----------------------------------------------------------------


def first_difference(a: PureState, b: PureState) -> str | None:
    """None when a and b are the same vector, else the first basis state where they differ.

    The line names the basis state by wire label, in a's wire order, and
    gives both exact amplitudes with their global factors.  With equal
    scale_exp the term dicts are compared directly: amplitudes are
    canonical and nonzero, so they are equal exactly when the vectors
    are.  Otherwise the factors are aligned by writing their ratio as a
    ring element; when the field holds no such element, the states differ
    on every basis state where either is nonzero.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if set(a.wires) != set(b.wires):
        raise ValueError(f"wire sets differ: {a.wires} vs {b.wires}")
    if a is b:
        return None
    if a.wires == b.wires:
        b_terms = b.terms
    else:
        perm = tuple(b.wires.index(w) for w in a.wires)
        b_terms = {tuple(basis[i] for i in perm): amp for basis, amp in b.terms.items()}
    zero = CycloElem.zero(a.dim)
    if a.scale_exp == b.scale_exp:
        if a.terms == b_terms:
            return None
        differing = [
            basis
            for basis in a.terms.keys() | b_terms.keys()
            if a.terms.get(basis, zero) != b_terms.get(basis, zero)
        ]
    else:
        ratio = sqrt_rational(a.dim, Fraction(a.dim) ** (a.scale_exp - b.scale_exp))
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

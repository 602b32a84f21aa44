import collections
import json
import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from helpers import (
    assert_vectors_close,
    dense_controlled_shift,
    dense_hadamard,
    is_hermitian,
    philox,
    random_pure_state,
    random_ring_state,
    reference_hadamard,
    state_vector,
)
from qkdlab.adversary import GaoAttack, InterceptResend
from qkdlab.closed_forms import eavesdrop_stage_states
from qkdlab.protocol import (
    ProtocolConfig,
    announce_subsequence,
    run_session,
    transcript_to_json_dict,
)
from qkdlab.register import (
    MEMO_TERMS,
    DensityMatrixSlice,
    PureState,
    basis_state,
    bell_state,
    first_difference,
    intern,
    _OpMemo,
    state_equals,
)
from qkdlab import register, ring
from qkdlab.ring import CycloElem, rational_value, sqrt_rational, zeta_pow


def mono(dim, value, exponent=0):
    return CycloElem.from_rational(dim, value).mul_zeta(exponent)


STAGES3 = eavesdrop_stage_states(3, (1, 0, 2, 1, 2))


class FirstOutcomeRng:
    """A uniform draw of 0, so measure_computational picks the lowest outcome."""

    def random(self):
        return 0.0


class FixedDrawRng:
    """The same uniform draw every time."""

    def __init__(self, draw):
        self.draw = draw

    def random(self):
        return self.draw


def cold_bell(dim):
    """bell_state(dim)'s vector built with the public constructor, which never stores it."""
    return PureState(dim, ("a", "b"), 1, {(j, j): CycloElem.one(dim) for j in range(dim)})


def gauss_bell():
    """bell_state(5)'s vector stored as amplitude sqrt(5), the Gauss sum, with scale_exp 2.

    No amplitude is a +-zeta**k, so its measurements weigh rows.
    """
    return PureState(5, ("a", "b"), 2, {(j, j): sqrt_rational(5, 5) for j in range(5)})


def stage_states(session):
    """Every stage state of a session, and its final shared state."""
    return [s for r in session.rounds for _, s in r.stages] + [session.final_shared_state]


class TestConstruction:
    def test_bell_state_dim3(self):
        bell = bell_state(3)
        assert bell.wires == ("a", "b")
        assert bell.scale_exp == 1
        assert set(bell.terms) == {(0, 0), (1, 1), (2, 2)}
        assert all(amp == 1 for amp in bell.terms.values())

    def test_bell_state_dim2(self):
        bell = bell_state(2)
        assert set(bell.terms) == {(0, 0), (1, 1)}
        assert bell.scale_exp == 1

    def test_bell_norm(self):
        assert bell_state(5).norm_squared() == 1

    def test_bell_state_rejects_dim_one(self):
        with pytest.raises(ValueError, match=r"^dimension must be at least 2, got 1$"):
            bell_state(1)

    def test_basis_state(self):
        st = basis_state(3, [("k", 2)])
        assert st.terms == {(2,): 1} or set(st.terms) == {(2,)}
        assert st.scale_exp == 0
        assert st.norm_squared() == 1

    def test_zero_amplitudes_pruned(self):
        st = PureState(3, ("x",), 0, {(0,): CycloElem.one(3), (1,): CycloElem.zero(3)})
        assert set(st.terms) == {(0,)}

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            PureState(3, ("x",), 0, {(3,): CycloElem.one(3)})
        with pytest.raises(ValueError):
            PureState(3, ("x", "y"), 0, {(0,): CycloElem.one(3)})

    def test_rejects_bool_basis_values(self):
        # True == 1 with equal hashes, and to_json_dict would write "basis": [true]
        with pytest.raises(ValueError, match=r"^basis value must be an integer, got True$"):
            PureState(3, ("x",), 0, {(True,): CycloElem.one(3)})
        with pytest.raises(ValueError, match=r"^basis value must be an integer, got 1\.0$"):
            PureState(3, ("x",), 0, {(1.0,): CycloElem.one(3)})

    def test_numpy_basis_values_are_stored_as_int(self):
        st = PureState(3, ("x", "y"), 0, {(np.int64(1), np.uint8(2)): CycloElem.one(3)})
        assert [type(v) for v in next(iter(st.terms))] == [int, int]
        text = json.dumps(st.to_json_dict())
        assert PureState.from_json_dict(json.loads(text)).terms == st.terms

    @pytest.mark.parametrize(
        "basis, amp, error, message",
        [
            ((2, True), None, ValueError, "basis value must be an integer, got True"),
            ((2, 1.0), None, ValueError, "basis value must be an integer, got 1.0"),
            ((2, 3), None, ValueError, "basis values out of range for dimension 3: (2, 3)"),
            ((2, -1), None, ValueError, "basis values out of range for dimension 3: (2, -1)"),
            ((2,), None, ValueError, "basis tuple (2,) does not match wires ('x', 'y')"),
            (5, None, TypeError, "'int' object is not iterable"),
            ("21", None, ValueError, "basis value must be an integer, got '2'"),
            ((2, 2), CycloElem.one(2), ValueError,
             "amplitude dimension 2 does not match state dimension 3"),
            ((2, 2), 1, TypeError, "amplitude must be CycloElem, got int"),
        ],
        ids=[
            "bool-value", "float-value", "value-too-large", "negative-value", "short-tuple",
            "int-key", "str-key", "amplitude-dimension", "int-amplitude",
        ],
    )
    def test_only_the_last_term_bad_raises_its_message(self, basis, amp, error, message):
        # every term before the last is valid, so a check of the whole state
        # must still reach the last one and name it
        terms = {(j, (j + 1) % 3): zeta_pow(3, j) for j in range(3)}
        terms[basis] = CycloElem.one(3) if amp is None else amp
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PureState(3, ("x", "y"), 0, terms)

    def test_numpy_values_in_the_last_term_are_stored_as_int(self):
        terms = {(j, j): CycloElem.one(3) for j in range(2)}
        terms[(np.int64(2), np.uint8(0))] = zeta_pow(3, 1)
        st = PureState(3, ("x", "y"), 0, terms)
        assert list(st.terms) == [(0, 0), (1, 1), (2, 0)]
        assert {type(v) for basis in st.terms for v in basis} == {int}

    def test_tuple_subclass_keys_are_stored_as_tuples(self):
        Key = collections.namedtuple("Key", "x y")
        st = PureState(3, ("x", "y"), 0, {(0, 0): CycloElem.one(3), Key(1, 2): zeta_pow(3, 1)})
        assert [type(basis) for basis in st.terms] == [tuple, tuple]
        assert st.terms == {(0, 0): CycloElem.one(3), (1, 2): zeta_pow(3, 1)}

    def test_numpy_dim_is_stored_as_int(self):
        st = bell_state(np.int64(3))
        assert type(st.dim) is int
        assert json.loads(json.dumps(st.to_json_dict()))["dim"] == 3
        assert type(PureState(np.int64(3), ("x",), 0, {(1,): CycloElem.one(3)}).dim) is int

    def test_rejects_non_integer_dim(self):
        for make in (
            lambda: bell_state(3.0),
            lambda: basis_state(3.0, [("x", 1)]),
            lambda: PureState(3.0, ("x",), 0, {(1,): CycloElem.one(3)}),
        ):
            with pytest.raises(ValueError, match=r"^dim must be an integer, got 3\.0$"):
                make()

    def test_rejects_duplicate_wires(self):
        with pytest.raises(ValueError):
            PureState(3, ("x", "x"), 0, {(0, 0): CycloElem.one(3)})

    def test_rejects_mismatched_amplitude_dim(self):
        with pytest.raises(ValueError):
            PureState(3, ("x",), 0, {(0,): CycloElem.one(2)})

    def test_amplitudes_are_read_without_reducing(self, monkeypatch):
        # elements are canonical once built, so no consumer reduces again
        amps = {
            (0,): zeta_pow(4, 3),
            (1,): CycloElem(4, (1, 0, 1, 0)),  # 1 + z^2 = 0 at d=4
            (2,): CycloElem.from_rational(4, Fraction(1, 2)),
            (3,): zeta_pow(4, 2),
        }
        inverse_zeta = zeta_pow(4, -1)

        def forbidden(*args):
            raise AssertionError("reduced a canonical element again")

        monkeypatch.setattr(CycloElem, "canonical_reduce", forbidden)
        monkeypatch.setattr(ring, "reduce_coeffs", forbidden)
        st = PureState(4, ("x",), 0, amps)
        assert set(st.terms) == {(0,), (2,), (3,)}
        assert amps[(1,)].is_zero() and not amps[(0,)].is_zero()
        assert amps[(0,)] == inverse_zeta and amps[(0,)] != amps[(3,)]
        assert amps[(3,)] == -1
        assert rational_value(amps[(3,)]) == -1
        assert rational_value(amps[(2,)]) == Fraction(1, 2)


class TestTensor:
    def test_adjoin_key_qudit(self):
        st = bell_state(3).tensor(basis_state(3, [("k", 1)]))
        assert st.wires == ("a", "b", "k")
        assert set(st.terms) == {(0, 0, 1), (1, 1, 1), (2, 2, 1)}
        assert st.scale_exp == 1

    def test_two_bell_pairs(self):
        st = bell_state(3).tensor(bell_state(3, wires=("c", "d")))
        assert len(st.terms) == 9
        assert st.scale_exp == 2
        assert st.norm_squared() == 1

    def test_duplicate_wire_rejected(self):
        with pytest.raises(ValueError):
            bell_state(3).tensor(bell_state(3))


class TestOpMemo:
    def test_arguments_are_validated_before_the_lookup(self):
        # True == 1 == np.int64(1) with equal hashes: a stored state must read
        # each conjugate flag exactly as a state the memo never stores does
        cold, warm = cold_bell(3), bell_state(3)
        flags = (1, True, np.int64(1), np.bool_(True), 0, False, np.int64(0))
        results = []
        for st in (cold, warm):
            gates = [st.apply_hadamard("a", conjugate=c).to_json_dict() for c in flags]
            assert gates[0] == gates[1] == gates[2] == gates[3]
            assert gates[4] == gates[5] == gates[6] != gates[0]
            assert gates[0] == reference_hadamard(st, "a", conjugate=True).to_json_dict()
            results.append(gates)
        assert results[0] == results[1]
        # the stored state keeps one gate per validated flag
        assert len({id(warm.apply_hadamard("a", conjugate=c)) for c in flags}) == 2
        assert set(warm._ops) == {(0, True), (0, False)}
        assert cold._ops is None

    def test_sessions_share_stage_objects(self):
        # two 5-round attacked sessions at d=5 whose keys agree in round 1:
        # from round 2 on their shared states are one interned object, so
        # their basis-change stages are too, and both match the closed forms
        dim = 5
        keys = [(1, 0, 2, 1, 2), (1, 4, 3, 0, 2)]
        sessions = [
            run_session(ProtocolConfig(dim, 5, key, rng_seed=seed), GaoAttack())
            for seed, key in enumerate(keys)
        ]
        stages = [{label: st for r in s.rounds for label, st in r.stages} for s in sessions]
        shared = [label for label in stages[0] if stages[0][label] is stages[1][label]]
        assert {"psi_2_0", "psi_3_0", "psi_4_0", "psi_5_0"} <= set(shared)
        for key, by_label in zip(keys, stages):
            expected = eavesdrop_stage_states(dim, key)
            assert by_label.keys() == expected.keys()
            assert all(state_equals(by_label[label], want) for label, want in expected.items())

    def test_only_the_fourier_gate_is_stored(self):
        # a stored state returns its stored gates; every other op is computed
        # afresh and leaves no entry, however often it is asked for
        st = intern(PureState(3, ("a", "b"), 1, {(j, j): CycloElem.one(3) for j in range(3)}))
        gate = st.apply_hadamard("a")
        assert st.apply_hadamard("a") is gate and gate._ops is not None
        steps = [
            lambda: st.apply_controlled_shift("a", "b"),
            lambda: st.insert_wire("k", 0, 2),
            lambda: st.insert_wire("k", 0, 2).drop_wire("k"),
            lambda: st.branches("a")[0][1],
        ]
        for step in steps:
            first, second = step(), step()
            assert first is not second and first._ops is None
        assert set(st._ops) == {(0, False)}


class TestInsertWire:
    def test_adjoin_key_qudit_after_bob(self):
        bell = bell_state(3)
        st = bell.insert_wire("k", 1, 2)
        assert st.wires == ("a", "b", "k")
        assert set(st.terms) == {(0, 0, 1), (1, 1, 1), (2, 2, 1)}
        assert st.scale_exp == 1
        # only the basis tuples are rebuilt: the amplitudes are the same objects
        assert all(st.terms[(j, j, 1)] is bell.terms[(j, j)] for j in range(3))

    def test_value_is_a_plain_int(self):
        with pytest.raises(ValueError, match=r"^value must be an integer, got True$"):
            bell_state(3).insert_wire("k", True, 2)
        st = bell_state(3).insert_wire("k", np.int64(2), 2)
        assert {type(v) for b in st.terms for v in b} == {int}
        json.dumps(st.to_json_dict())

    def test_matches_tensor_then_reorder(self):
        rng = philox(40)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            st = random_pure_state(rng, dim, ("x", "y"))
            value = int(rng.integers(0, dim))
            for position in range(3):
                inserted = st.insert_wire("z", value, position)
                order = ("x", "y")[:position] + ("z",) + ("x", "y")[position:]
                expected = st.tensor(basis_state(dim, [("z", value)])).reorder_wires(order)
                assert inserted.wires == order
                assert inserted.scale_exp == expected.scale_exp
                assert inserted.terms == expected.terms


class TestControlledShift:
    def test_encode_key_onto_transit(self):
        st = PureState(
            3,
            ("a", "b", "k", "e"),
            1,
            {basis: CycloElem.one(3) for basis in [(0, 0, 1, 0), (1, 1, 1, 0), (2, 2, 1, 0)]},
        )
        shifted = st.apply_controlled_shift("a", "k", "right")
        assert set(shifted.terms) == {(0, 0, 1, 0), (1, 1, 2, 0), (2, 2, 0, 0)}

    def test_single_term_wraps(self):
        st = PureState(3, ("c", "t"), 0, {(2, 1): CycloElem.one(3)})
        shifted = st.apply_controlled_shift("c", "t", "right")
        assert set(shifted.terms) == {(2, 0)}

    def test_right_then_left_is_identity(self):
        rng = philox(11)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("c", "t", "u"))
            back = st.apply_controlled_shift("c", "t", "right").apply_controlled_shift(
                "c", "t", "left"
            )
            assert state_equals(st, back)

    def test_missing_or_equal_wires_rejected(self):
        bell = bell_state(3)
        with pytest.raises(ValueError):
            bell.apply_controlled_shift("a", "z", "right")
        with pytest.raises(ValueError):
            bell.apply_controlled_shift("a", "a", "right")
        with pytest.raises(ValueError):
            bell.apply_controlled_shift("a", "b", "sideways")

    def test_matches_dense_oracle(self):
        rng = philox(12)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("c", "t"))
            direction = "right" if rng.integers(0, 2) else "left"
            shifted = st.apply_controlled_shift("c", "t", direction)
            expected = dense_controlled_shift(state_vector(st), dim, 2, 0, 1, direction)
            assert_vectors_close(state_vector(shifted), expected)


class TestHadamard:
    def test_plus_state_dim2(self):
        st = basis_state(2, [("x", 0)]).apply_hadamard("x")
        assert set(st.terms) == {(0,), (1,)}
        assert st.scale_exp == 1
        assert all(amp == 1 for amp in st.terms.values())

    def test_bell_invariant_under_paired_transform(self):
        for dim in (2, 3, 5, 7):
            bell = bell_state(dim)
            rotated = bell.apply_hadamard("a").apply_hadamard("b", conjugate=True)
            assert state_equals(rotated, bell)

    def test_shared_state_fans_out_nine_terms(self):
        # one ancilla-entangled state, all three wires transformed
        psi11 = STAGES3["psi_1_1"]
        out = (
            psi11.apply_hadamard("a")
            .apply_hadamard("b", conjugate=True)
            .apply_hadamard("e")
        )
        assert len(out.terms) == 9
        assert state_equals(out, STAGES3["psi_2_0"])

    def test_inverse_restores_state(self):
        rng = philox(13)
        for dim in (2, 3, 5):
            for _ in range(10):
                st = random_pure_state(rng, dim, ("x", "y"))
                there = st.apply_hadamard("x")
                # H inverse = entrywise-conjugate transform applied with the
                # transposed phase convention, i.e. the conjugate gate
                back = there.apply_hadamard("x", conjugate=True)
                assert state_equals(back, st)

    def test_matches_dense_oracle(self):
        rng = philox(14)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("x", "y"))
            conjugate = bool(rng.integers(0, 2))
            got = st.apply_hadamard("y", conjugate=conjugate)
            expected = dense_hadamard(state_vector(st), dim, 2, 1, conjugate)
            assert_vectors_close(state_vector(got), expected)

    def test_norm_preserved(self):
        rng = philox(15)
        for dim in (2, 3, 5):
            for _ in range(10):
                st = random_pure_state(rng, dim, ("x", "y"))
                norm = st.norm_squared()
                assert st.apply_hadamard("x").norm_squared() == norm
                assert st.apply_hadamard("y", conjugate=True).norm_squared() == norm
                assert st.apply_controlled_shift("x", "y", "right").norm_squared() == norm

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_matches_reference_hadamard(self, dim):
        # cold: the group memo and the op memo are emptied before every gate
        self.check_against_reference(dim, "cold")

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_matches_reference_hadamard_warm(self, dim):
        # group-warm: the input is not stored, and every group comes from the group memo
        self.check_against_reference(dim, "group-warm")

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_matches_reference_hadamard_gate_warm(self, dim):
        # gate-warm: the input is stored, and the second call is an op-memo hit
        self.check_against_reference(dim, "gate-warm")

    @staticmethod
    def check_against_reference(dim, mode):
        rng = philox(100 + dim)
        wires = ("x", "y", "z")
        folded = 0
        for _ in range(6):
            integral = random_ring_state(rng, dim, wires, fractions=False)
            inputs = [
                # non-integer Fraction coefficients, as a reloaded transcript holds them
                PureState.from_json_dict(random_ring_state(rng, dim, wires).to_json_dict()),
                integral,
                # transforming this wire again with the conjugate gate folds back
                reference_hadamard(integral, wires[int(rng.integers(0, 3))]),
                # every coefficient a multiple of d at scale_exp >= 2
                PureState(
                    dim,
                    wires,
                    int(rng.integers(2, 4)),
                    {b: amp * dim for b, amp in integral.terms.items()},
                ),
            ]
            for st in inputs:
                for wire in wires:
                    for conjugate in (False, True):
                        memo = register._memo
                        if mode == "cold":
                            memo.clear()
                            st = intern(st)
                            assert st._ops == {}
                        elif mode == "group-warm":
                            st.apply_hadamard(wire, conjugate=conjugate)
                        else:
                            st = intern(st)
                            first = st.apply_hadamard(wire, conjugate=conjugate)
                        groups = dict(memo.groups)
                        with mock.patch.object(
                            register, "_hadamard_group", wraps=register._hadamard_group
                        ) as computed:
                            got = st.apply_hadamard(wire, conjugate=conjugate)
                        if mode == "cold":
                            # the result is stored under the validated arguments,
                            # and every group it computed is stored too
                            assert st._ops[(st.wire_index(wire), conjugate)] is got
                            assert computed.call_count == len(memo.groups) > 0
                        elif mode == "group-warm":
                            # every group comes from the group table
                            assert computed.call_count == 0 and memo.groups == groups
                            assert st._ops is None and got._ops is None
                        else:
                            # the stored state itself, with no group looked up
                            assert got is first and got._ops is not None
                            assert computed.call_count == 0 and memo.groups == groups
                        want = reference_hadamard(st, wire, conjugate=conjugate)
                        assert got.to_json_dict() == want.to_json_dict()
                        folded += got.scale_exp < st.scale_exp + 1
        assert folded

    def test_memo_keeps_dimensions_and_conjugates_apart(self):
        # one members tuple read at d=3 and at d=5 (where c_3 = c_4 = 0),
        # each with both phase signs: four keys, four different results
        members = ((0, (1, 0, 0)), (2, (0, 1, 0)))
        calls = [(dim, conjugate) for dim in (3, 5) for conjugate in (False, True)]
        memo = register._memo
        memo.clear()
        results = [memo.add_group((dim, conjugate, members)) for dim, conjugate in calls]
        assert set(memo.groups) == {(dim, conjugate, members) for dim, conjugate in calls}
        assert memo.terms == sum(map(len, results))
        assert len({tuple((t, amp.coeffs) for t, amp in r) for r in results}) == 4
        for (dim, conjugate), result in zip(calls, results):
            pad = (0,) * (dim - 3)
            st = PureState(dim, ("x",), 0, {(j,): CycloElem(dim, c + pad) for j, c in members})
            want = reference_hadamard(st, "x", conjugate=conjugate)
            assert {(t,): amp for t, amp in result} == want.terms
            # a later lookup under the same key reads the stored elements
            assert memo.groups[dim, conjugate, members] is result

    def test_gate_memo_keeps_dim_wire_conjugate_and_scale_apart(self):
        # the same basis values and coefficients (padded with zeros at d=5)
        # under each key field in turn: interning keeps dim and scale_exp
        # apart, the op key wire and conjugate; every call computes once,
        # then returns the stored result, and both give the reference result
        def state(dim, scale_exp):
            pad = (0,) * (dim - 3)
            terms = {(0, 1): (2, 0, 0), (2, 0): (0, 3, 0), (1, 1): (0, 0, 1)}
            return PureState(
                dim, ("x", "y"), scale_exp, {b: CycloElem(dim, c + pad) for b, c in terms.items()}
            )

        register._memo.clear()
        inputs = [intern(state(dim, scale_exp)) for dim in (3, 5) for scale_exp in (0, 2)]
        assert len(set(map(id, inputs))) == 4
        calls = [
            (st, wire, conjugate)
            for st in inputs
            for wire in ("x", "y")
            for conjugate in (False, True)
        ]
        results = []
        for st, wire, conjugate in calls:
            got = st.apply_hadamard(wire, conjugate=conjugate)
            assert got.to_json_dict() == reference_hadamard(st, wire, conjugate).to_json_dict()
            results.append(got)
        assert len({json.dumps(r.to_json_dict()) for r in results}) == len(calls)
        assert sum(len(st._ops) for st in inputs) == len(calls)
        for (st, wire, conjugate), want in zip(calls, results):
            assert st.apply_hadamard(wire, conjugate=conjugate) is want
        # an equal state built again is the stored one
        assert intern(state(5, 2)) is inputs[3]

    def test_gate_memo_hit_carries_the_callers_wires(self):
        # interning keys on wires: states with one vector under other labels
        # never share an op result
        terms = {(0, 1): CycloElem(3, (1, 0, 0)), (2, 2): CycloElem(3, (0, 1, 0))}
        register._memo.clear()
        first = intern(PureState(3, ("x", "y"), 1, terms))
        other = intern(PureState(3, ("e", "a"), 1, terms))
        assert first is not other
        got = [st.apply_hadamard(st.wires[0]) for st in (first, other)]
        assert [g.wires for g in got] == [("x", "y"), ("e", "a")]
        assert got[1].to_json_dict() == reference_hadamard(other, "e").to_json_dict()

    def test_memo_is_bounded(self):
        # one budget over every table: a group's outputs count toward it as
        # a stored state's terms do
        memo = register._memo
        assert memo.budget == MEMO_TERMS
        outputs = memo.add_group((3, False, ((0, (1, 0, 0)),)))
        assert memo.terms == len(outputs) == 3
        intern(PureState(3, ("x",), 0, {(0,): CycloElem.one(3), (1,): CycloElem.one(3)}))
        assert memo.terms == 5 and len(memo.states) == 1

    def test_gate_memo_holds_at_most_its_budget(self):
        # a 13-round attacked session at d=11: the memo counts the terms of
        # every stored state, interned ones and the gates they make
        dim, rounds = 11, 13
        key = tuple(int(x) for x in philox(113, stream=1).integers(0, dim, rounds))
        register._memo.clear()
        run_session(ProtocolConfig(dim, rounds, key, rng_seed=113), GaoAttack())
        memo = register._memo
        sizes = [len(st.terms) for st in memo.states]
        assert max(sizes) >= dim**3
        # the group outputs count toward the same budget
        groups = sum(map(len, memo.groups.values()))
        assert groups > 0 and memo.overflows == 0
        assert memo.terms == sum(sizes) + groups <= MEMO_TERMS
        # every gate a stored state holds is stored in turn
        gates = [made for st in memo.states for made in st._ops.values()]
        assert gates and all(st._ops is not None for st in gates)

    def test_gate_memo_evicts_within_a_small_budget(self, monkeypatch):
        # with room for a few d=5 states only, the memo empties every table
        # when full, and every transcript is the one the full-size memo gives
        dim, rounds = 5, 13
        key = tuple(int(x) for x in philox(55, stream=1).integers(0, dim, rounds))
        config = ProtocolConfig(dim, rounds, key, rng_seed=55)
        register._memo.clear()
        want = transcript_to_json_dict(run_session(config, GaoAttack()))
        small = _OpMemo(2 * dim**3 + 3 * dim**2)
        monkeypatch.setattr(register, "_memo", small)
        emptied = []
        original_clear = _OpMemo.clear

        def watched_clear(memo):
            emptied.append(list(memo.states))
            original_clear(memo)
            assert not (memo.states or memo.interned or memo.groups or memo.terms)

        monkeypatch.setattr(_OpMemo, "clear", watched_clear)
        assert transcript_to_json_dict(run_session(config, GaoAttack())) == want
        assert small.overflows == len(emptied) > 0
        assert 0 < small.terms <= small.budget
        # the group table fills again after each emptying, within the one budget
        assert small.groups and small.terms >= sum(map(len, small.groups.values()))
        # no state keeps a table past an emptying that dropped it
        assert all(st._ops is None for states in emptied for st in states)
        # a state larger than the whole budget is never stored
        large = PureState(dim, ("x", "y", "z"), 0, {b: CycloElem.one(dim) for b in np.ndindex(5, 5, 5)})
        small.budget = len(large.terms) - 1
        held, overflows = small.terms, small.overflows
        assert intern(large) is large and large._ops is None
        assert (small.terms, small.overflows) == (held, overflows)

    def test_group_lookup_may_empty_the_memo_inside_a_gate(self, monkeypatch):
        # a stored 25-term state at d=5 in a memo with room for one group
        # more: the gate's second group lookup empties every table, the
        # input's too, and the gate must not write into that dropped table
        dim = 5
        terms = {(x, y): CycloElem(dim, (x + 1, y, 0, 0, 0)) for x in range(dim) for y in range(dim)}
        small = _OpMemo(len(terms) + dim)
        monkeypatch.setattr(register, "_memo", small)
        st = intern(PureState(dim, ("x", "y"), 1, terms))
        ops = st._ops
        assert ops == {} and small.terms == len(terms)
        got = st.apply_hadamard("x")
        assert got.to_json_dict() == reference_hadamard(st, "x").to_json_dict()
        assert small.overflows > 0
        assert st._ops is None and ops == {}
        # no state keeps an _ops table that the memo no longer holds
        assert all(s._ops is None or any(s is held for held in small.states) for s in (st, got))
        assert small.terms <= small.budget

    def test_gate_memo_never_empties_under_attacked_d7_traffic(self):
        # the design rests on this: 13-round d=7 gao sessions, one for every
        # first key dit q_1, stay far within the budget, and a second pass
        # over them stores nothing new and gives the same transcripts
        dim, rounds = 7, 13
        register._memo.clear()
        overflows = register._memo.overflows
        configs = []
        for q1 in range(dim):
            rest = philox(700 + q1, stream=1).integers(0, dim, rounds - 1)
            key = (q1, *(int(x) for x in rest))
            configs.append(ProtocolConfig(dim, rounds, key, rng_seed=700 + q1))
        want = [transcript_to_json_dict(run_session(c, GaoAttack())) for c in configs]
        stored = len(register._memo.states)
        assert [transcript_to_json_dict(run_session(c, GaoAttack())) for c in configs] == want
        assert len(register._memo.states) == stored
        assert register._memo.overflows == overflows
        assert register._memo.terms < MEMO_TERMS // 8

    def test_gao_gate_misses_do_not_grow_with_rounds(self):
        # from round 2 on the shared state recurs with period 4, so a
        # 101-round session stores no gate that a 13-round one did not
        gates = []
        for rounds in (13, 101):
            key = tuple(int(x) for x in philox(rounds, stream=1).integers(0, 5, rounds))
            register._memo.clear()
            run_session(ProtocolConfig(5, rounds, key, rng_seed=rounds), GaoAttack())
            gates.append(sum(len(st._ops) for st in register._memo.states))
        assert gates[0] == gates[1]

    def test_gao_session_decodes_key_at_d11(self):
        # 13 rounds at d=11 through the memo: Bob reads the key, and Eve's odd
        # reads obey the sign law r_m = q_m + (-1)**((m - 3) / 2) * q_1
        dim, rounds = 11, 13
        key = tuple(int(x) for x in philox(311, stream=1).integers(0, dim, rounds))
        session = run_session(ProtocolConfig(dim, rounds, key, rng_seed=311), GaoAttack())
        assert session.bob_outcomes == key
        got = [(o.round_index, o.value, o.sign) for o in session.eve_observations]
        want = [
            (m, (key[m - 1] + sign * key[0]) % dim, sign)
            for m, sign in zip(range(3, rounds + 1, 2), [1, -1] * rounds)
        ]
        assert got == want
        announce_subsequence(session, [3])
        assert session.eve_inference() == (key[0], {m: key[m - 1] for m in range(1, rounds + 1, 2)})

    def test_fold_reads_reduced_rows(self):
        # sum_t zeta^t |t> at d=4: the conjugate transform's unreduced row for
        # |1> is [2, 0, -2, 0], which 4 does not divide, but modulo
        # Phi_4 = 1 + x^2 it is [4, 0, 0, 0], so the result folds to |1>
        st = PureState(4, ("x", "y", "z"), 1, {(t, 0, 2): zeta_pow(4, t) for t in range(4)})
        unreduced = [0] * 4
        for (t, _, _), amp in st.terms.items():
            for i, c in enumerate(amp.coeffs):
                unreduced[(i - t) % 4] += c
        assert unreduced == [2, 0, -2, 0]
        got = st.apply_hadamard("x", conjugate=True)
        assert got.to_json_dict() == reference_hadamard(st, "x", conjugate=True).to_json_dict()
        assert got.to_json_dict() == basis_state(4, [("x", 1), ("y", 0), ("z", 2)]).to_json_dict()


class TestFourierIdentity:
    @pytest.mark.parametrize("dim", (2, 3, 5, 7))
    def test_root_power_sums(self, dim):
        for n in range(dim):
            total = CycloElem.zero(dim)
            for j in range(dim):
                total = total + zeta_pow(dim, j * n)
            if n == 0:
                assert total == dim
            else:
                assert total.is_zero()


class TestMeasurement:
    def test_deterministic_transit_outcome(self):
        # final stage of round 1: transit wire holds the key dit in every term
        phi3 = STAGES3["Phi_3"]
        dist = phi3.measurement_distribution("k")
        assert dist == {1: Fraction(1)}
        assert phi3.deterministic_outcome("k") == 1

    def test_bell_uniform(self):
        dist = bell_state(3).measurement_distribution("a")
        assert dist == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
        assert bell_state(3).deterministic_outcome("a") is None

    def test_encoded_transit_uniform(self):
        psi1 = STAGES3["Psi_1"]  # transit carries k + q2 across branches
        dist = psi1.measurement_distribution("k")
        assert dist == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}

    def test_superposed_transit_not_deterministic(self):
        assert STAGES3["Phi_2"].deterministic_outcome("k") is None

    def test_distribution_sums_to_one(self):
        rng = philox(16)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("x", "y"))
            dist = st.measurement_distribution("x")
            assert sum(dist.values()) == 1

    def test_sampled_outcome_matches_projection(self):
        rng = philox(17)
        st = bell_state(3)
        outcome, collapsed, prob = st.measure_computational("a", rng)
        assert prob == Fraction(1, 3)
        assert collapsed.deterministic_outcome("a") == outcome
        assert collapsed.deterministic_outcome("b") == outcome
        assert collapsed.norm_squared() == 1

    def test_collapse_refuses_weight_that_is_no_power_of_d(self):
        # a normalized d=4 state whose branches weigh 1/2 each: the distribution
        # is exact, but no factor 4^(-n/2) renormalizes a branch
        one = CycloElem.one(4)
        st = PureState(4, ("x", "y"), 1, {(0, 0): one, (0, 1): one, (2, 0): one, (2, 1): one})
        assert st.norm_squared() == 1
        assert st.measurement_distribution("x") == {0: Fraction(1, 2), 2: Fraction(1, 2)}
        with pytest.raises(ValueError, match="branch weight 1/2 is no power of d=4"):
            st.project("x", 0)
        with pytest.raises(ValueError, match="branch weight 1/2 is no power of d=4"):
            st.measure_computational("x", FirstOutcomeRng())

    def test_collapse_refuses_weight_with_other_prime(self):
        st = PureState(3, ("x",), 0, {(0,): CycloElem.one(3), (1,): mono(3, 2, 2)})
        with pytest.raises(ValueError, match="branch weight 4 is no power of d=3"):
            st.project("x", 1)
        assert state_equals(st.project("x", 0), basis_state(3, [("x", 0)]))

    def test_collapse_refuses_zero_weight(self):
        # no nonzero branch weighs 0, but a wrong weight must raise, not loop
        st = bell_state(3)
        with pytest.raises(ValueError, match="branch weight 0 is no power of d=3"):
            st._collapse(dict(st.terms), Fraction(0))

    @pytest.mark.parametrize(
        "collapse",
        [
            lambda st: st.measure_computational("x", FirstOutcomeRng())[1],
            lambda st: st.project("x", 0),
        ],
        ids=["measure_computational", "project"],
    )
    def test_collapse_moves_powers_of_d_in_weight_into_scale_exp(self, collapse):
        # branch weight 9 holds d twice
        st = PureState(
            3, ("x", "y"), 0,
            {(0, 0): CycloElem.from_rational(3, 3), (1, 0): CycloElem.one(3)},
        )
        collapsed = collapse(st)
        assert collapsed.scale_exp == 2
        assert collapsed.norm_squared() == 1
        assert state_equals(collapsed, basis_state(3, [("x", 0), ("y", 0)]))

    @pytest.mark.parametrize(
        "dim, amplitude, scale_exp",
        [(9, Fraction(1, 3), 0), (3, Fraction(1, 3), 2), (3, Fraction(1, 9), 1), (4, Fraction(1, 8), 0)],
    )
    def test_collapse_renormalizes_a_branch_weighing_less_than_one(self, dim, amplitude, scale_exp):
        # stored weights d**-1, d**-2, d**-4 and d**-3: the amplitudes are
        # scaled up by a power of d, so the result is the vector, however stored
        st = PureState(dim, ("x",), scale_exp, {(0,): CycloElem.from_rational(dim, amplitude)})
        collapsed = st.project("x", 0)
        assert collapsed.scale_exp in (0, 1)
        assert collapsed.norm_squared() == 1
        assert state_equals(collapsed, basis_state(dim, [("x", 0)]))
        assert state_equals(st.branches("x")[0][1], collapsed)
        assert state_equals(st.measure_computational("x", FirstOutcomeRng())[1], collapsed)

    def test_project_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            basis_state(3, [("x", 0)]).project("x", 2)

    def test_sampling_is_seed_deterministic(self):
        a = bell_state(5).measure_computational("a", philox(21))[0]
        b = bell_state(5).measure_computational("a", philox(21))[0]
        assert a == b

    @pytest.mark.parametrize(
        "collapse",
        [
            lambda st: st.measure_computational("a", philox(22))[1],
            lambda st: st.project("a", 3),
        ],
        ids=["measure_computational", "project"],
    )
    def test_collapse_builds_one_state(self, monkeypatch, collapse):
        st = bell_state(5)
        built = []
        original_init, original_derived = PureState.__init__, PureState._derived

        def counted_init(self, *args):
            built.append("checked")
            original_init(self, *args)

        def counted_derived(cls, *args):
            built.append("derived")
            return original_derived(*args)

        monkeypatch.setattr(PureState, "__init__", counted_init)
        monkeypatch.setattr(PureState, "_derived", classmethod(counted_derived))
        collapsed = collapse(st)
        # the collapsed terms come from a valid state, so they skip the checks
        assert built == ["derived"]
        assert collapsed.norm_squared() == 1
        assert collapsed.scale_exp == 0

    def test_measurement_squares_each_amplitude_once(self, monkeypatch):
        # each branch's |amplitude|**2 sum is one plain row, reduced into one
        # CycloElem; no amplitude is conjugated as a ring element
        st = gauss_bell()
        ring.signed_root_coeffs(5)  # built from ring elements once per d, so before counting
        built, conj_calls = [], []
        original_init, original_conj = CycloElem.__init__, CycloElem.conj

        def counted_init(self, *args):
            built.append(1)
            original_init(self, *args)

        def counted_conj(self):
            conj_calls.append(1)
            return original_conj(self)

        monkeypatch.setattr(CycloElem, "__init__", counted_init)
        monkeypatch.setattr(CycloElem, "conj", counted_conj)
        outcome, collapsed, prob = st.measure_computational("a", philox(23))
        assert len(built) == 5  # one branch per value of wire a
        assert conj_calls == []
        assert prob == Fraction(1, 5)
        assert set(collapsed.terms) == {(outcome, outcome)}

    @pytest.mark.parametrize(
        "measure",
        [
            lambda st: [st.measure_computational("a", philox(23))],
            lambda st: st.branches("a"),
            lambda st: [(v, None, p) for v, p in st.measurement_distribution("a").items()],
        ],
        ids=["measure_computational", "branches", "measurement_distribution"],
    )
    def test_flagged_state_counts_terms(self, monkeypatch, measure):
        # bell_state's amplitudes are all 1: one split of the state, and its
        # Born weights are term counts, with no row and no ring element built
        st = bell_state(5)
        splits, built, weighed = [], [], []
        original_outcomes, original_init = PureState._outcomes, CycloElem.__init__

        def counted_outcomes(self, idx):
            splits.append(idx)
            return original_outcomes(self, idx)

        def counted_init(self, *args):
            built.append(1)
            original_init(self, *args)

        monkeypatch.setattr(PureState, "_outcomes", counted_outcomes)
        monkeypatch.setattr(CycloElem, "__init__", counted_init)
        monkeypatch.setattr(PureState, "_weight", lambda self, terms: weighed.append(terms))
        results = measure(st)
        assert splits == [0]
        assert built == [] and weighed == []
        assert all(p == Fraction(1, 5) for _, _, p in results)
        for v, collapsed, _ in results:
            if collapsed is not None:
                assert collapsed.terms.keys() == {(v, v)}

    def test_row_weighed_bell_measures_as_bell_state(self):
        # one vector, weighed by rows when stored with amplitude sqrt(5) and
        # by counting terms when stored with amplitude 1
        rows, counted = gauss_bell(), bell_state(5)
        for wire in ("a", "b"):
            assert rows.measurement_distribution(wire) == counted.measurement_distribution(wire)
            assert _same(rows.branches(wire), counted.branches(wire))
            for seed in range(5):
                assert _same(
                    rows.measure_computational(wire, random.Random(seed)),
                    counted.measure_computational(wire, random.Random(seed)),
                )


def all_signed_roots(state):
    """Whether every amplitude of state is zeta**k or -zeta**k for some k."""
    roots = [zeta_pow(state.dim, k) for k in range(state.dim)]
    return all(any(amp in (root, -root) for root in roots) for amp in state.terms.values())


@strategies.composite
def ring_states(draw):
    """A one- or two-wire state whose amplitudes are +-zeta**k or Fractions of 1 to d coefficients.

    In about half the states every amplitude is a +-zeta**k, so their Born
    weights are counted; at composite d, zeta**k for k >= phi(d) is reduced
    to several coefficients.  Monomial amplitudes give rational Born
    weights; the others mostly do not.
    """
    dim = draw(strategies.integers(2, 12))
    n_wires = draw(strategies.integers(1, 2))
    bases = draw(strategies.lists(
        strategies.tuples(*[strategies.integers(0, dim - 1)] * n_wires),
        min_size=1, max_size=8, unique=True,
    ))
    fractions = strategies.builds(
        Fraction, strategies.integers(-6, 6).filter(bool), strategies.integers(1, 4)
    )
    roots = [zeta_pow(dim, k) for k in range(dim)]
    signed_roots = strategies.sampled_from(roots + [-root for root in roots])
    roots_only = draw(strategies.booleans())
    terms = {}
    for basis in bases:
        if roots_only or draw(strategies.booleans()):
            terms[basis] = draw(signed_roots)
            continue
        placed = draw(strategies.dictionaries(
            strategies.integers(0, dim - 1), fractions, min_size=1, max_size=dim
        ))
        terms[basis] = CycloElem(dim, [placed.get(t, 0) for t in range(dim)])
    scale_exp = draw(strategies.integers(0, 3))
    return PureState(dim, ("x", "y")[:n_wires], scale_exp, terms)


class TestBranches:
    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize(
        "make_adversary", [lambda: None, InterceptResend, GaoAttack],
        ids=["honest", "intercept", "gao"],
    )
    def test_agrees_with_distribution_and_project(self, dim, make_adversary):
        key = tuple(int(x) for x in philox(dim, stream=2).integers(0, dim, 4))
        session = run_session(ProtocolConfig(dim, 4, key, rng_seed=dim), make_adversary())
        states = [s for r in session.rounds for _, s in r.stages] + [session.final_shared_state]
        for state in states:
            for wire in state.wires:
                dist = state.measurement_distribution(wire)
                expected = [(v, state.project(wire, v), p) for v, p in dist.items()]
                got = state.branches(wire)
                assert [v for v, _, _ in got] == [v for v, _, _ in expected]
                for (_, collapsed, p), (_, projected, q) in zip(got, expected):
                    assert first_difference(collapsed, projected) is None
                    assert type(p) is Fraction and p == q

    def test_one_born_weight_pass(self, monkeypatch):
        # one split of the state, and each term weighed once
        splits, weighed = [], []
        original_outcomes, original_weight = PureState._outcomes, PureState._weight

        def counted_outcomes(self, idx):
            splits.append(idx)
            return original_outcomes(self, idx)

        def counted_weight(self, terms):
            weighed.extend(terms)
            return original_weight(self, terms)

        monkeypatch.setattr(PureState, "_outcomes", counted_outcomes)
        monkeypatch.setattr(PureState, "_weight", counted_weight)
        state = gauss_bell()
        branches = state.branches("a")
        assert splits == [0]
        assert sorted(weighed) == sorted(state.terms)
        assert [(v, p) for v, _, p in branches] == [(v, Fraction(1, 5)) for v in range(5)]
        assert all(collapsed.terms.keys() == {(v, v)} for v, collapsed, _ in branches)


class TestBornWeightRows:
    @settings(max_examples=300, deadline=None)
    @given(strategies.data())
    def test_rows_match_ring_sum_of_squares(self, data):
        state = data.draw(ring_states())
        idx = data.draw(strategies.sampled_from([None, *range(len(state.wires))]))
        # idx None weighs every term as one branch, as norm_squared does
        sums = {None: CycloElem.zero(state.dim)} if idx is None else {}
        for basis, amp in state.terms.items():
            v = None if idx is None else basis[idx]
            sums[v] = sums.get(v, CycloElem.zero(state.dim)) + amp * amp.conj()

        def weights():
            if idx is None:
                return {None: state._weight(state.terms)}
            outcomes, total = state._outcomes(idx)
            assert [v for v, _, _ in outcomes] == sorted(sums)
            assert all(b[idx] == v for v, branch, _ in outcomes for b in branch)
            assert total == sum(w for _, _, w in outcomes)
            if all_signed_roots(state):  # counted: each weight is its branch's term count
                assert all(type(w) is int and w == len(branch) for _, branch, w in outcomes)
            return {v: w for v, _, w in outcomes}

        if not sums:
            with pytest.raises(ValueError, match="zero state"):
                weights()
            return
        if any(any(s.coeffs[1:]) for s in sums.values()):
            with pytest.raises(ValueError, match="not rational"):
                weights()
            return
        # weights are in stored units: d**-scale_exp cancels from every probability
        expected = {v: rational_value(s) for v, s in sums.items()}
        assert weights() == expected
        if idx is None:
            scale = Fraction(1, state.dim**state.scale_exp)
            assert state.norm_squared() == scale * expected[None]


class _Refusal(tuple):
    """The type and message of an exception a call raised."""


def _result(call, state):
    """call(state), or the _Refusal it raised."""
    try:
        return call(state)
    except Exception as exc:
        return _Refusal((type(exc), str(exc)))


def _same(x, y):
    """Equal results, where states compare as vectors."""
    if isinstance(x, PureState) and isinstance(y, PureState):
        return state_equals(x, y)
    if isinstance(x, (tuple, list)) and type(x) is type(y):
        return len(x) == len(y) and all(map(_same, x, y))
    return x == y


class TestScaleInvariance:
    @settings(max_examples=300, deadline=None)
    @given(ring_states(), strategies.integers(0, 2**32))
    def test_measurements_ignore_how_the_factor_is_stored(self, state, seed):
        # every amplitude times d and scale_exp + 2 is the same vector, so
        # every measurement must agree, refusal messages included; the copy
        # has no +-zeta**k amplitude and always weighs rows, so where state's
        # weights are counted this checks them against row weights
        dim = state.dim
        scaled = PureState(
            dim, state.wires, state.scale_exp + 2, {b: a * dim for b, a in state.terms.items()}
        )
        calls = [PureState.norm_squared]
        for wire in state.wires:
            calls += [
                lambda st, wire=wire: st.measurement_distribution(wire),
                lambda st, wire=wire: st.branches(wire),
                lambda st, wire=wire: st.measure_computational(wire, random.Random(seed)),
            ]
            calls += [lambda st, wire=wire, v=v: st.project(wire, v) for v in range(dim)]
        for call in calls:
            x, y = _result(call, state), _result(call, scaled)
            assert _same(x, y), (x, y)


class TestDenseBornOracle:
    """Every measurement of every stage state against the dense vector's Born rule."""

    @pytest.mark.parametrize("dim", range(2, 6))
    @pytest.mark.parametrize(
        "make_adversary",
        [lambda: None, GaoAttack, InterceptResend, lambda: InterceptResend({1})],
        ids=["honest", "gao", "intercept", "intercept-round-1"],
    )
    def test_measurements_match_dense_born_rule(self, dim, make_adversary):
        key = tuple(int(x) for x in philox(dim, stream=3).integers(0, dim, 4))
        session = run_session(ProtocolConfig(dim, 4, key, rng_seed=dim), make_adversary())
        states = [s for r in session.rounds for _, s in r.stages] + [session.final_shared_state]
        rng = random.Random(dim)
        for state in states:
            vec = state_vector(state).reshape((dim,) * len(state.wires))
            for idx, wire in enumerate(state.wires):
                moved = np.moveaxis(vec, idx, 0)
                marginal = np.sum(np.abs(moved.reshape(dim, -1)) ** 2, axis=1)
                marginal /= marginal.sum()
                dist = state.measurement_distribution(wire)
                got = np.array([float(dist.get(v, 0)) for v in range(dim)])
                assert np.max(np.abs(got - marginal)) <= 1e-12
                branches = state.branches(wire)
                assert [v for v, _, _ in branches] == sorted(dist)
                for v, collapsed, p in branches:
                    assert p == dist[v]
                    projected = np.zeros_like(moved)
                    projected[v] = moved[v]
                    projected = np.moveaxis(projected, 0, idx).reshape(-1)
                    projected /= np.linalg.norm(projected)
                    assert_vectors_close(state_vector(collapsed), projected)
                outcome, collapsed, p = state.measure_computational(wire, rng)
                (match,) = [b for b in branches if b[0] == outcome]
                assert p == match[2]
                assert first_difference(collapsed, match[1]) is None


class TestStabilizerFlag:
    """Born weights are counted where every amplitude is +-zeta**k; any other state weighs rows."""

    @pytest.mark.parametrize("dim", range(2, 10))
    @pytest.mark.parametrize(
        "make_adversary",
        [lambda: None, GaoAttack, InterceptResend, lambda: InterceptResend({1})],
        ids=["honest", "gao", "intercept", "intercept-round-1"],
    )
    def test_counted_weights_equal_row_weights(self, dim, make_adversary):
        # every stage state, reloaded from JSON too, and the closed forms,
        # tensor and reorder_wires results: each share is a counted int equal
        # to the branch's row weight, so a state that falls back to rows fails
        for rounds in (1, 5, 13):
            key = tuple(int(x) for x in philox(dim, stream=rounds).integers(0, dim, rounds))
            session = run_session(ProtocolConfig(dim, rounds, key, rng_seed=dim), make_adversary())
            states = stage_states(session)
            states += [PureState.from_json_dict(state.to_json_dict()) for state in states]
            if rounds == 5:
                states += eavesdrop_stage_states(dim, key).values()
            final = session.final_shared_state
            states.append(final.tensor(basis_state(dim, [("z", 1)])))
            states.append(final.reorder_wires(final.wires[::-1]))
            for state in states:
                for idx in range(len(state.wires)):
                    outcomes, total = state._outcomes(idx)
                    assert type(total) is int and total == state._weight(state.terms)
                    for _, branch, share in outcomes:
                        assert type(share) is int and share == state._weight(branch)

    def test_public_constructor_weighs_rows(self):
        # one amplitude is 1 and one is not a +-zeta**k: counting its two
        # terms would give 1/2 each
        one = CycloElem.one(3)
        st = PureState(3, ("x",), 0, {(0,): one, (1,): one * 2})
        assert st.measurement_distribution("x") == {0: Fraction(1, 5), 1: Fraction(4, 5)}


def _born_rule_pick(state, wire, draw):
    """The outcome whose cumulative probability first exceeds the draw, in exact Fractions."""
    cumulative = Fraction(0)
    for v, p in sorted(state.measurement_distribution(wire).items()):
        cumulative += p
        if Fraction(draw) < cumulative:
            return v


class TestSampler:
    """measure_computational picks the branch the exact Born rule picks for its draw."""

    @settings(max_examples=300, deadline=None)
    @given(ring_states(), strategies.floats(0, 1, exclude_max=True))
    def test_row_weights(self, state, draw):
        # most drawn weights are no power of d, so the collapse is left out
        with mock.patch.object(PureState, "_collapse", lambda self, branch, weight: branch):
            for wire in state.wires:
                try:
                    expected = _born_rule_pick(state, wire, draw)
                except ValueError:  # a weight that is not rational
                    continue
                outcome, branch, p = state.measure_computational(wire, FixedDrawRng(draw))
                assert outcome == expected
                assert all(b[state.wire_index(wire)] == outcome for b in branch)
                assert p == state.measurement_distribution(wire)[outcome]

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_counted_weights_on_and_next_to_every_boundary(self, dim):
        # draws k/16 fall on the cumulative probabilities of d = 2, 4 and 8,
        # and each draw just below one must still pick the branch before it
        draws = [k / 16 for k in range(16)] + [math.nextafter(k / 16, 0) for k in range(1, 17)]
        session = run_session(ProtocolConfig(dim, 3, (1 % dim, 0, 1 % dim), rng_seed=dim),
                              InterceptResend())
        for state in [bell_state(dim)] + stage_states(session):
            for wire in state.wires:
                for draw in draws:
                    outcome, _, _ = state.measure_computational(wire, FixedDrawRng(draw))
                    assert outcome == _born_rule_pick(state, wire, draw)


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize(
    "make_adversary", [lambda: None, InterceptResend, GaoAttack],
    ids=["honest", "intercept", "gao"],
)
def test_session_states_pass_the_public_checks(dim, make_adversary):
    # gates, collapses and drop_wire skip PureState's checks because they
    # derive their terms from a valid state; every state a session makes
    # must still pass them unchanged
    key = tuple(int(x) for x in philox(dim, stream=1).integers(0, dim, 4))
    session = run_session(ProtocolConfig(dim, 4, key, rng_seed=dim), make_adversary())
    states = [s for r in session.rounds for _, s in r.stages] + [session.final_shared_state]
    for state in states:
        rebuilt = PureState(state.dim, state.wires, state.scale_exp, state.terms)
        assert rebuilt.terms == state.terms
        assert all(amp for amp in state.terms.values())


ZERO_STATE = PureState(3, ("x",), 0, {(0,): CycloElem.zero(3)})  # its one term is pruned


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PureState(1, ("x",), 0, {}), ValueError, "dimension must be at least 2, got 1"),
        (lambda: PureState(3, (), 0, {}), ValueError, "a state needs at least one wire"),
        (lambda: PureState(3, ("x",), 0, {(0,): 1}), TypeError,
         "amplitude must be CycloElem, got int"),
        (lambda: bell_state(3).tensor(basis_state(2, [("k", 0)])), ValueError,
         "dimension mismatch: 3 != 2"),
        (lambda: bell_state(3).reorder_wires(("a", "a")), ValueError,
         "('a', 'a') is not a permutation of ('a', 'b')"),
        (lambda: ZERO_STATE.measurement_distribution("x"), ValueError,
         "cannot measure a zero state"),
        (lambda: ZERO_STATE.measure_computational("x", FirstOutcomeRng()), ValueError,
         "cannot measure a zero state"),
        (lambda: ZERO_STATE.branches("x"), ValueError, "cannot measure a zero state"),
        (lambda: bell_state(3).insert_wire("b", 0, 2), ValueError,
         "wire 'b' already present in state wires ('a', 'b')"),
        (lambda: bell_state(3).insert_wire("k", 3, 2), ValueError,
         "value 3 out of range for dimension 3"),
        (lambda: bell_state(3).insert_wire("k", 0, 3), ValueError, "position 3 outside 0..2"),
        (lambda: bell_state(3).insert_wire("k", 0, True), ValueError,
         "position must be an integer, got True"),
        (lambda: bell_state(3).insert_wire("k", 0, 1.0), ValueError,
         "position must be an integer, got 1.0"),
        (lambda: bell_state(3).project("a", 3), ValueError,
         "outcome 3 out of range for dimension 3"),
        (lambda: bell_state(3).project("a", True), ValueError,
         "outcome must be an integer, got True"),
        (lambda: bell_state(3).project("a", 1.0), ValueError,
         "outcome must be an integer, got 1.0"),
        (lambda: bell_state(3).project("a", "1"), ValueError,
         "outcome must be an integer, got '1'"),
        (lambda: basis_state(3, [("k", 1)]).drop_wire("k"), ValueError,
         "cannot drop the last wire of a state"),
        # |1 + z|**2 = 2 + z + z^4, which reduces to 1 - z^2 - z^3 at d=5
        (lambda: PureState(5, ("x",), 0, {(0,): CycloElem(5, (1, 1, 0, 0, 0))})
         .measurement_distribution("x"), ValueError,
         "element is not rational: CycloElem(5, (1, 0, -1, -1, 0))"),
        # the same vector stored as amplitude 5 + 5z with scale_exp 2
        (lambda: PureState(5, ("x",), 2, {(0,): CycloElem(5, (5, 5, 0, 0, 0))})
         .measurement_distribution("x"), ValueError,
         "element is not rational: CycloElem(5, (1, 0, -1, -1, 0))"),
    ],
    ids=["dim-1", "no-wires", "int-amplitude", "tensor-dims", "reorder-not-permutation",
         "distribution-zero-state", "measure-zero-state", "branches-zero-state",
         "insert-duplicate-wire", "insert-value-d", "insert-position-past-end",
         "insert-position-bool", "insert-position-float",
         "project-outcome-d", "project-outcome-bool", "project-outcome-float",
         "project-outcome-str", "drop-only-wire",
         "distribution-irrational-weight", "distribution-irrational-weight-scaled"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestDropWire:
    def test_requires_deterministic_value(self):
        phi3 = STAGES3["Phi_3"]
        collapsed = phi3.project("k", 1)
        reduced = collapsed.drop_wire("k")
        assert reduced.wires == ("a", "b", "e")
        with pytest.raises(ValueError):
            bell_state(3).drop_wire("a")


class TestReducedDensity:
    def test_transit_is_maximally_mixed(self):
        rho = STAGES3["Phi_2"].reduced_density("k")
        assert rho == DensityMatrixSlice.maximally_mixed(3)

    def test_basis_state_is_projector(self):
        rho = basis_state(3, [("x", 2)]).reduced_density("x")
        assert rho.entries[2][2] == 1
        assert rho.trace() == 1
        for i in range(3):
            for j in range(3):
                if (i, j) != (2, 2):
                    assert rho.entries[i][j].is_zero()

    def test_bell_wire_is_maximally_mixed(self):
        assert bell_state(3).reduced_density("a") == DensityMatrixSlice.maximally_mixed(3)

    def test_hermitian(self):
        rng = philox(18)
        st = random_pure_state(rng, 3, ("x", "y"))
        rho = st.reduced_density("x")
        assert is_hermitian(rho)


def _ring_first_difference(a, b):
    """first_difference as it was with no fast path: b's amplitudes times the factor ratio."""
    perm = tuple(b.wires.index(w) for w in a.wires)
    b_terms = {tuple(basis[i] for i in perm): amp for basis, amp in b.terms.items()}
    ratio = sqrt_rational(a.dim, Fraction(a.dim) ** (a.scale_exp - b.scale_exp))
    zero = CycloElem.zero(a.dim)
    differing = [
        basis
        for basis in a.terms.keys() | b_terms.keys()
        if ratio is None or a.terms.get(basis, zero) != b_terms.get(basis, zero) * ratio
    ]
    if not differing:
        return None
    basis = min(differing)
    labels = ", ".join(f"{w}={v}" for w, v in zip(a.wires, basis))
    return (
        f"basis ({labels}): ({a.terms.get(basis, zero)}) * {a.dim}^(-{a.scale_exp}/2)"
        f" != ({b_terms.get(basis, zero)}) * {b.dim}^(-{b.scale_exp}/2)"
    )


class TestStateEquals:
    def test_recurrence_after_four_rounds(self):
        assert state_equals(STAGES3["psi_5_1"], STAGES3["psi_1_1"])

    def test_distinct_stages_differ(self):
        assert not state_equals(STAGES3["Phi_2"], STAGES3["Phi_3"])

    def test_wire_order_normalized(self):
        bell = bell_state(3)
        assert state_equals(bell.reorder_wires(("b", "a")), bell)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            state_equals(bell_state(2), bell_state(3))

    def test_wire_set_mismatch_raises(self):
        with pytest.raises(ValueError):
            state_equals(bell_state(3), bell_state(3, wires=("a", "c")))

    def test_scale_alignment_even_difference(self):
        bell = bell_state(3)
        inflated = PureState(
            3, ("a", "b"), 3, {b: mono(3, 3) for b in bell.terms}
        )
        assert state_equals(inflated, bell)

    def test_scale_alignment_odd_difference(self):
        # same vector, scale exponents of different parity
        st = PureState(3, ("x",), 0, {(0,): CycloElem.one(3)})
        inflated = PureState(3, ("x",), 2, {(0,): mono(3, 3)})
        assert state_equals(st, inflated)

    def test_global_phase_is_significant(self):
        bell = bell_state(3)
        twisted = PureState(
            3, ("a", "b"), 1, {b: zeta_pow(3, 1) for b in bell.terms}
        )
        assert not state_equals(twisted, bell)

    def test_phase_counts_when_factor_ratio_is_irrational(self):
        # (1 + 2 zeta) / sqrt(3) = i at d=3, so b = i (|0> - |1>) != |0> + |1>
        a = PureState(3, ("x",), 0, {(0,): CycloElem.one(3), (1,): CycloElem.one(3)})
        amp = CycloElem(3, (1, 2, 0))
        b = PureState(3, ("x",), 1, {(0,): amp, (1,): -amp})
        assert not state_equals(a, b)
        assert not state_equals(b, a)

    def test_irrational_factor_ratio_inside_the_field(self):
        # 1 + 2 zeta + 2 zeta^4 = sqrt(5) at d=5, so |0> == sqrt(5) |0> / sqrt(5)
        root5 = CycloElem(5, (1, 2, 0, 0, 2))
        one = PureState(5, ("x",), 0, {(0,): CycloElem.one(5)})
        assert state_equals(one, PureState(5, ("x",), 1, {(0,): root5}))
        assert not state_equals(one, PureState(5, ("x",), 1, {(0,): -root5}))

    def test_first_difference_agrees_with_dense_vectors(self):
        # every ordered pair of stages on one wire set, the second with its wires
        # reversed: None exactly when the vectors agree, else a basis where they differ
        for x in STAGES3.values():
            for y in STAGES3.values():
                if set(x.wires) != set(y.wires):
                    continue
                y = y.reorder_wires(reversed(y.wires))
                diff = first_difference(x, y)
                vx, vy = state_vector(x), state_vector(y.reorder_wires(x.wires))
                assert (diff is None) == np.allclose(vx, vy, atol=1e-9)
                if diff is not None:
                    labels = diff[len("basis ("):diff.index(")")].split(", ")
                    assert [item.split("=")[0] for item in labels] == list(x.wires)
                    idx = 0
                    for item in labels:
                        idx = idx * 3 + int(item.split("=")[1])
                    assert abs(vx[idx] - vy[idx]) > 1e-9

    @pytest.mark.parametrize("dim", range(2, 8))
    def test_first_difference_fast_path_agrees_with_ring_path(self, dim):
        # every pair of closed-form stages on one wire set, the second as
        # given, with its wires reversed, and stored with amplitudes times d
        # and scale_exp + 2 (so the exponents differ): the result is the
        # ring-arithmetic comparison's, and the same vector is found equal
        # however it is stored
        key = tuple(int(x) for x in philox(dim, stream=13).integers(0, dim, 5))
        stages = list(eavesdrop_stage_states(dim, key).values())
        for x in stages:
            for y in stages:
                if set(x.wires) != set(y.wires):
                    continue
                reversed_y = y.reorder_wires(reversed(y.wires))
                variants = [y, reversed_y] + [
                    PureState(dim, v.wires, v.scale_exp + 2, {b: a * dim for b, a in v.terms.items()})
                    for v in (y, reversed_y)
                ]
                verdicts = set()
                for v in variants:
                    got = first_difference(x, v)
                    assert got == _ring_first_difference(x, v)
                    verdicts.add(got is None)
                assert len(verdicts) == 1
        assert first_difference(stages[0], stages[0]) is None

    def test_first_difference_line_is_exact(self):
        bell = bell_state(3)
        twisted = PureState(3, ("a", "b"), 1, {b: zeta_pow(3, 1) for b in bell.terms})
        assert first_difference(twisted, bell) == "basis (a=0, b=0): (z) * 3^(-1/2) != (1) * 3^(-1/2)"
        amp = CycloElem(3, (1, 2, 0))
        a = PureState(3, ("x",), 0, {(0,): CycloElem.one(3), (1,): CycloElem.one(3)})
        b = PureState(3, ("x",), 1, {(0,): amp, (1,): -amp})
        assert first_difference(a, b) == "basis (x=0): (1) * 3^(-0/2) != (1 + 2*z) * 3^(-1/2)"

    def test_first_difference_keys_basis_by_first_states_wires(self):
        p = basis_state(3, [("a", 1), ("b", 0)])
        q = basis_state(3, [("b", 0), ("a", 2)])
        assert first_difference(p, q) == "basis (a=1, b=0): (1) * 3^(-0/2) != (0) * 3^(-0/2)"
        assert first_difference(q, p) == "basis (b=0, a=1): (0) * 3^(-0/2) != (1) * 3^(-0/2)"
        assert first_difference(bell_state(3).reorder_wires(("b", "a")), bell_state(3)) is None


class TestSerialization:
    def test_round_trip(self):
        rng = philox(19)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("x", "y"))
            clone = PureState.from_json_dict(st.to_json_dict())
            assert state_equals(st, clone)

    def test_golden_bell(self):
        doc = bell_state(2).to_json_dict()
        assert doc == {
            "dim": 2,
            "wires": ["a", "b"],
            "scale_exp": 1,
            "terms": [
                {"basis": [0, 0], "coeffs": ["1", "0"]},
                {"basis": [1, 1], "coeffs": ["1", "0"]},
            ],
        }

    def test_json_serializable(self):
        text = json.dumps(STAGES3["Omega_2"].to_json_dict())
        clone = PureState.from_json_dict(json.loads(text))
        assert state_equals(clone, STAGES3["Omega_2"])

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"terms": [{"basis": [1], "coeffs": ["1", "0", "0"]}] * 2}, r"basis \[1\]"),
            ({"terms": [{"basis": [True], "coeffs": ["1", "0", "0"]}]}, "'basis'"),
            ({"terms": [{"basis": ["1"], "coeffs": ["1", "0", "0"]}]}, "'basis'"),
            ({"terms": [{"basis": [1], "coeffs": ["1/0", "0", "0"]}]}, "'coeffs'"),
            ({"terms": [{"basis": [1], "coeffs": [0.5, "0", "0"]}]}, "'coeffs'"),
            ({"scale_exp": True}, "scale_exp"),
            ({"scale_exp": "1"}, "scale_exp"),
            ({"dim": "3"}, "'dim'"),
            ({"wires": "k"}, "'wires'"),
            ({"scale_sq": "1"}, "'scale_sq'"),
            ({"terms": [{"basis": [1], "coeffs": ["1", "0", "0"], "scale": "1"}]}, "'scale'"),
            ({"terms": [{"basis": [1], "coeffs": ["1", "0"]}]}, "'coeffs'"),
            ({"terms": None}, "'terms'"),
            # an int key and a str key do not sort against each other
            ({1: "x", "scale_sq": "1"}, r"unknown field\(s\) 'scale_sq', 1$"),
            ({"terms": [{"basis": [1], "coeffs": ["1", "0", "0"], 2: "x", "scale": "1"}]},
             r"unknown field\(s\) 'scale', 2$"),
        ],
        ids=[
            "duplicate-basis", "bool-basis", "string-basis", "zero-denominator",
            "float-coeff", "bool-scale-exp", "string-scale-exp", "string-dim",
            "string-wires", "scale-sq-field", "unknown-term-field", "short-coeffs",
            "missing-terms", "int-and-str-fields", "int-and-str-term-fields",
        ],
    )
    def test_malformed_json_raises_value_error(self, change, field):
        doc = {"dim": 3, "wires": ["k"], "scale_exp": 0,
               "terms": [{"basis": [1], "coeffs": ["1", "0", "0"]}]}
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(ValueError, match=field):
            PureState.from_json_dict(doc)

    @pytest.mark.parametrize(
        "dim, coeffs",
        [
            (3, ["0", "0", "1"]),  # zeta**2, which reduces to -1 - zeta
            (4, ["0", "0", "1", "0"]),  # zeta**2, which reduces to -1
            (3, ["1", "1", "1"]),  # 1 + zeta + zeta**2, which is 0
            (3, ["0", "0", "0"]),
        ],
        ids=["d3-unreduced", "d4-unreduced", "d3-reduces-to-zero", "d3-zero"],
    )
    def test_amplitude_that_to_json_never_writes_is_refused(self, dim, coeffs):
        # the constructor would rewrite the first two and drop the last two
        doc = {"dim": dim, "wires": ["k"], "scale_exp": 0,
               "terms": [{"basis": [0], "coeffs": ["1"] + ["0"] * (dim - 1)},
                         {"basis": [1], "coeffs": coeffs}]}
        with pytest.raises(ValueError, match=re.escape(f"'coeffs' holds {coeffs}")):
            PureState.from_json_dict(doc)

    def test_each_term_gets_its_own_coeffs_list(self):
        # every term of the Bell state holds the same amplitude
        st = bell_state(3)
        doc = st.to_json_dict()
        doc["terms"][0]["coeffs"].append("7")
        doc["terms"][0]["coeffs"][0] = "5"
        assert [t["coeffs"] for t in doc["terms"][1:]] == [["1", "0", "0"]] * 2
        assert st.to_json_dict() == bell_state(3).to_json_dict() == {
            "dim": 3, "wires": ["a", "b"], "scale_exp": 1,
            "terms": [{"basis": [j, j], "coeffs": ["1", "0", "0"]} for j in range(3)],
        }

    def test_unreduced_list_is_refused_after_an_equal_canonical_one(self):
        # ["-1", "-1", "0"] is zeta**2 reduced; ["0", "0", "1"] is the same
        # amplitude unreduced, which to_json_dict never writes
        doc = {"dim": 3, "wires": ["k"], "scale_exp": 0,
               "terms": [{"basis": [0], "coeffs": ["-1", "-1", "0"]},
                         {"basis": [1], "coeffs": ["-1", "-1", "0"]},
                         {"basis": [2], "coeffs": ["0", "0", "1"]}]}
        with pytest.raises(ValueError, match=re.escape("'coeffs' holds ['0', '0', '1']")):
            PureState.from_json_dict(doc)
        del doc["terms"][2]
        assert PureState.from_json_dict(doc).terms == {(0,): zeta_pow(3, 2), (1,): zeta_pow(3, 2)}

    @pytest.mark.parametrize("coeff", ["01", "2/4"])
    def test_non_round_tripping_string_is_refused_every_time(self, coeff):
        # the value of each is also written validly ("1", "1/2") in an earlier term
        valid = "1" if coeff == "01" else "1/2"
        doc = {"dim": 3, "wires": ["k"], "scale_exp": 0,
               "terms": [{"basis": [0], "coeffs": [valid, "0", "0"]},
                         {"basis": [1], "coeffs": [coeff, "0", "0"]},
                         {"basis": [2], "coeffs": [coeff, "0", "0"]}]}
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"'coeffs' holds {re.escape(repr(coeff))}"):
                PureState.from_json_dict(doc)
        doc["terms"][1:] = [{"basis": [1], "coeffs": [valid, "0", "0"]}]
        assert len(PureState.from_json_dict(doc).terms) == 2

    def test_str_subclass_is_refused_after_an_equal_str(self):
        class Text(str):
            pass

        doc = {"dim": 2, "wires": ["k"], "scale_exp": 0,
               "terms": [{"basis": [0], "coeffs": ["1", "0"]},
                         {"basis": [1], "coeffs": [Text("1"), "0"]}]}
        with pytest.raises(ValueError, match=r"'coeffs' holds '1', which is no fraction string"):
            PureState.from_json_dict(doc)

    @pytest.mark.parametrize("dim", [3, 5, 6])
    def test_repeated_fraction_amplitudes_round_trip_byte_identically(self, dim):
        half, third = Fraction(1, 2), Fraction(-2, 3)
        amps = [mono(dim, half), mono(dim, third, 1), mono(dim, half), mono(dim, 3, 1),
                mono(dim, third, 1), mono(dim, half) + mono(dim, third, 1)]
        st = PureState(dim, ("x", "y"), 2, {(j % dim, j // dim): a for j, a in enumerate(amps)})
        text = json.dumps(st.to_json_dict())
        clone = PureState.from_json_dict(json.loads(text))
        assert clone.terms == st.terms
        assert json.dumps(clone.to_json_dict()) == text
        assert '"1/2"' in text and '"-2/3"' in text

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_session_stage_states_reload_as_written(self, dim):
        key = tuple((3 * i + 1) % dim for i in range(4))
        for adversary in (None, InterceptResend(), GaoAttack()):
            session = run_session(ProtocolConfig(dim, 4, key, rng_seed=dim), adversary)
            for state in [s for r in session.rounds for _, s in r.stages]:
                doc = state.to_json_dict()
                clone = PureState.from_json_dict(doc)
                assert state_equals(clone, state)
                assert clone.to_json_dict() == doc

    @pytest.mark.parametrize(
        "coeff",
        ["1_0", "0.5", "1e0", " 1", "1/2 ", "+1", "01", "-0", "2/4", "1/1", "١"],
    )
    def test_coefficient_that_to_json_never_writes_is_refused(self, coeff):
        # Fraction() alone reads each of these as a number, "1_0" as 10
        doc = {"dim": 3, "wires": ["k"], "scale_exp": 0,
               "terms": [{"basis": [1], "coeffs": [coeff, "0", "0"]}]}
        with pytest.raises(ValueError, match=rf"'coeffs' holds {re.escape(repr(coeff))}"):
            PureState.from_json_dict(doc)

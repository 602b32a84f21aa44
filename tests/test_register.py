import json
import random
import re
from fractions import Fraction

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
    HADAMARD_GATE_MEMO_TERMS,
    HADAMARD_GROUP_CACHE_SIZE,
    DensityMatrixSlice,
    PureState,
    basis_state,
    bell_state,
    first_difference,
    _GateMemo,
    _hadamard_gate_memo,
    _hadamard_group,
    state_equals,
)
from qkdlab import register, ring
from qkdlab.ring import CycloElem, rational_value, zeta_pow


def mono(dim, value, exponent=0):
    return CycloElem.from_rational(dim, value).mul_zeta(exponent)


STAGES3 = eavesdrop_stage_states(3, (1, 0, 2, 1, 2))


class FirstOutcomeRng:
    """A uniform draw of 0, so measure_computational picks the lowest outcome."""

    def random(self):
        return 0.0


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
        # cold: both memos cleared, so every group is computed afresh
        self.check_against_reference(dim, "cold")

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_matches_reference_hadamard_warm(self, dim):
        # group-warm: the gate memo is cleared, and every group comes from the group memo
        self.check_against_reference(dim, "group-warm")

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_matches_reference_hadamard_gate_warm(self, dim):
        # gate-warm: the second call is a whole-gate hit
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
                        if mode == "cold":
                            _hadamard_group.cache_clear()
                            _hadamard_gate_memo.clear()
                        else:
                            first = st.apply_hadamard(wire, conjugate=conjugate)
                            if mode == "group-warm":
                                _hadamard_gate_memo.clear()
                            groups = _hadamard_group.cache_info()
                            gates = (_hadamard_gate_memo.hits, _hadamard_gate_memo.misses)
                        got = st.apply_hadamard(wire, conjugate=conjugate)
                        if mode == "group-warm":
                            after = _hadamard_group.cache_info()
                            assert after.misses == groups.misses and after.hits > groups.hits
                            assert _hadamard_gate_memo.misses == gates[1] + 1
                        elif mode == "gate-warm":
                            assert _hadamard_group.cache_info() == groups
                            assert (_hadamard_gate_memo.hits, _hadamard_gate_memo.misses) == (
                                gates[0] + 1,
                                gates[1],
                            )
                            # the same terms in the same order, in a dict of the state's own
                            assert list(got.terms.items()) == list(first.terms.items())
                            again = st.apply_hadamard(wire, conjugate=conjugate)
                            assert len({id(first.terms), id(got.terms), id(again.terms)}) == 3
                        want = reference_hadamard(st, wire, conjugate=conjugate)
                        assert got.to_json_dict() == want.to_json_dict()
                        folded += got.scale_exp < st.scale_exp + 1
        assert folded

    def test_memo_keeps_dimensions_and_conjugates_apart(self):
        # one members tuple read at d=3 and at d=5 (where c_3 = c_4 = 0),
        # each with both phase signs: four keys, four different results
        members = ((0, (1, 0, 0)), (2, (0, 1, 0)))
        calls = [(dim, conjugate) for dim in (3, 5) for conjugate in (False, True)]
        _hadamard_group.cache_clear()
        results = [_hadamard_group(dim, conjugate, members) for dim, conjugate in calls]
        assert _hadamard_group.cache_info().currsize == 4
        assert len({tuple((t, amp.coeffs) for t, amp in r) for r in results}) == 4
        for (dim, conjugate), result in zip(calls, results):
            pad = (0,) * (dim - 3)
            st = PureState(dim, ("x",), 0, {(j,): CycloElem(dim, c + pad) for j, c in members})
            want = reference_hadamard(st, "x", conjugate=conjugate)
            assert {(t,): amp for t, amp in result} == want.terms
            # a second call with the same key returns the same elements
            assert _hadamard_group(dim, conjugate, members) is result

    def test_gate_memo_keeps_dim_wire_conjugate_and_scale_apart(self):
        # the same basis values and coefficients (padded with zeros at d=5)
        # under each key field in turn: every call misses once, then hits,
        # and both give the reference result
        def state(dim, scale_exp):
            pad = (0,) * (dim - 3)
            terms = {(0, 1): (2, 0, 0), (2, 0): (0, 3, 0), (1, 1): (0, 0, 1)}
            return PureState(
                dim, ("x", "y"), scale_exp, {b: CycloElem(dim, c + pad) for b, c in terms.items()}
            )

        calls = [
            (state(dim, scale_exp), wire, conjugate)
            for dim in (3, 5)
            for scale_exp in (0, 2)
            for wire in ("x", "y")
            for conjugate in (False, True)
        ]
        _hadamard_gate_memo.clear()
        results = []
        for st, wire, conjugate in calls:
            got = st.apply_hadamard(wire, conjugate=conjugate)
            assert got.to_json_dict() == reference_hadamard(st, wire, conjugate).to_json_dict()
            results.append(got.to_json_dict())
        assert _hadamard_gate_memo.misses == len(calls) == len(_hadamard_gate_memo.entries)
        assert len({json.dumps(r) for r in results}) == len(calls)
        for (st, wire, conjugate), want in zip(calls, results):
            assert st.apply_hadamard(wire, conjugate=conjugate).to_json_dict() == want
        assert _hadamard_gate_memo.hits == len(calls)
        assert _hadamard_gate_memo.misses == len(calls)

    def test_gate_memo_hit_carries_the_callers_wires(self):
        terms = {(0, 1): CycloElem(3, (1, 0, 0)), (2, 2): CycloElem(3, (0, 1, 0))}
        _hadamard_gate_memo.clear()
        first = PureState(3, ("x", "y"), 1, terms).apply_hadamard("x")
        other = PureState(3, ("e", "a"), 1, terms)
        got = other.apply_hadamard("e")
        assert (_hadamard_gate_memo.hits, _hadamard_gate_memo.misses) == (1, 1)
        assert got.wires == ("e", "a") and first.wires == ("x", "y")
        assert got.to_json_dict() == reference_hadamard(other, "e").to_json_dict()

    def test_memo_is_bounded(self):
        info = _hadamard_group.cache_info()
        assert info.maxsize is not None
        assert info.maxsize == HADAMARD_GROUP_CACHE_SIZE
        assert _hadamard_gate_memo.budget == HADAMARD_GATE_MEMO_TERMS

    def test_gate_memo_holds_at_most_its_budget(self):
        # a 13-round attacked session at d=11: entries of up to 2 * 11**3 terms;
        # an entry's size is its input's term count plus its output's
        dim, rounds = 11, 13
        key = tuple(int(x) for x in philox(113, stream=1).integers(0, dim, rounds))
        _hadamard_gate_memo.clear()
        run_session(ProtocolConfig(dim, rounds, key, rng_seed=113), GaoAttack())
        sizes = []
        for key_, (scale_exp, terms) in _hadamard_gate_memo.entries.items():
            assert len(key_[4]) == len(key_[5])
            sizes.append(len(key_[4]) + len(terms))
        assert max(sizes) > dim**3
        assert _hadamard_gate_memo.terms == sum(sizes) <= HADAMARD_GATE_MEMO_TERMS

    def test_gate_memo_evicts_within_a_small_budget(self, monkeypatch):
        # with room for a few d=5 entries only, the memo empties when full and
        # every transcript is the one the full-size memo gives
        dim, rounds = 5, 13
        key = tuple(int(x) for x in philox(55, stream=1).integers(0, dim, rounds))
        config = ProtocolConfig(dim, rounds, key, rng_seed=55)
        want = transcript_to_json_dict(run_session(config, GaoAttack()))
        small = _GateMemo(2 * dim**3 + 3 * dim**2)
        monkeypatch.setattr(register, "_hadamard_gate_memo", small)
        assert transcript_to_json_dict(run_session(config, GaoAttack())) == want
        assert 0 < small.terms <= small.budget
        assert len(small.entries) < small.misses
        # an entry that overflows by one term leaves only itself, though
        # dropping one older entry would have made room
        small.clear()
        small.put("a", None, 1)
        small.put("b", None, 1)
        small.put("new", None, small.budget - 1)
        assert list(small.entries) == ["new"] and small.terms == small.budget - 1
        # an entry larger than the whole budget is not stored
        small.clear()
        small.put("big", None, small.budget + 1)
        assert not small.entries and small.terms == 0

    def test_gate_memo_never_empties_under_attacked_d7_traffic(self):
        # the design rests on this: 13-round d=7 gao sessions, one for every
        # first key dit q_1, keep their gate inputs far within the budget, so
        # every miss is still held
        dim, rounds = 7, 13
        _hadamard_gate_memo.clear()
        for q1 in range(dim):
            rest = philox(700 + q1, stream=1).integers(0, dim, rounds - 1)
            key = (q1, *(int(x) for x in rest))
            run_session(ProtocolConfig(dim, rounds, key, rng_seed=700 + q1), GaoAttack())
        assert _hadamard_gate_memo.hits > 0
        assert _hadamard_gate_memo.terms < HADAMARD_GATE_MEMO_TERMS // 8
        assert _hadamard_gate_memo.misses == len(_hadamard_gate_memo.entries)

    def test_gao_gate_misses_do_not_grow_with_rounds(self):
        # from round 2 on the shared state recurs with period 4, so a
        # 101-round session meets no gate input that a 13-round one did not
        misses = []
        for rounds in (13, 101):
            key = tuple(int(x) for x in philox(rounds, stream=1).integers(0, 5, rounds))
            _hadamard_gate_memo.clear()
            run_session(ProtocolConfig(5, rounds, key, rng_seed=rounds), GaoAttack())
            misses.append(_hadamard_gate_memo.misses)
        assert misses[0] == misses[1]

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
        st = bell_state(5)
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


@strategies.composite
def ring_states(draw):
    """A one- or two-wire state with Fraction amplitudes of 1 to d nonzero coefficients.

    Monomial amplitudes give rational Born weights; the others mostly do not.
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
    terms = {}
    for basis in bases:
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
        state = bell_state(5)
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
            return {v: w for v, _, w in outcomes}

        if not sums:
            with pytest.raises(ValueError, match="zero state"):
                weights()
            return
        if any(any(s.coeffs[1:]) for s in sums.values()):
            with pytest.raises(ValueError, match="not rational"):
                weights()
            return
        scale = Fraction(1, state.dim**state.scale_exp)
        assert weights() == {v: scale * rational_value(s) for v, s in sums.items()}


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
        (lambda: bell_state(3).project("a", 3), ValueError,
         "outcome 3 out of range for dimension 3"),
        (lambda: basis_state(3, [("k", 1)]).drop_wire("k"), ValueError,
         "cannot drop the last wire of a state"),
        # |1 + z|**2 = 2 + z + z^4, which reduces to 1 - z^2 - z^3 at d=5
        (lambda: PureState(5, ("x",), 0, {(0,): CycloElem(5, (1, 1, 0, 0, 0))})
         .measurement_distribution("x"), ValueError,
         "element is not rational: CycloElem(5, (1, 0, -1, -1, 0))"),
    ],
    ids=["dim-1", "no-wires", "int-amplitude", "tensor-dims", "reorder-not-permutation",
         "distribution-zero-state", "measure-zero-state", "branches-zero-state",
         "insert-duplicate-wire", "insert-value-d", "insert-position-past-end",
         "project-outcome-d", "drop-only-wire",
         "distribution-irrational-weight"],
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
        ],
        ids=[
            "duplicate-basis", "bool-basis", "string-basis", "zero-denominator",
            "float-coeff", "bool-scale-exp", "string-scale-exp", "string-dim",
            "string-wires", "scale-sq-field", "unknown-term-field", "short-coeffs",
            "missing-terms",
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

import json
from fractions import Fraction

import pytest

from helpers import (
    assert_vectors_close,
    dense_controlled_shift,
    dense_hadamard,
    random_pure_state,
    state_vector,
)
from qkdlab.closed_forms import eavesdrop_stage_states
from qkdlab.protocol import make_rng
from qkdlab.register import (
    DensityMatrixSlice,
    PureState,
    basis_state,
    bell_state,
    state_equals,
)
from qkdlab.ring import CycloElem, zeta_pow


def mono(dim, value, exponent=0):
    return CycloElem.from_rational(dim, value).mul_zeta(exponent)


STAGES3 = eavesdrop_stage_states(3, (1, 0, 2, 1, 2))


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

    def test_rejects_duplicate_wires(self):
        with pytest.raises(ValueError):
            PureState(3, ("x", "x"), 0, {(0, 0): CycloElem.one(3)})

    def test_rejects_mismatched_amplitude_dim(self):
        with pytest.raises(ValueError):
            PureState(3, ("x",), 0, {(0,): CycloElem.one(2)})


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
        rng = make_rng(11)
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
        rng = make_rng(12)
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
        rng = make_rng(13)
        for dim in (2, 3, 5):
            for _ in range(10):
                st = random_pure_state(rng, dim, ("x", "y"))
                there = st.apply_hadamard("x")
                # H inverse = entrywise-conjugate transform applied with the
                # transposed phase convention, i.e. the conjugate gate
                back = there.apply_hadamard("x", conjugate=True)
                assert state_equals(back, st)

    def test_matches_dense_oracle(self):
        rng = make_rng(14)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("x", "y"))
            conjugate = bool(rng.integers(0, 2))
            got = st.apply_hadamard("y", conjugate=conjugate)
            expected = dense_hadamard(state_vector(st), dim, 2, 1, conjugate)
            assert_vectors_close(state_vector(got), expected)

    def test_norm_preserved(self):
        rng = make_rng(15)
        for dim in (2, 3, 5):
            for _ in range(10):
                st = random_pure_state(rng, dim, ("x", "y"))
                norm = st.norm_squared()
                assert st.apply_hadamard("x").norm_squared() == norm
                assert st.apply_hadamard("y", conjugate=True).norm_squared() == norm
                assert st.apply_controlled_shift("x", "y", "right").norm_squared() == norm


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
        rng = make_rng(16)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            st = random_pure_state(rng, dim, ("x", "y"))
            dist = st.measurement_distribution("x")
            assert sum(dist.values()) == 1

    def test_sampled_outcome_matches_projection(self):
        rng = make_rng(17)
        st = bell_state(3)
        outcome, collapsed, prob = st.measure_computational("a", rng)
        assert prob == Fraction(1, 3)
        assert collapsed.deterministic_outcome("a") == outcome
        assert collapsed.deterministic_outcome("b") == outcome
        assert collapsed.norm_squared() == 1

    def test_project_renormalizes_non_power_branch(self):
        # branch norms 1/5 and 4/5: the rational-square factor must absorb
        # the non-power-of-d remainder while keeping the norm exactly 1
        st = PureState(
            3,
            ("x",),
            0,
            {(0,): CycloElem.one(3), (1,): mono(3, 2)},
            scale_sq=Fraction(1, 5),
        )
        assert st.norm_squared() == 1
        picked = st.project("x", 1)
        assert picked.norm_squared() == 1
        assert set(picked.terms) == {(1,)}

    def test_project_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            basis_state(3, [("x", 0)]).project("x", 2)

    def test_sampling_is_seed_deterministic(self):
        a = bell_state(5).measure_computational("a", make_rng(21))[0]
        b = bell_state(5).measure_computational("a", make_rng(21))[0]
        assert a == b


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
        rng = make_rng(18)
        st = random_pure_state(rng, 3, ("x", "y"))
        rho = st.reduced_density("x")
        assert rho.is_hermitian()


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
        odd = PureState(
            3, ("x",), 1, {(0,): CycloElem.one(3)}, scale_sq=Fraction(3)
        )
        assert state_equals(st, odd)

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


class TestSerialization:
    def test_round_trip(self):
        rng = make_rng(19)
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

    def test_scale_sq_round_trip(self):
        st = PureState(
            3, ("x",), 0,
            {(0,): CycloElem.one(3), (1,): mono(3, 2)},
            scale_sq=Fraction(1, 5),
        )
        clone = PureState.from_json_dict(st.to_json_dict())
        assert clone.scale_sq == Fraction(1, 5)
        assert state_equals(st, clone)

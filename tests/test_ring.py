import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_canonical, to_complex
from qkdlab.ring import (
    CycloElem,
    cyclotomic_polynomial,
    rational_value,
    reduce_coeffs,
    sqrt_rational,
    zeta_pow,
)

PRIMES = (2, 3, 5, 7)
DIMS = PRIMES + (4, 6, 8, 9, 12)


def cyclo(dim, *coeffs):
    return CycloElem(dim, coeffs)


@st.composite
def raw_coeffs(draw, dims=DIMS):
    """A dimension and d rational coefficients, not reduced modulo Phi_d."""
    dim = draw(st.sampled_from(dims))
    nums = draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))
    dens = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
    return dim, [Fraction(n, d) for n, d in zip(nums, dens)]


@st.composite
def cyclo_elems(draw, dims=DIMS):
    return CycloElem(*draw(raw_coeffs(dims)))


def direct_value(dim, coeffs) -> complex:
    return sum(float(c) * cmath.exp(2j * cmath.pi * t / dim) for t, c in enumerate(coeffs))


class TestConstruction:
    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            CycloElem(1, (1,))
        with pytest.raises(ValueError):
            zeta_pow(1, 0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CycloElem(3, (1, 2))

    def test_rejects_float_and_bool_coefficients(self):
        with pytest.raises(TypeError):
            CycloElem(2, (0.5, 0))
        with pytest.raises(TypeError):
            CycloElem(2, (True, 0))

    def test_construction_reduces_modulo_phi(self):
        # 1 + z + z^2 + z^3 = 0 at d=4, and z^2 = -1 - z at d=3
        assert CycloElem(4, (1, 1, 1, 1)).coeffs == (0, 0, 0, 0)
        assert CycloElem(3, (2, 0, -1)).coeffs == (3, 1, 0)

    def test_integral_fractions_collapse_to_int(self):
        elem = cyclo(3, Fraction(4, 2), 0, 0)
        assert elem.coeffs == (2, 0, 0)
        assert isinstance(elem.coeffs[0], int)


class TestZetaPow:
    def test_exponent_zero_is_one(self):
        assert zeta_pow(3, 0) == CycloElem.one(3)

    def test_exponent_wraps_modulo_dim(self):
        assert zeta_pow(3, 4) == zeta_pow(3, 1)

    def test_negative_exponent_wraps(self):
        assert zeta_pow(5, -2) == zeta_pow(5, 3)

    @pytest.mark.parametrize("dim", DIMS)
    def test_inverse_pairs_multiply_to_one(self, dim):
        one = CycloElem.one(dim)
        for e in range(dim):
            assert zeta_pow(dim, e) * zeta_pow(dim, dim - e) == one


class TestArithmetic:
    def test_root_sum_vanishes(self):
        total = zeta_pow(3, 0) + zeta_pow(3, 1) + zeta_pow(3, 2)
        assert total.is_zero()

    def test_product_wraps(self):
        assert zeta_pow(3, 1) * zeta_pow(3, 2) == CycloElem.one(3)

    def test_binomial_product_dim5(self):
        a = CycloElem.one(5) + zeta_pow(5, 1)
        b = CycloElem.one(5) + zeta_pow(5, 4)
        assert a * b == cyclo(5, 2, 1, 0, 0, 1)

    def test_scalar_interop(self):
        z = zeta_pow(3, 1)
        assert 2 * z == z + z
        assert z - 1 == z + (-1)
        assert 1 - z == -(z - 1)
        assert Fraction(1, 2) * (z + z) == z

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            zeta_pow(2, 1) + zeta_pow(3, 1)
        with pytest.raises(ValueError):
            zeta_pow(2, 1) * zeta_pow(3, 1)

    def test_equality_across_dims_is_false(self):
        assert zeta_pow(2, 0) != zeta_pow(3, 0)

    def test_mul_zeta_matches_product(self):
        elem = cyclo(5, 1, 2, 0, Fraction(1, 3), 0)
        for e in range(-5, 11):
            assert elem.mul_zeta(e) == elem * zeta_pow(5, e)


class TestCanonicalReduce:
    def test_all_ones_reduce_to_zero(self):
        assert cyclo(3, 1, 1, 1).canonical_reduce().coeffs == (0, 0, 0)

    def test_top_coefficient_folds_down(self):
        assert cyclo(3, 2, 0, 1).canonical_reduce().coeffs == (1, -1, 0)

    def test_dim2_top_folds_to_minus_one(self):
        assert cyclo(2, 0, 1).canonical_reduce().coeffs == (-1, 0)

    def test_composite_dim_reduces_modulo_phi(self):
        # 1 + z + z^2 + z^3 = (1 + z)(1 + z^2) and Phi_4 = 1 + x^2
        assert cyclo(4, 1, 1, 1, 1).coeffs == (0, 0, 0, 0)
        # z^3 = -z at d=4, so 1 + 2z + z^3 = 1 + z
        assert cyclo(4, 1, 2, 0, 1).coeffs == (1, 1, 0, 0)
        # Phi_6 = 1 - x + x^2, so z^2 = z - 1 and z^5 = 1 - z
        assert zeta_pow(6, 2).coeffs == (-1, 1, 0, 0, 0, 0)
        assert zeta_pow(6, 5).coeffs == (1, -1, 0, 0, 0, 0)
        # Phi_9 = 1 + x^3 + x^6: z^8 = -z^2 - z^5
        assert zeta_pow(9, 8).coeffs == (0, 0, -1, 0, 0, -1, 0, 0, 0)

    @settings(max_examples=200)
    @given(raw_coeffs())
    def test_idempotent_and_value_preserving(self, raw):
        dim, coeffs = raw
        elem = CycloElem(dim, coeffs)
        assert is_canonical(elem)
        assert elem.canonical_reduce() is elem
        assert CycloElem(dim, elem.coeffs).coeffs == elem.coeffs
        assert abs(to_complex(elem) - direct_value(dim, coeffs)) < 1e-9

    @settings(max_examples=200)
    @given(raw_coeffs())
    def test_reduce_coeffs_matches_canonical_reduce(self, raw):
        dim, coeffs = raw
        # _raw skips the constructor's reduction, so canonical_reduce has work to do
        unreduced = CycloElem._raw(dim, tuple(coeffs))
        reduced = reduce_coeffs(dim, list(coeffs))
        assert reduced == unreduced.canonical_reduce().coeffs == CycloElem(dim, coeffs).coeffs
        assert all(type(c) is int or c.denominator != 1 for c in reduced)


class TestZeroAndComplex:
    def test_root_sum_is_zero(self):
        assert (cyclo(3, 1, 1, 1)).is_zero()

    def test_one_to_complex(self):
        assert to_complex(CycloElem.one(3)) == 1 + 0j

    def test_dim4_zeta_is_i(self):
        z = to_complex(zeta_pow(4, 1))
        assert abs(z - 1j) < 1e-12

    def test_composite_zero_test_exact(self):
        assert cyclo(4, 1, 0, 1, 0).is_zero()  # 1 + zeta^2 = 0 at d=4
        assert cyclo(6, 1, 0, 0, 1, 0, 0).is_zero()  # 1 + zeta^3 = 0 at d=6
        assert cyclo(6, 1, 0, 1, 0, 1, 0).is_zero()  # 1 + w + w^2 with w = zeta^2
        assert not cyclo(8, 1, 0, 0, 0, 0, 0, 0, 1).is_zero()

    def test_bool_is_nonzero(self):
        assert bool(zeta_pow(3, 1))
        assert not bool(CycloElem.zero(3))

    @settings(max_examples=150)
    @given(cyclo_elems())
    def test_to_complex_matches_direct_evaluation(self, elem):
        assert abs(to_complex(elem) - direct_value(elem.dim, elem.coeffs)) < 1e-9


class TestConjugation:
    @settings(max_examples=150)
    @given(cyclo_elems())
    def test_involution(self, elem):
        assert elem.conj().conj() == elem

    @settings(max_examples=150)
    @given(cyclo_elems())
    def test_complex_conjugate_value(self, elem):
        assert abs(to_complex(elem.conj()) - to_complex(elem).conjugate()) < 1e-9

    @settings(max_examples=100)
    @given(st.data())
    def test_multiplicative(self, data):
        dim = data.draw(st.sampled_from(DIMS))
        a = data.draw(cyclo_elems(dims=(dim,)))
        b = data.draw(cyclo_elems(dims=(dim,)))
        assert (a * b).conj() == a.conj() * b.conj()

    def test_monomial_norm_is_rational(self):
        # r * zeta^e has squared magnitude exactly r**2; sums of distinct
        # roots generally do not (their norm is irrational), which is why
        # the engine only ever extracts norms of monomial amplitudes
        amp = Fraction(3, 7) * zeta_pow(5, 2)
        assert rational_value(amp * amp.conj()) == Fraction(9, 49)
        with pytest.raises(ValueError):
            mixture = zeta_pow(5, 3) + zeta_pow(5, 4)
            rational_value(mixture * mixture.conj())


class TestRingAxioms:
    @settings(max_examples=200)
    @given(st.data())
    def test_axioms_on_random_triples(self, data):
        dim = data.draw(st.sampled_from(DIMS))
        a = data.draw(cyclo_elems(dims=(dim,)))
        b = data.draw(cyclo_elems(dims=(dim,)))
        c = data.draw(cyclo_elems(dims=(dim,)))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100)
    @given(cyclo_elems())
    def test_identities(self, elem):
        dim = elem.dim
        assert elem + CycloElem.zero(dim) == elem
        assert elem * CycloElem.one(dim) == elem
        assert (elem - elem).is_zero()


class TestRationalValue:
    def test_exact_for_prime(self):
        assert rational_value(CycloElem.from_rational(5, Fraction(3, 7))) == Fraction(3, 7)

    def test_reduces_before_extracting(self):
        # 2 + zeta + zeta^2 == 1 at d=3
        assert rational_value(cyclo(3, 2, 1, 1)) == 1

    def test_rejects_non_rational(self):
        with pytest.raises(ValueError):
            rational_value(zeta_pow(3, 1))

    def test_composite_dim_exact(self):
        # rational but not syntactically so
        assert rational_value(zeta_pow(4, 2)) == -1
        assert rational_value(zeta_pow(6, 1) + zeta_pow(6, 5)) == 1  # 2 cos(pi/3)
        assert rational_value(zeta_pow(12, 2) + zeta_pow(12, 10)) == 1
        assert rational_value(Fraction(2, 3) * zeta_pow(9, 3) * zeta_pow(9, 6)) == Fraction(2, 3)

    def test_composite_non_rational_rejected(self):
        with pytest.raises(ValueError):
            rational_value(zeta_pow(4, 1))


class TestCyclotomicPolynomial:
    def test_table_up_to_twelve(self):
        table = {
            1: (-1, 1),
            2: (1, 1),
            3: (1, 1, 1),
            4: (1, 0, 1),
            5: (1, 1, 1, 1, 1),
            6: (1, -1, 1),
            7: (1,) * 7,
            8: (1, 0, 0, 0, 1),
            9: (1, 0, 0, 1, 0, 0, 1),
            10: (1, -1, 1, -1, 1),
            11: (1,) * 11,
            12: (1, 0, -1, 0, 1),
        }
        assert {n: cyclotomic_polynomial(n) for n in table} == table

    @pytest.mark.parametrize("dim", range(2, 31))
    def test_degree_is_totient_and_zeta_is_a_root(self, dim):
        poly = cyclotomic_polynomial(dim)
        assert len(poly) - 1 == sum(1 for k in range(1, dim + 1) if math.gcd(k, dim) == 1)
        value = sum(c * zeta_pow(dim, t) for t, c in enumerate(poly))
        assert value.is_zero()

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestSqrtRational:
    @pytest.mark.parametrize("dim", range(2, 25))
    def test_square_and_sign(self, dim):
        for value in (1, 2, 3, 5, 6, 7, 12, 13, 21, Fraction(1, 3), Fraction(18, 25), 49):
            root = sqrt_rational(dim, Fraction(value))
            if root is None:
                continue
            assert root * root == value
            assert abs(to_complex(root) - math.sqrt(value)) < 1e-9

    def test_field_membership(self):
        assert sqrt_rational(3, 3) is None  # only sqrt(-3) lies in Q(zeta_3)
        assert sqrt_rational(12, 3) is not None
        assert sqrt_rational(5, 5) is not None
        assert sqrt_rational(7, 7) is None  # 7 = 3 mod 4 needs 4 | d
        assert sqrt_rational(4, 2) is None and sqrt_rational(8, 2) is not None
        assert sqrt_rational(5, 3) is None
        assert sqrt_rational(5, Fraction(9, 4)) == Fraction(3, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sqrt_rational(3, 0)


class TestPrinting:
    def test_pretty_forms(self):
        assert str(CycloElem.zero(3)) == "0"
        assert str(cyclo(5, 2, 0, -1, 0, 0)) == "2 - z^2"
        assert str(cyclo(3, 0, 1, 0)) == "z"
        assert str(cyclo(3, Fraction(1, 2), -1, 0)) == "1/2 - z"
        # the printed form is the reduced one: 2 - z^2 = 3 + z at d=3
        assert str(cyclo(3, 2, 0, -1)) == "3 + z"
        assert repr(cyclo(3, 2, 0, -1)) == "CycloElem(3, (3, 1, 0))"

    def test_repr_round_trips(self):
        elem = cyclo(3, 1, Fraction(2, 3), 0)
        assert eval(repr(elem), {"CycloElem": CycloElem, "Fraction": Fraction}) == elem

"""Exact arithmetic over rational combinations of d-th roots of unity.

An element is a length-d vector of rational coefficients, index t holding
the coefficient of zeta**t where zeta = exp(2*pi*i/d).  Products are
reduced with zeta**d == 1.  The minimal polynomial of zeta is the d-th
cyclotomic polynomial Phi_d, of degree phi(d) (Euler's totient), so the
remainder modulo Phi_d is a canonical form for every d: coefficients
from index phi(d) up are zero, and two elements are equal exactly when
their remainders are.  At prime d, Phi_d = 1 + x + ... + x**(d-1) and the
remainder is the vector with its last coefficient folded away.  Every
CycloElem holds its remainder from construction on, so equality is
coefficient identity and no other module needs to know the reduction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

Coeff = int | Fraction


def _norm_coeff(value: Coeff) -> Coeff:
    # computed sums/products of valid coefficients only need the
    # denominator-one collapse, not the full type check
    return (
        value.numerator
        if type(value) is Fraction and value.denominator == 1
        else value
    )


def _as_coeff(value: object) -> Coeff:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")
    return _norm_coeff(value)


def _divide(poly: list, divisor: tuple[int, ...]) -> list:
    """Divide poly by a monic divisor in place and return the quotient.

    Coefficients run lowest degree first; poly is left holding the
    remainder, with zeros from index len(divisor) - 1 up.
    """
    deg = len(divisor) - 1
    quotient = [0] * (len(poly) - deg)
    for i in range(len(quotient) - 1, -1, -1):
        c = quotient[i] = poly[i + deg]
        if c:
            poly[i:i + deg + 1] = [
                a - c * b if b else a for a, b in zip(poly[i:i + deg + 1], divisor)
            ]
    return quotient


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first.

    x**n - 1 is the product of Phi_k over the divisors k of n, so Phi_n is
    x**n - 1 divided by Phi_k for every proper divisor k.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for k in range(1, n):
        if n % k == 0:
            poly = _divide(poly, cyclotomic_polynomial(k))
    return tuple(poly)


@lru_cache(maxsize=None)
def _degree(dim: int) -> int:
    """phi(dim): a reduced element is zero from this index up."""
    return len(cyclotomic_polynomial(dim)) - 1


@lru_cache(maxsize=None)
def signed_root_coeffs(dim: int) -> frozenset:
    """The canonical coefficient tuples of +-zeta**k for every k.

    Each of these elements has |element|**2 = 1 exactly, so terms whose
    amplitudes all lie in this set weigh exactly as many as there are.
    """
    roots = [zeta_pow(dim, k) for k in range(dim)]
    return frozenset(coeffs for root in roots for coeffs in (root.coeffs, (-root).coeffs))


def reduce_coeffs(dim: int, coeffs: list) -> tuple:
    """The canonical coefficient tuple of sum_t coeffs[t] * zeta**t.

    coeffs holds d ints or Fractions and is overwritten with the
    remainder modulo Phi_d; integer-valued Fractions come back as ints.
    """
    _divide(coeffs, cyclotomic_polynomial(dim))
    if Fraction in map(type, coeffs):
        return tuple(map(_norm_coeff, coeffs))
    return tuple(coeffs)


class CycloElem:
    """One element of the order-d cyclotomic ring with rational coefficients.

    Instances are immutable and canonical: the constructor reduces modulo
    Phi_d once, and sums of canonical elements need no reduction.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs) -> None:
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, got {dim}")
        coeffs = list(coeffs)
        if len(coeffs) != dim:
            raise ValueError(f"expected {dim} coefficients, got {len(coeffs)}")
        # all-int coefficients, the common case, need no per-item check
        if not {int}.issuperset(map(type, coeffs)):
            coeffs = list(map(_as_coeff, coeffs))
        self.dim = dim
        self.coeffs = reduce_coeffs(dim, coeffs) if any(coeffs[_degree(dim):]) else tuple(coeffs)

    @classmethod
    def _raw(cls, dim: int, coeffs: tuple) -> CycloElem:
        # internal fast path: callers guarantee coeffs is a valid tuple,
        # canonical or about to go through canonical_reduce
        elem = object.__new__(cls)
        elem.dim = dim
        elem.coeffs = coeffs
        return elem

    @classmethod
    def zero(cls, dim: int) -> CycloElem:
        return cls(dim, (0,) * dim)

    @classmethod
    def one(cls, dim: int) -> CycloElem:
        return cls(dim, (1,) + (0,) * (dim - 1))

    @classmethod
    def from_rational(cls, dim: int, value: Coeff) -> CycloElem:
        return cls(dim, (value,) + (0,) * (dim - 1))

    def canonical_reduce(self) -> CycloElem:
        """The remainder modulo Phi_d, for the raw results of *, conj and mul_zeta."""
        if not any(self.coeffs[_degree(self.dim):]):
            return self
        return CycloElem._raw(self.dim, reduce_coeffs(self.dim, list(self.coeffs)))

    def _coerce(self, other: object) -> CycloElem | None:
        if isinstance(other, CycloElem):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return CycloElem.from_rational(self.dim, other)
        return None

    def __add__(self, other: object) -> CycloElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        coeffs = tuple(
            a if not b else b if not a else _norm_coeff(a + b)
            for a, b in zip(self.coeffs, rhs.coeffs)
        )
        return CycloElem._raw(self.dim, coeffs)

    __radd__ = __add__

    def __neg__(self) -> CycloElem:
        return CycloElem._raw(self.dim, tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> CycloElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> CycloElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> CycloElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        dim = self.dim
        acc = [0] * dim
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(rhs.coeffs):
                if not b:
                    continue
                t = i + j
                if t >= dim:
                    t -= dim
                acc[t] += a * b
        return CycloElem._raw(dim, tuple(map(_norm_coeff, acc))).canonical_reduce()

    __rmul__ = __mul__

    def mul_zeta(self, exponent: int) -> CycloElem:
        """Multiply by zeta**exponent (a cyclic rotation of the coefficients)."""
        dim = self.dim
        e = exponent % dim
        if e == 0:
            return self
        coeffs = self.coeffs[dim - e:] + self.coeffs[:dim - e]
        return CycloElem._raw(dim, coeffs).canonical_reduce()

    def conj(self) -> CycloElem:
        """Complex conjugate: sends zeta**t to zeta**(d-t)."""
        dim = self.dim
        out = [0] * dim
        for t, c in enumerate(self.coeffs):
            out[-t] = c
        return CycloElem._raw(dim, tuple(out)).canonical_reduce()

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloElem):
            return other.dim == self.dim and other.coeffs == self.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    __hash__ = None

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"CycloElem({self.dim}, {self.coeffs})"

    def __str__(self) -> str:
        parts = []
        for t, c in enumerate(self.coeffs):
            if not c:
                continue
            unit = "" if t == 0 else ("z" if t == 1 else f"z^{t}")
            if not unit:
                parts.append(str(c))
            elif c == 1:
                parts.append(unit)
            elif c == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{c}*{unit}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def zeta_pow(dim: int, exponent: int) -> CycloElem:
    """The root of unity zeta**exponent in canonical form; exponents wrap mod d."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    e = exponent % dim
    coeffs = [0] * dim
    coeffs[e] = 1
    return CycloElem(dim, coeffs)


def rational_value(elem: CycloElem) -> Fraction:
    """Extract the value of an element known to be rational.

    Raises ValueError when the element is not rational.
    """
    if any(elem.coeffs[1:]):
        raise ValueError(f"element is not rational: {elem!r}")
    return Fraction(elem.coeffs[0])


def sqrt_rational(dim: int, value) -> CycloElem | None:
    """The positive square root of a positive rational as a ring element.

    Returns None when the field Q(zeta) does not contain it.  Writing
    value = s**2 * n with n squarefree, sqrt(n) lies in Q(zeta) only when
    every odd prime of n divides d, 8 divides d if 2 divides n, and 4
    divides d if n = 3 mod 4.  It is built from sqrt(2) = zeta_8 +
    zeta_8**-1 and the quadratic Gauss sums g_p = sum_a (a/p) zeta_p**a,
    which equal sqrt(p) for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    rest = value.numerator * value.denominator
    scale = Fraction(1, value.denominator)
    squarefree = []  # the primes of d in n
    for p in range(2, dim + 1):
        if dim % p:
            continue
        exp = 0  # stays 0 for composite p, whose primes are already divided out
        while rest % p == 0:
            rest //= p
            exp += 1
        scale *= p ** (exp // 2)
        if exp % 2:
            squarefree.append(p)
    root_rest = isqrt(rest)
    if root_rest * root_rest != rest:
        return None
    root = CycloElem.from_rational(dim, scale * root_rest)
    i_power = 0
    for p in squarefree:
        if p == 2:
            if dim % 8:
                return None
            root = root * (zeta_pow(dim, dim // 8) + zeta_pow(dim, -(dim // 8)))
            continue
        gauss = CycloElem.zero(dim)
        for a in range(1, p):
            term = zeta_pow(dim, a * (dim // p))
            gauss = gauss + term if pow(a, (p - 1) // 2, p) == 1 else gauss - term
        root = root * gauss
        i_power += p % 4 == 3
    if i_power % 2 == 0:
        return -root if i_power % 4 else root
    if dim % 4:
        return None
    return root.mul_zeta(-i_power * (dim // 4))


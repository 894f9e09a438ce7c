"""Exact scalar tower.

Everything downstream computes in one of three rings: arbitrary-precision
rationals, dense univariate polynomials over them, and the quadratic
extension Q[x][s]/(s^2 - m).  The characteristic roots of the recurrence
live in the extension with m = h^2 + 4, and the Chebyshev closed form runs
in the one with m = -1, which is Q[x][i].  All values are immutable and
all operations are pure, so instances can be shared freely.

`Poly` has one representation, an integer coefficient vector over a
positive denominator.  Polynomial products switch from the schoolbook loop
to Kronecker substitution (one big-integer multiply) once the shorter
operand has `KRONECKER_MIN_LEN` nonzero coefficients.  Sums and linear
combinations of many polynomials go through `poly_combination`, one pass
over the integer vectors.  `GaussRational` backs no computation in the
package and has no ties to `Poly`; it is kept only because the benchmark
tracer (`benchmarks/tracer.py`) looks up its operator methods.

Coefficients are exact rationals rather than floats on purpose: every
identity check in this package is an exact ring equality, and floats
cannot distinguish a theorem from a near miss.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Union

#: The base exact scalar: arbitrary-precision reduced fractions.  The
#: stdlib type already guarantees the invariants we rely on (positive
#: denominator, gcd-reduced, unique zero).
Rational = Fraction

RationalLike = Union[int, Fraction]

NEG_INF = float("-inf")


class NotDivisible(ArithmeticError):
    """Exact division failed: the divisor does not divide the dividend."""


class DivisorZero(ZeroDivisionError):
    """Exact division by zero was requested."""


class ModulusMismatch(ValueError):
    """Quadratic-extension elements with different moduli were combined."""


class NonRealResult(ArithmeticError):
    """A value expected to be plain rational kept an imaginary or radical
    part, or the characteristic roots break alpha + beta = h or
    alpha beta = -1; this always signals a fault upstream, never a data
    error."""


def binomial(n: int, k: int) -> int:
    """n choose k, with 0 whenever k > n so summation bounds need no
    special casing."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, k)


class GaussRational:
    """Gaussian rational a + b*i with i^2 = -1, over `Rational` parts.

    Standalone: `Poly` does not accept it as a coefficient."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


class Poly:
    """Dense univariate polynomial over the rationals, constant term first.

    The one representation is an integer coefficient vector `num` over one
    shared positive denominator `den`, reduced so that it is canonical: no
    trailing zero, and gcd(content, den) = 1.  The zero polynomial is the
    empty vector over 1 and its degree is the distinguished value
    `NEG_INF`.  Sums, products and convolutions therefore run in plain
    integer arithmetic, and the public face is the `coeffs` tuple.

    Products scale the other vector when one operand is a constant, use the
    schoolbook loop below `KRONECKER_MIN_LEN` nonzero coefficients in the
    shorter operand and Kronecker substitution from there on; subtraction
    of two polynomials over the same denominator works on the integer
    vectors directly.  Coefficients must be ints or `Fraction`s; anything else
    raises `TypeError`.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"Poly coefficients must be rational, got {c!r}")
        den = math.lcm(*[c.denominator for c in cs])
        canonical = Poly._rational([c.numerator * (den // c.denominator) for c in cs], den)
        object.__setattr__(self, "num", canonical.num)
        object.__setattr__(self, "den", canonical.den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _rational(cls, nums: list, den: int) -> "Poly":
        """Internal constructor from an integer vector and denominator."""
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        if n != len(nums):
            del nums[n:]
        if not nums:
            den = 1
        elif den != 1:
            nums, den = _reduce_content(nums, den)
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", tuple(nums))
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def _raw(cls, num: tuple, den: int) -> "Poly":
        # caller guarantees canonical form
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple:
        """Coefficients, constant term first, in canonical form."""
        if self.den == 1:
            return self.num
        d = self.den
        return tuple(Fraction(v, d) for v in self.num)

    @property
    def degree(self):
        """Degree, or `NEG_INF` for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def coefficient(self, k: int):
        """Coefficient of x^k (0 beyond the stored range)."""
        if not 0 <= k < len(self.num):
            return 0
        if self.den == 1:
            return self.num[k]
        return Fraction(self.num[k], self.den)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, da, b, db = self.num, self.den, o.num, o.den
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        if da == db:
            out = list(a)
            for i, v in enumerate(b):
                out[i] += v
            return Poly._rational(out, da)
        den = math.lcm(da, db)
        ma, mb = den // da, den // db
        out = [v * ma for v in a]
        for i, v in enumerate(b):
            out[i] += v * mb
        return Poly._rational(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return Poly._raw(tuple([-v for v in self.num]), self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self._mul_poly(other)
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    def _scale(self, s):
        if not s or not self.num:
            return _ZERO
        if s == 1:
            return self
        if s == -1:
            return -self
        if isinstance(s, int):
            return Poly._rational([v * s for v in self.num], self.den)
        p, q = s.numerator, s.denominator
        return Poly._rational([v * p for v in self.num], self.den * q)

    def _mul_poly(self, other: "Poly") -> "Poly":
        if not self.num or not other.num:
            return _ZERO
        return Poly._rational(_int_mul(self.num, other.num), self.den * other.den)

    def divexact(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor.

        Raises `DivisorZero` for a zero divisor and `NotDivisible` when
        the division leaves a remainder; a raised `NotDivisible` is how a
        failed identity check surfaces.
        """
        if not isinstance(divisor, Poly):
            divisor = Poly((divisor,))
        if not divisor.num:
            raise DivisorZero("exact division by the zero polynomial")
        if not self.num:
            return _ZERO
        dq = len(divisor.num) - 1
        if len(self.num) - 1 < dq:
            raise NotDivisible(f"degree {self.degree} < divisor degree {dq}")
        rem = list(self.coeffs)
        qc = divisor.coeffs
        lead = Fraction(qc[-1]) if isinstance(qc[-1], int) else qc[-1]
        out = [0] * (len(rem) - dq)
        for k in range(len(out) - 1, -1, -1):
            c = rem[k + dq]
            if not c:
                continue
            t = c / lead
            out[k] = t
            for i in range(dq):
                if qc[i]:
                    rem[k + i] = rem[k + i] - t * qc[i]
        if any(rem[:dq]):
            raise NotDivisible("nonzero remainder in exact division")
        return Poly(out)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as one
        if len(self.num) <= 1:
            return hash(self.coefficient(0))
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


#: Nonzero coefficients in the shorter operand from which `Poly` products
#: use Kronecker substitution; the schoolbook loop skips zero coefficients,
#: so its cost grows with their count, not the length.  Timed on
#: `seq --n 1000 // deg h` against schoolbook-only products (CPython 3.11,
#: 2 cores, best of 5): on a dense h the two are even at 12 coefficients
#: (deg 11: 0.15-0.19 s either way), and from there Kronecker wins, 1.05-1.4x
#: at deg 12, 1.3x at deg 16, 3.4x at deg 50 and 6-7x at deg 100 and 1000.
#: On a sparse h (x^k + x + 1), where the length alone picked Kronecker,
#: counting nonzeros took `seq` at k = 11, n = 90 from 0.098-0.116 to
#: 0.047-0.074 s, at k = 20, n = 50 from 0.042-0.056 to 0.022-0.036 s and at
#: k = 100, n = 10 from 0.005-0.009 to 0.003-0.005 s; dense h of degree 11 to
#: 50 did not move beyond noise (three alternating rounds, best of 5).  The
#: battery reaches no product this long; `seq` and `genfun` do, in h F_(n-1).
KRONECKER_MIN_LEN = 12


def _int_mul(a, b) -> list:
    """Integer coefficient vector of a * b for nonempty a and b: scaling by a
    constant, the schoolbook loop, or Kronecker substitution from
    `KRONECKER_MIN_LEN` nonzero coefficients in the shorter operand."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return [v * c for v in b]
    if len(a) >= KRONECKER_MIN_LEN and len(a) - a.count(0) >= KRONECKER_MIN_LEN:
        return _kronecker_mul(a, b)
    return _schoolbook_mul(a, b)


def _schoolbook_mul(a, b) -> list:
    """Integer coefficient vector of a * b, with len(a) <= len(b)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _kronecker_mul(a, b) -> list:
    """Integer coefficient vector of a * b by Kronecker substitution.

    Both vectors are evaluated at x = 2^(8w), with w bytes per slot wide
    enough that every product coefficient fits a signed slot, so one
    big-int multiply (Karatsuba inside CPython) replaces the
    len(a) * len(b) coefficient products.  Requires len(a) <= len(b).
    """
    bits = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
            + len(a).bit_length() + 2)
    w = (bits + 7) // 8
    packed_a = _kronecker_pack(a, w)
    product = packed_a * packed_a if a is b else packed_a * _kronecker_pack(b, w)
    return _kronecker_unpack(product, len(a) + len(b) - 1, w)


def _kronecker_pack(vals, w: int) -> int:
    """sum(v_i * 2^(8wi)) for signed v_i with |v_i| < 2^(8w-1)."""
    raw = b"".join([v.to_bytes(w, "little", signed=True) for v in vals])
    # A negative v_i sits in its slot as v_i + 2^(8w): take the surplus
    # 2^(8w(i+1)) back out.
    one, zero = b"\x01" + bytes(w - 1), bytes(w)
    surplus = b"".join([one if v < 0 else zero for v in vals])
    return int.from_bytes(raw, "little") - (int.from_bytes(surplus, "little") << 8 * w)


def _kronecker_unpack(value: int, count: int, w: int) -> list:
    """The `count` signed coefficients c_i of value = sum(c_i * 2^(8wi)).

    Each w-byte slot of the two's complement is read signed; a slot read
    as negative lent 2^(8w) to the slot above, which adds the borrow back.
    """
    raw = value.to_bytes(count * w, "little", signed=True)
    read = int.from_bytes
    slots = [read(raw[k:k + w], "little", signed=True) for k in range(0, count * w, w)]
    return slots[:1] + [v + (below < 0) for below, v in zip(slots, slots[1:])]


def _reduce_content(nums: list, den: int):
    """Divide out gcd(content, den) so (nums, den) is canonical."""
    if den == 1:
        return nums, 1
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


_ZERO = Poly()
_ONE = Poly((1,))

ZERO = _ZERO
ONE = _ONE
X = Poly((0, 1))


def as_poly(value) -> Poly:
    """Coerce an int, Rational, or Poly to a Poly over the rationals."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def poly_sum(polys) -> Poly:
    """Sum of many polynomials (`poly_combination` with unit multipliers)."""
    return poly_combination((p, 1) for p in polys)


def poly_combination(terms) -> Poly:
    """The linear combination sum(c * p) over `(Poly, int | Fraction)`
    pairs, in one pass over the integer vectors.

    Each rational term contributes its vector times one integer
    multiplier, c rescaled to the common denominator, so no per-term
    `Poly` is built and the content is reduced once.  A lone term with
    multiplier 1 is returned as it is.
    """
    kept = []
    den = 1
    for p, c in terms:
        if not c or not p.num:
            continue
        d = p.den if isinstance(c, int) else p.den * c.denominator
        if den % d:
            den = math.lcm(den, d)
        kept.append((p, c, d))
    if not kept:
        return _ZERO
    if len(kept) == 1 and kept[0][1] == 1:
        return kept[0][0]
    out = [0] * max(len(p.num) for p, _, _ in kept)
    for p, c, d in kept:
        num = p.num
        m = (c if isinstance(c, int) else c.numerator) * (den // d)
        if m == 1:
            out[:len(num)] = map(add, out, num)
        elif m == -1:
            out[:len(num)] = map(sub, out, num)
        else:
            out[:len(num)] = map(add, out, map(mul, num, repeat(m)))
    return Poly._rational(out, den)


class QuadExt:
    """Element a + b*s of Q[x][s]/(s^2 - modulus).

    The modulus travels with the element; combining elements that carry
    different moduli is a hard `ModulusMismatch` error rather than a
    silent coercion, because a context may hold many extensions at once.
    """

    __slots__ = ("a", "b", "modulus")

    def __init__(self, a, b, modulus):
        object.__setattr__(self, "a", as_poly(a))
        object.__setattr__(self, "b", as_poly(b))
        object.__setattr__(self, "modulus", as_poly(modulus))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def one(cls, modulus) -> "QuadExt":
        return cls(_ONE, _ZERO, modulus)

    @classmethod
    def from_poly(cls, p, modulus) -> "QuadExt":
        return cls(p, _ZERO, modulus)

    def _check(self, other: "QuadExt"):
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"cannot combine s^2={self.modulus!r} with s^2={other.modulus!r}"
            )

    def __add__(self, other):
        if isinstance(other, QuadExt):
            self._check(other)
            return QuadExt(self.a + other.a, self.b + other.b, self.modulus)
        if isinstance(other, (int, Fraction, Poly)):
            return QuadExt(self.a + other, self.b, self.modulus)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            self._check(other)
            return QuadExt(self.a - other.a, self.b - other.b, self.modulus)
        if isinstance(other, (int, Fraction, Poly)):
            return QuadExt(self.a - other, self.b, self.modulus)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.modulus)

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            self._check(other)
            a, b, c, d = self.a, self.b, other.a, other.b
            return QuadExt(a * c + (b * d) * self.modulus, a * d + b * c, self.modulus)
        if isinstance(other, (int, Fraction, Poly)):
            return QuadExt(self.a * other, self.b * other, self.modulus)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return QuadExt(self.a * other, self.b * other, self.modulus)
        return NotImplemented

    def conjugate(self) -> "QuadExt":
        """The s -> -s conjugate (a ring automorphism)."""
        return QuadExt(self.a, -self.b, self.modulus)

    def divexact_by_s(self) -> "QuadExt":
        """Exact quotient by s, requiring modulus | a.

        (b + (a/m) s) * s == a + b s, so this inverts multiplication by s.
        A `NotDivisible` here means a malformed closed-form numerator and
        is always a test failure, never expected behaviour.
        """
        return QuadExt(self.b, self.a.divexact(self.modulus), self.modulus)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (
                self.modulus == other.modulus
                and self.a == other.a
                and self.b == other.b
            )
        if isinstance(other, (int, Fraction, Poly)):
            return not self.b and self.a == as_poly(other)
        return NotImplemented

    def __hash__(self):
        # with b = 0 the element equals the Poly a, so it hashes as one
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.modulus))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, s^2={self.modulus!r})"


def root_modulus(h) -> Poly:
    """The discriminant-style modulus h^2 + 4 attached to a given h."""
    h = as_poly(h)
    return h * h + 4


def quad_from_alpha(h) -> QuadExt:
    """The root (h + s)/2 of v^2 - h v - 1 = 0, with s^2 = h^2 + 4."""
    h = as_poly(h)
    half = Fraction(1, 2)
    return QuadExt(h * half, Poly((half,)), root_modulus(h))


def quad_from_beta(h) -> QuadExt:
    """The conjugate root (h - s)/2."""
    h = as_poly(h)
    half = Fraction(1, 2)
    return QuadExt(h * half, Poly((-half,)), root_modulus(h))

"""The recurrence F_{h,n} = h * F_{h,n-1} + F_{h,n-2} with F_0 = 0 and
F_1 = 1, over an arbitrary rational-coefficient polynomial h, together
with every closed form and identity the sequence satisfies, each as an
exact verifier.

Every check with a denominator is run in cleared form or through exact
ring division with a divisibility assertion, so a verdict is an exact
ring equality.  The single exception is `ratio_limit_check`, the only
floating-point computation in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import (
    ONE,
    ZERO,
    NonRealResult,
    Poly,
    QuadExt,
    as_poly,
    binomial,
    poly_sum,
    quad_from_alpha,
    quad_from_beta,
    root_modulus,
)


class ZeroH(ValueError):
    """The identity divides by h, so h = 0 is rejected rather than given
    a limit interpretation."""


class IndexConstraintViolated(ValueError):
    """Index preconditions (ordering, nonnegativity, balance) failed."""


class DomainError(ValueError):
    """Numeric spot-check requested outside its guaranteed domain."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact identity check; `witness` locates the first
    discrepancy when the check fails."""

    ok: bool
    witness: Optional[str] = None


# Seed of the recurrence, read at context construction.  The
# fault-injection battery patches this to prove the checks notice.
_INITIAL_TERMS = (0, 1)

#: 1, i, -1, -i in Q[x][i], the quadratic extension with modulus -1.
_I_POWERS = tuple(QuadExt(a, b, -1) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def _eval_float(p: Poly, x: float) -> float:
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


class FibContext:
    """Memoizing home of one h and everything derived from it.

    Contexts are cheap and single-owner: the caches grow monotonically
    and are not thread-safe, so concurrent verification should give each
    task its own context.
    """

    def __init__(self, h):
        self.h = as_poly(h)
        self.modulus = root_modulus(self.h)
        f0, f1 = _INITIAL_TERMS
        self._fib = [as_poly(f0), as_poly(f1)]
        self._products: dict[tuple[int, int], Poly] = {}
        self._h_pows = [ONE]
        self._disc_pows = [ONE]
        self._alpha_pows: list[QuadExt] | None = None
        self._cheb: list[QuadExt] | None = None
        self._cheb_step: QuadExt | None = None

    # -- the recurrence ------------------------------------------------

    def fib(self, n: int) -> Poly:
        """F_{h,n} by the memoized recurrence."""
        if n < 0:
            raise IndexConstraintViolated("negative indices are undefined here")
        cache = self._fib
        while len(cache) <= n:
            cache.append(self.h * cache[-1] + cache[-2])
        return cache[n]

    def fib_product(self, u: int, v: int) -> Poly:
        """F_u * F_v, memoized; the quadratic identities reuse a small set
        of such products heavily."""
        key = (u, v) if u <= v else (v, u)
        got = self._products.get(key)
        if got is None:
            got = self.fib(key[0]) * self.fib(key[1])
            self._products[key] = got
        return got

    # -- characteristic roots -------------------------------------------

    def roots(self) -> tuple[QuadExt, QuadExt]:
        """The two roots of v^2 - h v - 1 = 0 in Q[x][s]/(s^2 - (h^2+4))."""
        return quad_from_alpha(self.h), quad_from_beta(self.h)

    def alpha_pow(self, n: int) -> QuadExt:
        pows = self._alpha_pows
        if pows is None:
            alpha = self.roots()[0]
            pows = self._alpha_pows = [QuadExt.one(alpha.modulus), alpha]
        while len(pows) <= n:
            pows.append(pows[-1] * pows[1])
        return pows[n]

    def beta_pow(self, n: int) -> QuadExt:
        # beta is the s -> -s conjugate of alpha, and conjugation is a
        # ring automorphism, so beta^n is the conjugate of alpha^n.
        return self.alpha_pow(n).conjugate()

    # -- closed forms ----------------------------------------------------

    def _h_pow(self, k: int) -> Poly:
        pows = self._h_pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.h)
        return pows[k]

    def _disc_pow(self, k: int) -> Poly:
        pows = self._disc_pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.modulus)
        return pows[k]

    def explicit_binomial(self, n: int) -> Poly:
        """Binomial closed form: sum of C(n-k-1, k) h^(n-2k-1)."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        return poly_sum(
            self._h_pow(n - 2 * k - 1) * binomial(n - k - 1, k)
            for k in range(0, (n - 1) // 2 + 1)
        )

    def explicit_halving(self, n: int) -> Poly:
        """Halving closed form:
        2^(1-n) * sum of C(n, 2k+1) h^(n-2k-1) (h^2+4)^k, exact."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        total = poly_sum(
            (self._h_pow(n - 2 * k - 1) * self._disc_pow(k)) * binomial(n, 2 * k + 1)
            for k in range(0, (n - 1) // 2 + 1)
        )
        return total * Fraction(1, 2 ** (n - 1))

    def _chebyshev_u(self, m: int) -> QuadExt:
        if self._cheb is None:
            # 2t at t = h/(2i) is -i*h; all arithmetic over Q[x][i]
            step = QuadExt(0, -self.h, -1)
            self._cheb = [QuadExt.one(-1), step]
            self._cheb_step = step
        us = self._cheb
        while len(us) <= m:
            us.append(us[-1] * self._cheb_step - us[-2])
        return us[m]

    def chebyshev_form(self, n: int) -> Poly:
        """i^(n-1) U_{n-1}(h/(2i)) with U the second-kind Chebyshev
        recurrence U_0 = 1, U_1 = 2t; the imaginary parts must cancel."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        scaled = self._chebyshev_u(n - 1) * _I_POWERS[(n - 1) % 4]
        if scaled.b:
            raise NonRealResult(f"imaginary residue {scaled.b!r} in Chebyshev form")
        return scaled.a

    def binet(self, n: int) -> Poly:
        """(alpha^n - beta^n) / (alpha - beta), via exact division by s."""
        if n < 0:
            raise IndexConstraintViolated("negative indices are undefined here")
        quotient = (self.alpha_pow(n) - self.beta_pow(n)).divexact_by_s()
        if quotient.b:
            raise NonRealResult("radical residue in closed-form quotient")
        return quotient.a

    def differential_form(self, n: int) -> Poly:
        """sum over k of (1/k!) d^k/dh^k h^(n-k-1), computed literally in
        the formal ring Q[h] and then composed with the concrete h."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        terms = []
        for k in range(0, (n - 1) // 2 + 1):
            mono = Poly.monomial(n - k - 1)
            for _ in range(k):
                mono = mono.derivative()
            terms.append(mono * Fraction(1, math.factorial(k)))
        return poly_sum(terms).compose(self.h)

    # -- identity verifiers ----------------------------------------------

    def genfun_check(self, trunc: int) -> Verdict:
        """Truncated check of the generating function t / (1 - h t - t^2):
        multiplying the series by the denominator must leave exactly t."""
        series = Poly([self.fib(i) for i in range(trunc + 1)])
        denom = Poly((ONE, -self.h, -ONE))
        product = denom * series
        for j in range(trunc + 1):
            expected = ONE if j == 1 else ZERO
            if product.coefficient(j) != expected:
                return Verdict(False, f"t^{j} coefficient of (1-ht-t^2)*series")
        return Verdict(True)

    def sum_identity_check(self, n: int) -> Verdict:
        """h * sum(F_1..F_n) == F_{n+1} + F_n - 1 (denominator cleared)."""
        if not self.h:
            raise ZeroH("the summation identity divides by h")
        if n < 1:
            raise IndexConstraintViolated("partial sums start at n = 1")
        lhs = self.h * poly_sum(self.fib(k) for k in range(1, n + 1))
        rhs = self.fib(n + 1) + self.fib(n) - 1
        if lhs != rhs:
            return Verdict(False, f"partial sum up to n={n}")
        return Verdict(True)

    def catalan_check(self, n: int, r: int) -> Verdict:
        """F_{n-r} F_{n+r} - F_n^2 == (-1)^(n-r-1) F_r^2."""
        if not 0 <= r <= n:
            raise IndexConstraintViolated("need 0 <= r <= n")
        lhs = self.fib_product(n - r, n + r) - self.fib_product(n, n)
        sign = -1 if (n - r - 1) % 2 else 1
        rhs = self.fib_product(r, r) * sign
        if lhs != rhs:
            return Verdict(False, f"n={n}, r={r}")
        return Verdict(True)

    def index_shift_check(self, a: int, b: int, c: int, d: int, r: int) -> Verdict:
        """F_a F_b - F_c F_d == (-1)^r (F_{a-r} F_{b-r} - F_{c-r} F_{d-r})
        for a + b = c + d; all shifted indices must stay nonnegative."""
        if a + b != c + d:
            raise IndexConstraintViolated("need a + b = c + d")
        if r < 0 or min(a, b, c, d) < r:
            raise IndexConstraintViolated("shift would reach a negative index")
        lhs = self.fib_product(a, b) - self.fib_product(c, d)
        shifted = self.fib_product(a - r, b - r) - self.fib_product(c - r, d - r)
        rhs = shifted * (-1 if r % 2 else 1)
        if lhs != rhs:
            return Verdict(False, f"a={a}, b={b}, c={c}, d={d}, r={r}")
        return Verdict(True)

    def ratio_limit_check(self, x0: float, n: int) -> float:
        """|F_{n+1}(x0)/F_n(x0) - alpha(x0)| in double precision.

        The ratio R_n = F_{n+1}/F_n itself is iterated on numeric values,
        R_1 = h(x0) and R_k = h(x0) + 1/R_{k-1}, so it stays bounded where
        the terms F_n would overflow.  Requires h(x0) > 0 so that the
        dominant root wins and no denominator vanishes."""
        if n < 1:
            raise IndexConstraintViolated("the ratio needs n >= 1")
        hv = _eval_float(self.h, float(x0))
        if hv <= 0:
            raise DomainError(f"h({x0}) = {hv} <= 0 breaks the ratio guarantee")
        ratio = hv
        for _ in range(n - 1):
            ratio = hv + 1.0 / ratio
        alpha = (hv + math.sqrt(hv * hv + 4.0)) / 2.0
        return abs(ratio - alpha)

    def ratio_tolerance(self, x0: float, n: int) -> float:
        """Decay-envelope tolerance |beta/alpha|^n |alpha-beta| for the
        ratio spot-check, floored by accumulated float noise."""
        hv = _eval_float(self.h, float(x0))
        root = math.sqrt(hv * hv + 4.0)
        alpha = (hv + root) / 2.0
        beta = (hv - root) / 2.0
        envelope = 4.0 * abs(beta / alpha) ** n * root
        return max(envelope, 64 * n * math.ulp(alpha))

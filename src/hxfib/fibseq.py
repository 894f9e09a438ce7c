"""The recurrence F_{h,n} = h * F_{h,n-1} + F_{h,n-2} with F_0 = 0 and
F_1 = 1, over an arbitrary rational-coefficient polynomial h, together
with every closed form and identity the sequence satisfies, each as an
exact verifier.

Every check with a denominator is run in cleared form or through exact
ring division with a divisibility assertion, so a verdict is an exact
ring equality.  The single exception is `ratio_limit_check`, the only
floating-point computation in the package.

The scalar instances that the algebra Catalan, Cassini and d'Ocagne
checks of `hyperfib` read at their bases compare big integers instead of
polynomials.  With h = H/d and H over Z, the terms G_n = d^(n-1) F_n have
integer coefficients (the cache's denominators are checked to divide
d^(n-1)), and each instance multiplied through by a power of d becomes one
among products G_u G_v, powers of d and integer vectors.  Every G_n is evaluated once at x = 2^(8w) (Kronecker
substitution), so a product G_u G_v is one big-integer multiply and the
instance one comparison of integers, with no float anywhere.  The
comparison is exact because evaluation at 2^(8w) is injective on integer
polynomials whose coefficients lie below 2^(8w-1) in absolute value.
`FibContext._vanishes` makes every such comparison from its terms alone
(one difference G_u G_v - G_u' G_v', an integer vector factor, and
weighted integer vectors V on the right): the bound ||factor|| (N_u N_v +
N_u' N_v' + 1) + sum |c| ||V||, N_k = ||G_k||_1, covers every coefficient
of the left side minus the right side and of every vector packed, and w
is picked from it and asserted.  The base flags, `_catalan_base` and
`_docagne_base`, are memoized here so that every table over one h shares
them (see the `hyperfib` docstring).

The quadratic identities follow from the recurrence, through the shift
by one.  With K(u, v) = G_u G_v + d^2 G_{u-1} G_{v-1}, the shift by one
on (a, b, c, d), a + b = c + d, is K(a, b) == K(c, d).  Times d^(k-1),
`residual(k)` below is G_k - H G_{k-1} - d^2 G_{k-2}; where it vanishes at
p and q + 1, substituting the recurrence there gives
K(p, q) = K(p - 1, q + 1) (p >= 2, q >= 1).  So if every residual on
[2, T] vanishes, which `_recurrence_holds(T)` memoizes as the largest such
T, every shift by one among indices in [1, T] holds.  Each reader asks it
for its top index T, which scales G to T so that `NotDivisible` comes
where a comparison reading index T raises it:

- `index_shift_check` at r >= 1, T = max(a, b, c, d): r shifts by one;
- `catalan_check` at n > r, T = n + r, with G_0 = 0: n - r shifts leave
  G_0 G_{2r} - G_r^2 = -G_r^2 (at n = r it reads G_0 G_2n == 0 from the
  norms N_0 and N_2n);
- the Catalan instance E(m, r, delta), T = m + max(r, delta): above its
  base, the smallest m whose four indices are nonnegative,
  D(m) == -d^2 D(m-1) is a shift by one and the right side of E(m) is -d^2
  times that of E(m-1), so E(m) holds exactly when its base does;
- the d'Ocagne instance E'(u, v) at m = min(u, v) >= 1, T = max(u, v) + 1:
  likewise, each side of E'(u, v) is -d^2 times that of E'(u - 1, v - 1),
  so it holds exactly when E'(u - m, v - m) does.

An algebra check reads its instances in one call, `catalan_instances` or
`docagne_instances`: whether the recurrence reaches the largest T among
them and every base holds, memoized per table.  Where the recurrence and
the bases prove nothing, a check compares exactly in Q[x] on the memoized
products `fib_product`: the scalar checks themselves, the algebra checks
per table.  So a packed comparison is made only at a base.

The binomial, halving and differential closed forms are evaluated the
same way by `FibContext._packed_form`: each is an integer combination of
h^i (h^2+4)^j over a denominator, which times d^(n-1) is an integer
polynomial in H and M' = H^2 + 4d^2, evaluated at one packed point from
cached powers of H(2^(8w)) by Horner in M'(2^(8w)) and unpacked once.

The generating-function and summation checks read the memoized facts
`residual(m)` = F_m - h F_(m-1) - F_(m-2) and `h_partial_sum(j)`, which
the recurrence and genfun checks of `hyperfib` share.  Its partial-sum
check reads `sum_residual(j)` = h (F_1 + ... + F_j) - F_(j+1) - F_j + 1,
built once per j from `h_partial_sum(j)` for every table over one h.
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
    NotDivisible,
    Poly,
    QuadExt,
    _kronecker_pack,
    _kronecker_unpack,
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


#: The verdict of every check that holds: `Verdict` is frozen, so one
#: instance serves them all.
HOLDS = Verdict(True)

# Seed of the recurrence, read at context construction.  The
# fault-injection battery patches this to prove the checks notice.
_INITIAL_TERMS = (0, 1)

#: 1, i, -1, -i in Q[x][i], the quadratic extension with modulus -1.
_I_POWERS = tuple(QuadExt(a, b, -1) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def _pack_width(bound: int) -> int:
    """Bytes per Kronecker slot for values bounded by `bound` in absolute
    value: the smallest power of two w with bound < 2^(8w-1).  Powers of
    two keep the number of distinct packings of each G_n small."""
    need = bound.bit_length() // 8 + 1
    return 1 << (need - 1).bit_length()


def _checked_width(bound: int) -> int:
    """`_pack_width(bound)`, asserted to hold every value up to `bound`."""
    w = _pack_width(bound)
    if bound.bit_length() >= 8 * w:
        raise AssertionError(f"{w}-byte slots cannot hold coefficients up to {bound}")
    return w


class _PackedProducts(dict):
    """G_u(2^(8w)) G_v(2^(8w)) by (u, v) and (v, u) at slot width w, made on
    first read from a context's G_k and N_k; a zero N_u or N_v gives 0.
    `vector` packs any other integer vector once at this width."""

    def __init__(self, scaled: list, norms: list, w: int):
        super().__init__()
        self.scaled, self.norms, self.w, self.packed, self.vectors = scaled, norms, w, {}, {}

    def __missing__(self, key: tuple[int, int]) -> int:
        u, v = key
        if not (self.norms[u] and self.norms[v]):
            got = 0
        else:
            for k in key:
                if k not in self.packed:
                    self.packed[k] = _kronecker_pack(self.scaled[k], self.w)
            got = self.packed[u] * self.packed[v]
        self[key] = self[v, u] = got
        return got

    def vector(self, vec: tuple) -> int:
        got = self.vectors.get(vec)
        if got is None:
            got = self.vectors[vec] = _kronecker_pack(vec, self.w)
        return got


def _vajda_terms(m: int, r: int, delta: int) -> tuple:
    """The right side of the Catalan instance E(m, r, delta) as two
    (sign, e, k) terms sign d^e A_k: (-1)^(m+min(0,delta)) d^(2 min(m,
    m+delta)) A_|delta| and -(-1)^(m+r+min(2r,delta)) d^(2m+delta-|2r-delta|)
    A_|2r-delta|."""
    far = abs(2 * r - delta)
    return ((-1 if (m + min(0, delta)) % 2 else 1, 2 * min(m, m + delta), abs(delta)),
            (1 if (m + r + min(2 * r, delta)) % 2 else -1, 2 * m + delta - far, far))


def _docagne_terms(e: int) -> tuple:
    """The right side of the d'Ocagne instance E'(u, v) at its base,
    min(u, v) = 0 and e = u - v, as (sign, 0, k) terms sign d^0 B_k:
    sgn(e) B_|e|, and none at e = 0."""
    return ((1 if e > 0 else -1, 0, abs(e)),) if e else ()


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
        # F_m - h F_(m-1) - F_(m-2) at m - 2, h (F_1 + ... + F_j) and
        # h (F_1 + ... + F_j) - F_(j+1) - F_j + 1 at j, and the closed form
        # by index, shared by every table over this h
        self._residuals: list[Poly] = []
        self._h_partial_sums = [ZERO]
        self._sum_residuals: list[Poly] = []
        self._binets: dict[int, Poly] = {}
        # G_n = d^(n-1) F_n as integer vectors, their 1-norms, and per
        # slot width w the memoized products G_u(2^(8w)) G_v(2^(8w))
        self._scaled: list[tuple] = []
        self._norms: list[int] = []
        self._den_pows = [1]
        self._packed_products: dict[int, _PackedProducts] = {}
        # per slot width w, the powers of H(2^(8w)) that the packed closed
        # forms read, and the k-th derivatives of y^(n-k-1) at row n
        self._form_pows: dict[int, list[int]] = {}
        self._derivatives: list[list[Poly]] = [[]]
        self._alpha_pows: list[QuadExt] | None = None
        # M' = d^2 (h^2+4) as an integer vector with its 1-norm, the vectors
        # A_k and B_k by (k, odd), and the base flags: Catalan by (r, delta),
        # d'Ocagne by e = u - v
        modulus = (self.modulus * self.h.den ** 2).num
        self._cleared_modulus = modulus, sum(map(abs, modulus))
        self._root_vectors: dict[tuple[int, bool], tuple | None] = {}
        self._catalan_flags: dict[tuple[int, int], bool] = {}
        self._docagne_flags: dict[int, bool] = {}
        # the largest T with residual(k) == 0 for every 2 <= k <= T
        self._recurrence_top = 1
        self._root_failure: str | None = None  # "" once the relations hold
        self._cheb: list[QuadExt] | None = None

    # -- the recurrence ------------------------------------------------

    def fib(self, n: int) -> Poly:
        """F_{h,n} by the memoized recurrence."""
        if n < 0:
            raise IndexConstraintViolated("negative indices are undefined here")
        cache = self._fib
        while len(cache) <= n:
            cache.append(self.h * cache[-1] + cache[-2])
        return cache[n]

    def residual(self, m: int) -> Poly:
        """F_m - h F_(m-1) - F_(m-2) for m >= 2, memoized: zero unless the
        cached terms break the recurrence."""
        if m < 2:
            raise IndexConstraintViolated("residuals start at m = 2")
        residuals = self._residuals
        while len(residuals) <= m - 2:
            k = len(residuals) + 2
            residuals.append(self.fib(k) - self.h * self.fib(k - 1) - self.fib(k - 2))
        return residuals[m - 2]

    def h_partial_sum(self, j: int) -> Poly:
        """h (F_1 + ... + F_j) for j >= 0, memoized."""
        if j < 0:
            raise IndexConstraintViolated("partial sums start at j = 0")
        sums = self._h_partial_sums
        while len(sums) <= j:
            sums.append(sums[-1] + self.h * self.fib(len(sums)))
        return sums[j]

    def sum_residual(self, j: int) -> Poly:
        """h (F_1 + ... + F_j) - F_(j+1) - F_j + 1 for j >= 0, memoized:
        zero unless the cached terms are wrong."""
        if j < 0:
            raise IndexConstraintViolated("partial sums start at j = 0")
        rhos = self._sum_residuals
        while len(rhos) <= j:
            k = len(rhos)
            rhos.append(self.h_partial_sum(k) - self.fib(k + 1) - self.fib(k) + 1)
        return rhos[j]

    def fib_product(self, u: int, v: int) -> Poly:
        """F_u * F_v, memoized for every table over this h, whose
        per-table comparisons in `hyperfib` read them."""
        key = (u, v) if u <= v else (v, u)
        got = self._products.get(key)
        if got is None:
            got = self.fib(key[0]) * self.fib(key[1])
            self._products[key] = got
        return got

    # -- packed fraction-free terms ----------------------------------------

    def _scale_to(self, n: int) -> None:
        """Extend G_k = d^(k-1) F_k and N_k = ||G_k||_1 up to k = n, from the
        cached terms; a term whose denominator does not divide d^(k-1)
        raises `NotDivisible`."""
        d = self.h.den
        scaled, norms = self._scaled, self._norms
        for k in range(len(scaled), n + 1):
            f = self.fib(k)
            # G_k = num(F_k) d^k / (den(F_k) d), which covers G_0 = F_0 / d
            top, div = d ** k, f.den * d
            g = [v * top for v in f.num]
            if any(v % div for v in g):
                raise NotDivisible(f"d^{k - 1} F_{k} has a non-integer coefficient")
            g = tuple(v // div for v in g)
            scaled.append(g)
            norms.append(sum(map(abs, g)))

    def den_pow(self, k: int) -> int:
        """d^k for the denominator d of h."""
        pows = self._den_pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.h.den)
        return pows[k]

    def _vanishes(self, u: int, v: int, u2: int, v2: int, right=(), factor=None) -> bool:
        """Whether factor * (G_u G_v - G_u2 G_v2) == sum c V, compared between
        packed integers in slots whose width comes from these terms alone,
        by the bound of the module docstring, and is asserted.

        `right` holds (c, V, ||V||_1) and `factor` (V, ||V||_1) or None,
        with V an integer vector and every c a nonzero integer.  G is scaled
        up to each index read, which may raise `NotDivisible`."""
        self._scale_to(max(u, v, u2, v2))
        norms = self._norms
        bound = norms[u] * norms[v] + norms[u2] * norms[v2] + 1
        if factor is not None:
            bound *= factor[1]
        for c, _, norm in right:
            bound += abs(c) * norm
        w = _checked_width(bound)
        product = self._packed_products.get(w)
        if product is None:
            product = self._packed_products[w] = _PackedProducts(self._scaled, self._norms, w)
        lhs = product[u, v] - product[u2, v2]
        if factor is not None:
            lhs *= product.vector(factor[0])
        for c, vec, _ in right:
            lhs -= c * product.vector(vec)
        return not lhs

    def _recurrence_holds(self, top: int) -> bool:
        """Whether residual(k) == 0 for every 2 <= k <= top, which proves
        every shift by one up to index top (see the module docstring).  G
        is scaled up to top first, as a comparison reading index top scales
        it.  Memoized as the largest top verified, extended in a loop."""
        if top < len(self._norms) and top <= self._recurrence_top:
            return True  # the memo starts at 1 with nothing scaled
        self._scale_to(top)
        while self._recurrence_top < top:
            if self.residual(self._recurrence_top + 1):
                return False
            self._recurrence_top += 1
        return True

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

    def require_root_relations(self) -> None:
        """Raise `NonRealResult` unless alpha + beta = h and alpha beta = -1
        hold exactly for `roots()`.  The algebra right sides are sums of
        the powers of alpha alone, valid only under both relations; the
        check runs once per context."""
        if self._root_failure is None:
            alpha, beta = self.roots()
            if alpha + beta != self.h:
                self._root_failure = "alpha + beta = h"
            elif alpha * beta != -1:
                self._root_failure = "alpha beta = -1"
            else:
                self._root_failure = ""
        if self._root_failure:
            raise NonRealResult(f"the roots break {self._root_failure}")

    # -- closed forms ----------------------------------------------------

    def _packed_form(self, terms, den: int, n: int) -> Poly:
        """F_n from a closed form in h and h^2 + 4, evaluated at one packed
        point (see the module docstring).

        With h = H/d and M' = H^2 + 4d^2 = d^2 (h^2 + 4), each
        (weight, i, j) in `terms`, i + 2j <= n - 1, stands for
        weight H^i M'^j d^(n-1-i-2j), and the form is their sum G over
        den d^(n-1).  Every coefficient of G is bounded by the sum of
        |weight| N_H^i N_M'^j d^(n-1-i-2j), with N_H = ||H||_1 and
        N_M' = N_H^2 + 4d^2, and every coefficient of H by N_H; w is picked
        from the larger of the two and asserted.
        H is packed at x = 2^(8w), its powers cached per width, G(2^(8w))
        is summed by Horner in M'(2^(8w)), so that every product of two
        large integers has the short M'(2^(8w)) as a factor, and unpacked
        once."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        num, d = self.h.num, self.h.den
        terms = [(c * self.den_pow(n - 1 - i - 2 * j), i, j) for c, i, j in terms]
        norm_h = sum(map(abs, num))
        norm_m = norm_h * norm_h + 4 * d * d
        w = _checked_width(max(norm_h, sum(abs(c) * norm_h ** i * norm_m ** j
                                           for c, i, j in terms)))
        powers = self._form_pows.get(w)
        if powers is None:
            powers = self._form_pows[w] = [1, _kronecker_pack(num, w)]
        top = max((i for _, i, _ in terms), default=0)
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
        parts = [0] * (max((j for *_, j in terms), default=0) + 1)
        for c, i, j in terms:
            parts[j] += c * powers[i]
        m, value = powers[1] * powers[1] + 4 * d * d, 0
        for part in reversed(parts):
            value = value * m + part
        count = max((i + 2 * j for _, i, j in terms), default=0) * max(len(num) - 1, 0) + 1
        return Poly._rational(_kronecker_unpack(value, count, w), den * self.den_pow(n - 1))

    def explicit_binomial(self, n: int) -> Poly:
        """Binomial closed form: sum of C(n-k-1, k) h^(n-2k-1)."""
        return self._packed_form(
            [(binomial(n - k - 1, k), n - 2 * k - 1, 0) for k in range(0, (n - 1) // 2 + 1)],
            1, n)

    def explicit_halving(self, n: int) -> Poly:
        """Halving closed form:
        2^(1-n) * sum of C(n, 2k+1) h^(n-2k-1) (h^2+4)^k, exact."""
        return self._packed_form(
            [(binomial(n, 2 * k + 1), n - 2 * k - 1, k) for k in range(0, (n - 1) // 2 + 1)],
            2 ** (n - 1), n)

    def _chebyshev_u(self, m: int) -> QuadExt:
        if self._cheb is None:
            # U_1 = 2t at t = h/(2i) is -i*h, and 2t steps U_(m+1) = 2t U_m - U_(m-1);
            # all arithmetic over Q[x][i]
            self._cheb = [QuadExt.one(-1), QuadExt(0, -self.h, -1)]
        us = self._cheb
        while len(us) <= m:
            us.append(us[-1] * us[1] - us[-2])
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
        """(alpha^n - beta^n) / (alpha - beta), via exact division by s;
        memoized, since the hyper-Binet check of every table reads it."""
        got = self._binets.get(n)
        if got is None:
            if n < 0:
                raise IndexConstraintViolated("negative indices are undefined here")
            quotient = (self.alpha_pow(n) - self.beta_pow(n)).divexact_by_s()
            if quotient.b:
                raise NonRealResult("radical residue in closed-form quotient")
            got = self._binets[n] = quotient.a
        return got

    def differential_form(self, n: int) -> Poly:
        """sum over k of (1/k!) d^k/dy^k y^(n-k-1), computed literally in
        the formal ring Q[y] and then evaluated at y = h by `_packed_form`.
        Each k-th derivative of y^(n-k-1) is one derivative of the memoized
        (k-1)-th one, from row n - 1."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        rows = self._derivatives
        while len(rows) <= n:
            m = len(rows)
            rows.append([Poly.monomial(m - 1)] + [q.derivative() for q in rows[-1][:(m - 1) // 2]])
        p = poly_sum(q * Fraction(1, math.factorial(k)) for k, q in enumerate(rows[n]))
        return self._packed_form([(c, j, 0) for j, c in enumerate(p.num) if c], p.den, n)

    # -- identity verifiers ----------------------------------------------

    def genfun_check(self, trunc: int) -> Verdict:
        """Truncated check of the generating function t / (1 - h t - t^2):
        multiplying the series by the denominator must leave exactly t.
        Coefficient j of that product is the convolution
        F_j - h F_{j-1} - F_{j-2}, with the terms at negative indices left
        out, compared for j <= trunc; from j = 2 on it is `residual(j)`."""
        if trunc < 0:
            raise IndexConstraintViolated("the truncation order starts at 0")
        heads = (self.fib(0), self.fib(1) - self.h * self.fib(0))
        for j in range(trunc + 1):
            got = heads[j] if j < 2 else self.residual(j)
            if got != (ONE if j == 1 else ZERO):
                return Verdict(False, f"t^{j} coefficient of (1-ht-t^2)*series")
        return HOLDS

    def sum_identity_check(self, n: int) -> Verdict:
        """h * sum(F_1..F_n) == F_{n+1} + F_n - 1 (denominator cleared)."""
        if not self.h:
            raise ZeroH("the summation identity divides by h")
        if n < 1:
            raise IndexConstraintViolated("partial sums start at n = 1")
        if self.h_partial_sum(n) != self.fib(n + 1) + self.fib(n) - 1:
            return Verdict(False, f"partial sum up to n={n}")
        return HOLDS

    def catalan_check(self, n: int, r: int) -> Verdict:
        """F_{n-r} F_{n+r} - F_n^2 == (-1)^(n-r-1) F_r^2.  At n > r the
        recurrence proves it where its prefix reaches n + r and G_0 = 0 (see
        the module docstring); elsewhere it is compared in Q[x].  At n = r
        it reads G_0 G_2n == 0, which holds exactly when N_0 or N_2n is
        zero."""
        if not 0 <= r <= n:
            raise IndexConstraintViolated("need 0 <= r <= n")
        if n == r:
            self._scale_to(2 * n)  # NotDivisible as the comparison raises it
            holds = not (self._norms[0] and self._norms[2 * n])
        elif self._recurrence_holds(n + r) and not self._norms[0]:
            holds = True
        else:
            product = self.fib_product
            right = product(r, r)
            holds = product(n - r, n + r) - product(n, n) == (right if (n - r) % 2 else -right)
        return HOLDS if holds else Verdict(False, f"n={n}, r={r}")

    def index_shift_check(self, a: int, b: int, c: int, d: int, r: int) -> Verdict:
        """F_a F_b - F_c F_d == (-1)^r (F_{a-r} F_{b-r} - F_{c-r} F_{d-r})
        for a + b = c + d; all shifted indices must stay nonnegative.  It
        holds at r = 0 and where the recurrence prefix reaches
        max(a, b, c, d) (see the module docstring); elsewhere it is
        compared in Q[x]."""
        if a + b != c + d:
            raise IndexConstraintViolated("need a + b = c + d")
        if r < 0 or min(a, b, c, d) < r:
            raise IndexConstraintViolated("shift would reach a negative index")
        if self._recurrence_holds(max(a, b, c, d)) or not r:
            return HOLDS
        product = self.fib_product
        shifted = product(a - r, b - r) - product(c - r, d - r)
        if product(a, b) - product(c, d) != (-shifted if r % 2 else shifted):
            return Verdict(False, f"a={a}, b={b}, c={c}, d={d}, r={r}")
        return HOLDS

    # -- scalar instances of the algebra identities ------------------------

    def _root_vector(self, k: int, odd: bool) -> tuple | None:
        """(A_k, ||A_k||_1) with A_k = 2 d^k a_k, or with `odd`
        (B_k, ||B_k||_1) with B_k = 2 d^(k-1) b_k for k >= 1, where
        alpha^k = a_k + b_k s; None where the vector is not integral."""
        key = (k, odd)
        if key not in self._root_vectors:
            power = self.alpha_pow(k)
            p = power.b if odd else power.a
            scale = 2 * self.den_pow(k - 1 if odd else k)
            if scale % p.den:
                self._root_vectors[key] = None
            else:
                vec = tuple(c * (scale // p.den) for c in p.num)
                self._root_vectors[key] = vec, sum(map(abs, vec))
        return self._root_vectors[key]

    def _right_side(self, terms, odd: bool) -> list | None:
        """(sign d^e, vector, 1-norm) for each (sign, e, k) term of an
        instance's right side, the vector A_k, or B_k with `odd`; None
        where one of them is not integral."""
        out = []
        for sign, e, k in terms:
            got = self._root_vector(k, odd)
            if got is None:
                return None
            out.append((sign * self.den_pow(e), *got))
        return out

    def _catalan_base(self, r: int, delta: int) -> bool:
        """Whether the Catalan instance E(m, r, delta) at its base
        m = max(0, -delta, r - delta), the smallest m whose four indices are
        nonnegative, holds: M' D(m) == sum of sign d^e A_k over
        `_vajda_terms(m, r, delta)` with D(m) = G_{m+r} G_{m-r+delta} -
        G_m G_{m+delta}.  Memoized by (r, delta) for every table over this h."""
        got = self._catalan_flags.get((r, delta))
        if got is None:
            m = max(0, -delta, r - delta)
            right = self._right_side(_vajda_terms(m, r, delta), False)
            got = self._catalan_flags[r, delta] = right is not None and self._vanishes(
                m + r, m - r + delta, m, m + delta, right, self._cleared_modulus)
        return got

    def catalan_instances(self, n: int, r: int, pairs, memo: dict) -> bool:
        """Whether the recurrence proves every Catalan instance
        E(n + i, r, j - i) over `pairs`: its prefix reaches n + reach, with
        reach = max(i + max(r, j - i)), and the base of every delta = j - i
        holds (see the module docstring).  `memo`, kept by the caller per
        table, holds (reach, whether every base holds) by r.  False proves
        nothing: the caller then compares per table."""
        got = memo.get(r)
        if got is None:
            got = memo[r] = (max(i + max(r, j - i) for i, j in pairs), all(
                self._catalan_base(r, delta) for delta in {j - i for i, j in pairs}))
        return self._recurrence_holds(n + got[0]) and got[1]

    def _docagne_base(self, e: int) -> bool:
        """Whether the d'Ocagne instance E'(u, v) at its base
        (u, v) = (max(e, 0), max(-e, 0)), e = u - v, holds:
        G_u G_{v+1} - G_{u+1} G_v == sign B_k over `_docagne_terms(e)`.
        Memoized by e for every table over this h."""
        got = self._docagne_flags.get(e)
        if got is None:
            u, v = max(e, 0), max(-e, 0)
            right = self._right_side(_docagne_terms(e), True)
            got = self._docagne_flags[e] = right is not None and self._vanishes(
                u, v + 1, u + 1, v, right)
        return got

    def docagne_instances(self, r: int, n: int, pairs, memo: dict) -> bool:
        """Whether the recurrence proves every d'Ocagne instance
        E'(r + i, n + j) over `pairs`, read as `catalan_instances` reads
        Catalan, with `memo` by s = r - n: the reach max(s + i, j) + 1 and
        the bases at e = s + i - j."""
        s = r - n
        got = memo.get(s)
        if got is None:
            got = memo[s] = (max(max(s + i, j) for i, j in pairs) + 1, all(
                self._docagne_base(e) for e in {s + i - j for i, j in pairs}))
        return self._recurrence_holds(n + got[0]) and got[1]

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

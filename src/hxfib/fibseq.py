"""The recurrence F_{h,n} = h * F_{h,n-1} + F_{h,n-2} with F_0 = 0 and
F_1 = 1, over an arbitrary rational-coefficient polynomial h, together
with every closed form and identity the sequence satisfies, each as an
exact verifier.

Every check with a denominator is run in cleared form or through exact
ring division with a divisibility assertion, so a verdict is an exact
ring equality.  The single exception is `ratio_limit_check`, the only
floating-point computation in the package.

The scalar instances that the algebra Catalan, Cassini and d'Ocagne
checks of `hyperfib` read at their bases come down to integer vectors.
With h = H/d and H over Z, the terms G_n = d^(n-1) F_n have integer
coefficients (the cache's denominators are checked to divide d^(n-1)),
and with alpha^k = a_k + b_k s so do A_k = 2 d^k a_k and
B_k = 2 d^(k-1) b_k, which step by X_k = H X_(k-1) + d^2 X_(k-2) from
`roots()` once alpha^2 = h alpha + 1 is checked (`alpha_pow` reads them).
At its base, the smallest m whose indices are nonnegative, a Catalan
instance E(m, r, delta) has an index 0.  So where G_0 = 0 its other
product is G_a G_b, {a, b} = {r, |r - delta|}, a >= b, and it is, up to
sign, Vajda's identity in polynomial form (at r = 0 both sides vanish):

    P(a, b):  M' G_a G_b == A_(a+b) - (-1)^b d^(2b) A_(a-b),  M' = H^2 + 4d^2.

Both sides of P(a, b) obey X_a = H X_(a-1) + d^2 X_(a-2), the left one
where residual(a) below vanishes, so P(a, b) holds at a >= b + 2 where it
holds at a - 1 and a - 2 and `_recurrence_holds(a)`.  Only the seeds
a <= b + 1 are compared, each by `_vanishes` as one big-integer product
at x = 2^(8w) (Kronecker substitution), exact because evaluation at
2^(8w) is injective on integer polynomials with coefficients below
2^(8w-1) in absolute value.  w comes from the terms alone: the bound
||factor|| (N_u N_v + 1) + sum |c| ||V||, N_k = ||G_k||_1, covers every
coefficient of factor G_u G_v - sum c V and of every vector packed, and
w is asserted.  A d'Ocagne base E'(u, v), min(u, v) = 0, reads G_0 and
G_1 beside G_|e|, e = u - v: where G_0 = 0 and G_1 = 1 it is, up to
sgn(e), G_|e| == B_|e|, a tuple comparison.  Elsewhere a flag is False,
which proves nothing and sends the check per table.  The flags,
`_product_holds` by (a, b) and `_docagne_base` by e, are memoized here
for every table over one h (see the `hyperfib` docstring).

The quadratic identities follow from the recurrence, through the shift
by one.  With K(u, v) = G_u G_v + d^2 G_{u-1} G_{v-1}, the shift by one
on (a, b, c, d), a + b = c + d, is K(a, b) == K(c, d).  Times d^(k-1),
`residual(k)` below is G_k - H G_{k-1} - d^2 G_{k-2}, which
`_recurrence_holds` compares as one integer step; where it vanishes at
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
  base, D(m) == -d^2 D(m-1) is a shift by one and the right side of E(m)
  is -d^2 times that of E(m-1), so E(m) holds exactly when its base does;
- the d'Ocagne instance E'(u, v) at m = min(u, v) >= 1, T = max(u, v) + 1:
  likewise, each side of E'(u, v) is -d^2 times that of E'(u - 1, v - 1),
  so it holds exactly when E'(u - m, v - m) does.

An algebra check reads its instances in one call, `catalan_instances` or
`docagne_instances`: whether the recurrence reaches the largest T among
them and every base holds, memoized per table.  Where the recurrence and
the bases prove nothing, a check compares exactly in Q[x] on the memoized
products `fib_product`: the scalar checks themselves, the algebra checks
per table.  So a packed comparison is made only at a base.

The residual and partial-sum readers ask `recurrence_proven(T)`, the
prefix with a `NotDivisible` from scaling read as "not proven", and hold
where it reaches T; elsewhere they compare `residual(m)` = F_m - h F_(m-1)
- F_(m-2), `h_partial_sum(j)` or `sum_residual(j)` = rho_j =
h (F_1 + ... + F_j) - F_(j+1) - F_j + 1 in Q[x].  `genfun_check` at trunc
reads T = trunc after t^0 and t^1, the `hyperfib` recurrence check at n
T = n + dim + 1, and its genfun check at trunc T = trunc + dim - 1.  Since
h F_k = F_(k+1) - F_(k-1), the sum of `sum_identity_check` at n telescopes
to F_(n+1) + F_n - F_1 - F_0 at T = n + 1, so it holds where also G_0 = 0
and G_1 = 1; and rho_j - rho_(j-1) = -residual(j + 1), so the `hyperfib`
partial-sum check at p, rho_(p+k) == rho_k, holds at T = p + dim.

The binomial, halving and differential closed forms are evaluated the
same way by `FibContext._packed_form`: each is an integer combination of
h^i (h^2+4)^j over den, which times d^(n-1) is an integer polynomial G in
H and M' = H^2 + 4d^2, summed at one packed point from cached powers of
H(2^(8w)) by Horner in M'(2^(8w)).  `form_test` compares G(2^(8w)) with
den G_n(2^(8w)) and unpacks nothing: the bound S + den N_n, with S the sum
of |weight| N_H^i N_M'^j d^(n-1-i-2j), N_H = ||H||_1 and
N_M' = N_H^2 + 4d^2, covers every coefficient of G - den G_n, G_n and H.
Where scaling G raises `NotDivisible` it compares in Q[x] the `Poly` that
the public forms unpack.  The Chebyshev form steps W_m = d^m U_m on
(real, imaginary) pairs of integer vectors and reads i^m W_m / d^m by
rotating the pair.
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
    _int_mul,
    _kronecker_pack,
    _kronecker_unpack,
    as_poly,
    binomial,
    poly_combination,
    poly_sum,  # unused here; `benchmarks/selftest.py` expects to find it on this module
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


def _rotate(real: list, imag: list, k: int) -> tuple[list, list]:
    """The (real, imaginary) integer vectors of i^k (real + imag i)."""
    for _ in range(k % 4):
        real, imag = [-v for v in imag], real
    return real, imag


#: the term list of each packed closed form, by the form's method name
_FORM_TERMS = {"explicit_binomial": "binomial_terms", "explicit_halving": "halving_terms",
               "differential_form": "differential_terms"}


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


def _mul_add(h: tuple, x: list, c: int, y: list) -> list:
    """The integer vector h x + c y, for integer vectors h, x and y."""
    out = _int_mul(h, x) if h and x else []
    out += [0] * (len(y) - len(out))
    for i, v in enumerate(y):
        out[i] += c * v
    return out


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
        # slot width w the integer vectors packed at 2^(8w), by vector
        self._scaled: list[tuple] = []
        self._norms: list[int] = []
        self._den_pows = [1]
        self._packed: dict[int, dict[tuple, int]] = {}
        # per slot width w, the powers of H(2^(8w)) that the packed closed
        # forms read, and the k-th derivatives of y^(n-k-1) at row n
        self._form_pows: dict[int, list[int]] = {}
        self._derivatives: list[list[Poly]] = [[]]
        # H = d h as an integer polynomial, M' = d^2 (h^2+4) as an integer
        # vector with its 1-norm; the root vectors ([A_k], [B_k], modulus of
        # s), or () once alpha^2 = h alpha + 1 fails; the powers of alpha;
        # and the base flags: P(a, b) by (a, b), d'Ocagne by e = u - v
        self._cleared_h = self.h * self.h.den
        modulus = (self.modulus * self.h.den ** 2).num
        self._cleared_modulus = modulus, sum(map(abs, modulus))
        self._root_vectors: tuple | None = None
        self._alpha_pows: list[QuadExt] = []
        self._catalan_flags: dict[tuple[int, int], bool] = {}
        self._docagne_flags: dict[int, bool] = {}
        # the largest T with residual(k) == 0 for every 2 <= k <= T
        self._recurrence_top = 1
        self._root_failure: str | None = None  # "" once the relations hold
        # d^m U_m of the Chebyshev form as (real, imaginary) integer vectors
        self._cheb: list[tuple[list, list]] | None = None

    # -- the recurrence ------------------------------------------------

    def fib(self, n: int) -> Poly:
        """F_{h,n} by the memoized recurrence, each step h a + b on the
        cached a and b as one integer combination over the common
        denominator of h a = H a.num / (d a.den) and b, reduced once."""
        if n < 0:
            raise IndexConstraintViolated("negative indices are undefined here")
        cache = self._fib
        h, d = self._cleared_h.num, self.h.den
        while len(cache) <= n:
            a, b = cache[-1], cache[-2]
            den = math.lcm(d * a.den, b.den)
            m = den // (d * a.den)
            cache.append(Poly._rational(
                _mul_add([m * v for v in h] if m > 1 else h, a.num, den // b.den, b.num), den))
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

    def _vanishes(self, u: int, v: int, right, factor) -> bool:
        """Whether factor * G_u G_v == sum c V, compared between packed
        integers in slots whose width comes from these terms alone, by the
        bound of the module docstring, and is asserted.

        `right` holds (c, V, ||V||_1) and `factor` is (V, ||V||_1), with V
        an integer vector and every c a nonzero integer.  G is scaled up to
        each index read, which may raise `NotDivisible`."""
        self._scale_to(max(u, v))
        norms = self._norms
        bound = (norms[u] * norms[v] + 1) * factor[1]
        for c, _, norm in right:
            bound += abs(c) * norm
        w = _checked_width(bound)
        packed = self._packed.setdefault(w, {})

        def pack(vec: tuple) -> int:
            got = packed.get(vec)
            if got is None:
                got = packed[vec] = _kronecker_pack(vec, w)
            return got

        lhs = pack(self._scaled[u]) * pack(self._scaled[v]) * pack(factor[0])
        for c, vec, _ in right:
            lhs -= c * pack(vec)
        return not lhs

    def _recurrence_holds(self, top: int) -> bool:
        """Whether residual(k) == 0, G_k == H G_(k-1) + d^2 G_(k-2), for
        every 2 <= k <= top, which proves every shift by one up to index top
        (see the module docstring).  G is scaled up to top first, as a
        comparison reading index top scales it.  Memoized as the largest top
        verified, extended in a loop."""
        if top < len(self._norms) and top <= self._recurrence_top:
            return True  # the memo starts at 1 with nothing scaled
        self._scale_to(top)
        g, h, d2 = self._scaled, self._cleared_h.num, self.den_pow(2)
        while self._recurrence_top < top:
            k = self._recurrence_top + 1
            step = _mul_add(h, g[k - 1], d2, g[k - 2])
            while step and not step[-1]:
                step.pop()
            if tuple(step) != g[k]:
                return False
            self._recurrence_top = k
        return True

    def recurrence_proven(self, top: int) -> bool:
        """`_recurrence_holds(top)`, or False, which proves nothing, where
        scaling G raises `NotDivisible`."""
        try:
            return self._recurrence_holds(top)
        except NotDivisible:
            return False

    # -- characteristic roots -------------------------------------------

    def roots(self) -> tuple[QuadExt, QuadExt]:
        """The two roots of v^2 - h v - 1 = 0 in Q[x][s]/(s^2 - (h^2+4))."""
        return quad_from_alpha(self.h), quad_from_beta(self.h)

    def _roots_to(self, k: int) -> tuple[list[Poly], list[Poly]]:
        """The root vectors [A_0 .. A_k] and [B_0 .. B_k] (see the module
        docstring), stepped up in a loop; `NonRealResult` unless
        alpha^2 = h alpha + 1, checked once per context.  Then A_1 = 2 d a_1
        is integral (a_1 = h/2, or d a_1 in Q[x] is a root of
        t^2 - H t - d^2), and so is every A_k; B_k may not be."""
        vectors = self._root_vectors
        if vectors is None:
            alpha = self.roots()[0]
            vectors = self._root_vectors = (
                ([Poly((2,)), alpha.a * (2 * self.h.den)], [ZERO, alpha.b * 2], alpha.modulus)
                if alpha * (alpha - self.h) == 1 else ())
        if not vectors:
            raise NonRealResult("the roots break alpha^2 = h alpha + 1")
        lucas, odd, _ = vectors
        h, d2 = self._cleared_h, self.h.den ** 2
        while len(lucas) <= k:
            lucas.append(h * lucas[-1] + lucas[-2] * d2)
            odd.append(h * odd[-1] + odd[-2] * d2)
        return lucas, odd

    def alpha_pow(self, n: int) -> QuadExt:
        """alpha^n = A_n / (2 d^n) + B_n / (2 d^(n-1)) s from the root
        vectors, with no product in Q[x][s]; memoized."""
        pows = self._alpha_pows
        if len(pows) <= n:
            lucas, odd = self._roots_to(n)
            modulus, d = self._root_vectors[2], self.h.den
            for k in range(len(pows), n + 1):
                b = odd[k] * Fraction(1, 2 * d ** (k - 1)) if k else ZERO
                pows.append(QuadExt(lucas[k] * Fraction(1, 2 * d ** k), b, modulus))
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

    def _packed_form(self, terms_of, n: int, compare: bool = False):
        """F_n from a closed form in h and h^2 + 4, evaluated at one packed
        point (see the module docstring): a `Poly`, or with `compare`
        whether it equals F_n, with G scaled to n first; where that raises
        `NotDivisible`, the `Poly` is compared with F_n in Q[x].

        `terms_of(n)` gives (terms, den): each (weight, i, j), i + 2j <= n - 1,
        stands for weight H^i M'^j d^(n-1-i-2j), and the form is their sum G
        over den d^(n-1).  Every coefficient of G is bounded by S, of H by
        N_H; w is picked from max(N_H, S), plus den N_n when compared, and
        asserted.  H is packed at x = 2^(8w), its powers cached per width,
        and G(2^(8w)) is summed by Horner in M'(2^(8w)), so that every
        product of two large integers has the short M'(2^(8w)) as a
        factor."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        terms, den = terms_of(n)
        num, d = self.h.num, self.h.den
        terms = [(c * self.den_pow(n - 1 - i - 2 * j), i, j) for c, i, j in terms]
        norm_h = sum(map(abs, num))
        norm_m = norm_h * norm_h + 4 * d * d
        bound = sum(abs(c) * norm_h ** i * norm_m ** j for c, i, j in terms)
        if compare:
            try:
                self._scale_to(n)
            except NotDivisible:
                return self._packed_form(terms_of, n) == self.fib(n)
            bound += den * self._norms[n]
        w = _checked_width(max(norm_h, bound))
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
        if compare:
            return value == den * _kronecker_pack(self._scaled[n], w)
        count = max((i + 2 * j for _, i, j in terms), default=0) * max(len(num) - 1, 0) + 1
        return Poly._rational(_kronecker_unpack(value, count, w), den * self.den_pow(n - 1))

    def form_test(self, form: str):
        """n -> whether the closed form `form`, a method name, equals F_n:
        compared packed on the term list of a packed form (`binomial_terms`,
        `halving_terms` or `differential_terms`), else in Q[x]."""
        terms = _FORM_TERMS.get(form)
        if terms:
            terms_of = getattr(self, terms)
            return lambda n: self._packed_form(terms_of, n, True)
        method = getattr(self, form)
        return lambda n: method(n) == self.fib(n)

    def binomial_terms(self, n: int) -> tuple[list, int]:
        """(terms, den) of the binomial form for `_packed_form`."""
        return [(binomial(n - k - 1, k), n - 2 * k - 1, 0) for k in range((n - 1) // 2 + 1)], 1

    def explicit_binomial(self, n: int) -> Poly:
        """Binomial closed form: sum of C(n-k-1, k) h^(n-2k-1)."""
        return self._packed_form(self.binomial_terms, n)

    def halving_terms(self, n: int) -> tuple[list, int]:
        """(terms, den) of the halving form for `_packed_form`."""
        ks = range((n - 1) // 2 + 1)
        return [(binomial(n, 2 * k + 1), n - 2 * k - 1, k) for k in ks], 2 ** (n - 1)

    def explicit_halving(self, n: int) -> Poly:
        """Halving closed form:
        2^(1-n) * sum of C(n, 2k+1) h^(n-2k-1) (h^2+4)^k, exact."""
        return self._packed_form(self.halving_terms, n)

    def _chebyshev_u(self, m: int) -> tuple[list, list]:
        """W_m = d^m U_m(h/(2i)) as (real, imaginary) integer vectors.  U_1 =
        2t at t = h/(2i) is -i h, and 2t steps U_(m+1) = 2t U_m - U_(m-1), so
        W_(m+1) = -i H W_m - d^2 W_(m-1) from W_0 = 1 and W_1 = -i H; memoized."""
        ws = self._cheb
        if ws is None:
            ws = self._cheb = [([1], []), ([], [-c for c in self._cleared_h.num])]
        h, d2 = self._cleared_h.num, self.h.den ** 2
        while len(ws) <= m:
            (p, q), (p2, q2) = ws[-1], ws[-2]
            ws.append((_mul_add(h, q, -d2, p2), [-v for v in _mul_add(h, p, d2, q2)]))
        return ws[m]

    def chebyshev_form(self, n: int) -> Poly:
        """i^(n-1) U_{n-1}(h/(2i)) with U the second-kind Chebyshev
        recurrence U_0 = 1, U_1 = 2t, as the rotated pair i^(n-1) W_(n-1)
        over d^(n-1); the imaginary parts must cancel."""
        if n < 1:
            raise IndexConstraintViolated("closed forms start at n = 1")
        real, imag = _rotate(*self._chebyshev_u(n - 1), n - 1)
        den = self.den_pow(n - 1)
        if any(imag):
            raise NonRealResult(
                f"imaginary residue {Poly._rational(list(imag), den)!r} in Chebyshev form")
        return Poly._rational(list(real), den)

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

    def differential_terms(self, n: int) -> tuple[list, int]:
        """(terms, den) for `_packed_form` of the sum over k of
        (1/k!) d^k/dy^k y^(n-k-1), computed literally in the formal ring
        Q[y] as one `poly_combination`.  Each k-th derivative of y^(n-k-1) is
        one derivative of the memoized (k-1)-th one, from row n - 1."""
        rows = self._derivatives
        while len(rows) <= n:
            m = len(rows)
            rows.append([Poly.monomial(m - 1)] + [q.derivative() for q in rows[-1][:(m - 1) // 2]])
        p = poly_combination([(q, Fraction(1, math.factorial(k))) for k, q in enumerate(rows[n])])
        return [(c, j, 0) for j, c in enumerate(p.num) if c], p.den

    def differential_form(self, n: int) -> Poly:
        """The differential form, evaluated at y = h by `_packed_form`."""
        return self._packed_form(self.differential_terms, n)

    # -- identity verifiers ----------------------------------------------

    def genfun_check(self, trunc: int) -> Verdict:
        """Truncated check of the generating function t / (1 - h t - t^2):
        multiplying the series by the denominator must leave exactly t.
        Coefficient j of that product is the convolution
        F_j - h F_{j-1} - F_{j-2}, with the terms at negative indices left
        out, compared for j <= trunc; from j = 2 on it is `residual(j)`,
        read from the prefix first (see the module docstring)."""
        if trunc < 0:
            raise IndexConstraintViolated("the truncation order starts at 0")
        heads = (self.fib(0), self.fib(1) - self.h * self.fib(0))
        for j in range(trunc + 1):
            if j == 2 and self.recurrence_proven(trunc):
                return HOLDS
            got = heads[j] if j < 2 else self.residual(j)
            if got != (ONE if j == 1 else ZERO):
                return Verdict(False, f"t^{j} coefficient of (1-ht-t^2)*series")
        return HOLDS

    def sum_identity_check(self, n: int) -> Verdict:
        """h * sum(F_1..F_n) == F_{n+1} + F_n - 1 (denominator cleared),
        from the prefix with G_0 = 0 and G_1 = 1 (see the module docstring)
        or else in Q[x]."""
        if not self.h:
            raise ZeroH("the summation identity divides by h")
        if n < 1:
            raise IndexConstraintViolated("partial sums start at n = 1")
        if self.recurrence_proven(n + 1) and not self._norms[0] and self._scaled[1] == (1,):
            return HOLDS
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

    def _product_holds(self, a: int, b: int) -> bool:
        """Whether P(a, b), M' G_a G_b == A_(a+b) - (-1)^b d^(2b) A_(a-b)
        for a >= b >= 0, holds (see the module docstring): False where
        G_0 != 0; at the seeds a <= b + 1 a packed comparison; above them
        the flags at a - 1 and a - 2 and `_recurrence_holds(a)`.  G is
        scaled to a + b first, the top index of the Catalan bases that read
        P(a, b).  Memoized by (a, b) for every table over this h, each
        missing flag from a = b up made in a loop."""
        flags = self._catalan_flags
        got = flags.get((a, b))
        if got is None:
            self._scale_to(a + b)
            for k in range(b, a + 1):
                if (k, b) in flags:
                    continue
                if self._norms[0]:
                    holds = False
                elif k <= b + 1:
                    lucas = self._roots_to(k + b)[0]
                    right = [(c, p.num, sum(map(abs, p.num))) for c, p in (
                        (1, lucas[k + b]),
                        (self.den_pow(2 * b) * (1 if b % 2 else -1), lucas[k - b]))]
                    holds = self._vanishes(k, b, right, self._cleared_modulus)
                else:
                    holds = flags[k - 1, b] and flags[k - 2, b] and self._recurrence_holds(k)
                flags[k, b] = holds
            got = flags[a, b]
        return got

    def _catalan_base(self, r: int, delta: int) -> bool:
        """Whether the Catalan instance E(m, r, delta) at its base holds:
        with G_0 = 0 it is +-P(a, b) for {a, b} = {r, |r - delta|} (see the
        module docstring)."""
        far = abs(r - delta)
        return self._product_holds(max(r, far), min(r, far))

    def catalan_instances(self, n: int, r: int, pairs, memo: dict) -> bool:
        """Whether the recurrence proves every Catalan instance
        E(n + i, r, j - i) over `pairs`: its prefix reaches n + reach, with
        reach = max(i + max(r, j - i)), and the base of every delta = j - i
        holds, read as `_catalan_base` (see the module docstring).  `memo`,
        kept by the caller per table, holds (reach, whether every base
        holds) by r.  False proves nothing: the caller then compares per
        table."""
        got = memo.get(r)
        if got is None:
            got = memo[r] = (max(i + max(r, j - i) for i, j in pairs), all(
                self._catalan_base(r, delta) for delta in {j - i for i, j in pairs}))
        return self._recurrence_holds(n + got[0]) and got[1]

    def _docagne_base(self, e: int) -> bool:
        """Whether the d'Ocagne instance E'(u, v) at its base
        (u, v) = (max(e, 0), max(-e, 0)), e = u - v, holds: with G_0 = 0 and
        G_1 = 1 it is G_|e| == B_|e|, a tuple comparison; False unless both
        hold.  G is scaled to |e| + 1, the base's top index.  Memoized by e
        for every table over this h."""
        got = self._docagne_flags.get(e)
        if got is None:
            k = abs(e)
            self._scale_to(k + 1)
            scaled = self._scaled
            got = not self._norms[0] and scaled[1] == (1,)
            if got:
                odd = self._roots_to(k)[1][k]
                got = odd.den == 1 and odd.num == scaled[k]
            self._docagne_flags[e] = got
        return got

    def docagne_instances(self, r: int, n: int, pairs, memo: dict) -> bool:
        """Whether the recurrence proves every d'Ocagne instance
        E'(r + i, n + j) over `pairs`, read as `catalan_instances` reads
        Catalan, with `memo` by s = r - n: the reach max(s + i, j) + 1 and
        the bases `_docagne_base` at e = s + i - j."""
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

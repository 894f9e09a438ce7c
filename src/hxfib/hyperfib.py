"""Sequence elements Q_n = sum_k F_{n+k} e_k over an arbitrary unitary
algebra, and exact verifiers for their recurrence, partial sums, closed
form, generating function, and the quadratic index identities.

Product order follows the source identities exactly (the algebra may be
noncommutative, so the two bracket products are genuinely distinct), and
only binary products ever appear, so associativity is never needed.
All denominators are cleared: by h for the partial sum, by h^2 + 4 for
the quadratic identities, and by s, via exact division, for the closed
form and the index-difference identity.

The Catalan, Cassini and d'Ocagne identities are bilinear in the Q
elements, so they hold for any bilinear product whatever its structure
constants: a corrupted or transposed table still satisfies them.  Table
faults are caught by the table checks of the battery
(`hamilton_relations`, `unit_law`, `algebra_validate`), never by these
identities; what these identities test is the sequence, its roots and the
arithmetic.

Both sides are assembled from cached parts.  Coordinate k of a product
Q_a Q_b is the linear combination of the memoized scalar products
F_{a+i} F_{b+j} with the nonzero structure constants c_ijk, formed in one
`poly_combination`.  The right-hand brackets live in Q[x][s] and do not
depend on n apart from the sign (-1)^n, so each context builds them once
and keeps only what a comparison needs:

- Catalan, and Cassini as Catalan at r = 1: per r, the rational part a
  of each bracket coordinate with both signs, or a mismatch marker where
  the coordinate has an s-part (the cleared left side (h^2+4) L_k has
  none).  Comparing (h^2+4) L_k with +-a is the equality of the two sides
  embedded in Q[x][s].
- d'Ocagne: per r - n, the exact quotient of each bracket coordinate by
  s, or the failure text when s does not divide it or leaves an s-part.
- The printed Catalan bracket depends on r only through its parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraTable, AlgElement
from .fibseq import (
    FibContext,
    IndexConstraintViolated,
    Verdict,
    ZeroH,
    denominator_times_series,
)
from .scalars import NotDivisible, Poly, QuadExt, poly_combination


@dataclass(frozen=True)
class CatalanVerdict(Verdict):
    """Catalan verdict plus the diagnostic comparison of the printed
    right-hand side (which fixes the root exponent at 2) against the
    derived one (exponent 2r); None when r = 0 makes the diagnostic
    meaningless."""

    printed_matches: Optional[bool] = None


class HyperContext:
    """One algebra attached to one recurrence context.

    Shares (and therefore mutates) the caches of the underlying
    `FibContext`; like it, a HyperContext is single-owner.
    """

    def __init__(self, fib, table: AlgebraTable):
        self.fib = fib if isinstance(fib, FibContext) else FibContext(fib)
        self.table = table
        dim = table.dim
        #: per coordinate k, the (i, j, c_ijk) with c_ijk != 0
        self._coord_terms = tuple(
            tuple(
                (i, j, c)
                for i in range(dim)
                for j in range(dim)
                if (c := table.constants[i][j][k])
            )
            for k in range(dim)
        )
        self._star: tuple[AlgElement, AlgElement] | None = None
        self._star_products: tuple[AlgElement, AlgElement] | None = None
        self._squares: dict[int, AlgElement] = {}
        self._prefix_sums: list[AlgElement] = []  # Q_1 + ... + Q_p at p - 1
        self._catalan_brackets: dict[int, AlgElement] = {}  # by r
        self._printed_brackets: dict[int, AlgElement] = {}  # by r % 2
        self._catalan_rhs: dict[int, tuple] = {}  # by r
        self._printed_matches: dict[int, bool] = {}  # by r
        self._docagne_rhs: dict[int, tuple] = {}  # by r - n

    @property
    def h(self) -> Poly:
        return self.fib.h

    @property
    def dim(self) -> int:
        return self.table.dim

    def q(self, n: int) -> AlgElement:
        """Q_n, with coordinate k equal to F_{n+k}."""
        fib = self.fib
        return AlgElement(self.table, tuple(fib.fib(n + k) for k in range(self.dim)))

    # -- starred roots ----------------------------------------------------

    def stars(self) -> tuple[AlgElement, AlgElement]:
        """alpha* = sum_k alpha^k e_k and its beta counterpart."""
        if self._star is None:
            fib = self.fib
            a = AlgElement(self.table, tuple(fib.alpha_pow(k) for k in range(self.dim)))
            b = AlgElement(self.table, tuple(fib.beta_pow(k) for k in range(self.dim)))
            self._star = (a, b)
        return self._star

    def star_products(self) -> tuple[AlgElement, AlgElement]:
        """(alpha* beta*, beta* alpha*): distinct in a noncommutative
        algebra, and kept in this order everywhere."""
        if self._star_products is None:
            a, b = self.stars()
            self._star_products = (a * b, b * a)
        return self._star_products

    # -- cached bilinear products of Q elements ---------------------------

    def _product_terms(self, k: int, a: int, b: int, sign: int = 1) -> list:
        """(F_{a+i} F_{b+j}, sign * c_ijk) pairs: coordinate k of
        sign * Q_a Q_b as a linear combination of memoized products."""
        product = self.fib.fib_product
        return [(product(a + i, b + j), sign * c) for i, j, c in self._coord_terms[k]]

    def _q_mul(self, ni: int, nj: int) -> AlgElement:
        """Q_{ni} * Q_{nj} assembled from memoized scalar products; equal
        to the straightforward element product by bilinearity (the test
        suite checks the two routes against each other)."""
        if ni == nj:
            cached = self._squares.get(ni)
            if cached is not None:
                return cached
        element = AlgElement(self.table, tuple(
            poly_combination(self._product_terms(k, ni, nj)) for k in range(self.dim)
        ))
        if ni == nj:
            self._squares[ni] = element
        return element

    # -- verifiers ---------------------------------------------------------

    def recurrence_check(self, n: int) -> Verdict:
        """Q_{n+2} == h Q_{n+1} + Q_n, coordinatewise."""
        lhs = self.q(n + 2)
        rhs = self.q(n + 1) * self.h + self.q(n)
        if lhs != rhs:
            return Verdict(False, self._first_diff(lhs, rhs, f"n={n}"))
        return Verdict(True)

    def partial_sum_check(self, p: int) -> Verdict:
        """h * sum(Q_1..Q_p) == Q_{p+1} + Q_p - Q_0 - Q_1, cleared."""
        if not self.h:
            raise ZeroH("the partial-sum identity divides by h")
        if p < 1:
            raise IndexConstraintViolated("partial sums start at p = 1")
        sums = self._prefix_sums
        while len(sums) < p:
            q = self.q(len(sums) + 1)
            sums.append(sums[-1] + q if sums else q)
        lhs = sums[p - 1] * self.h
        rhs = self.q(p + 1) + self.q(p) - self.q(0) - self.q(1)
        if lhs != rhs:
            return Verdict(False, self._first_diff(lhs, rhs, f"p={p}"))
        return Verdict(True)

    def binet_check(self, n: int) -> Verdict:
        """(alpha* alpha^n - beta* beta^n) / (alpha - beta) == Q_n, with
        the division performed exactly by s per coordinate (the quotients
        are shared with every algebra through `FibContext.binet_quotient`)."""
        fib = self.fib
        for k in range(self.dim):
            quotient = fib.binet_quotient(k, n)
            if quotient is None:
                return Verdict(False, f"coordinate {k}: numerator not divisible by s")
            if quotient.b:
                return Verdict(False, f"coordinate {k}: radical residue")
            if quotient.a != fib.fib(n + k):
                return Verdict(False, f"coordinate {k} at n={n}")
        return Verdict(True)

    def genfun_check(self, trunc: int) -> Verdict:
        """(1 - h t - t^2) * sum Q_n t^n == Q_0 + (Q_1 - h Q_0) t up to
        the truncation order.  Coefficient j of the left side is the
        explicit convolution Q_j - h Q_{j-1} - Q_{j-2}."""
        terms = [self.q(i) for i in range(trunc + 1)]
        q0 = terms[0]
        q1_adj = self.q(1) - q0 * self.h
        for j, got in enumerate(denominator_times_series(self.h, terms)):
            if j == 0:
                ok = got == q0
            elif j == 1:
                ok = got == q1_adj
            else:
                ok = not got
            if not ok:
                return Verdict(False, f"t^{j} coefficient of the multiplied series")
        return Verdict(True)

    # -- right-hand brackets, built once per context ----------------------

    def _signed(self, element: AlgElement, n: int) -> AlgElement:
        return -element if n % 2 else element

    def _catalan_bracket(self, r: int) -> AlgElement:
        """a*b* (1 - (-1)^r a^2r) + b*a* (1 - (-1)^r b^2r)."""
        got = self._catalan_brackets.get(r)
        if got is None:
            fib = self.fib
            one = QuadExt.one(fib.modulus)
            sign = -1 if r % 2 else 1
            ab, ba = self.star_products()
            got = ab * (one - fib.alpha_pow(2 * r) * sign) + ba * (
                one - fib.beta_pow(2 * r) * sign
            )
            self._catalan_brackets[r] = got
        return got

    def _printed_bracket(self, r: int) -> AlgElement:
        """a*b* ((-1)^(r+1) + a^2) + b*a* ((-1)^(r+1) + b^2)."""
        got = self._printed_brackets.get(r % 2)
        if got is None:
            fib = self.fib
            one = QuadExt.one(fib.modulus)
            unit = one if r % 2 else -one  # (-1)^(r+1)
            ab, ba = self.star_products()
            got = ab * (unit + fib.alpha_pow(2)) + ba * (unit + fib.beta_pow(2))
            self._printed_brackets[r % 2] = got
        return got

    def _catalan_cleared(self, r: int) -> tuple:
        """Per coordinate a + b s of the derived Catalan bracket: (a, -a),
        the value that (h^2+4) times the left side must take for even and
        odd n, or None when b != 0, since the cleared left side has no
        s-part."""
        got = self._catalan_rhs.get(r)
        if got is None:
            got = self._catalan_rhs[r] = tuple(
                None if c.b else (c.a, -c.a) for c in self._catalan_bracket(r).coords
            )
        return got

    def _docagne_quotients(self, diff: int) -> tuple:
        """Per coordinate of a*b* a^diff - b*a* b^diff: its exact quotient
        by s as (q, -q) for even and odd n, or the failure text when s does
        not divide it or the quotient keeps an s-part."""
        got = self._docagne_rhs.get(diff)
        if got is None:
            fib = self.fib
            ab, ba = self.star_products()
            bracket = ab * fib.alpha_pow(diff) - ba * fib.beta_pow(diff)
            got = []
            for k, coord in enumerate(bracket.coords):
                try:
                    quotient = coord.divexact_by_s()
                except NotDivisible:
                    got.append(f"coordinate {k}: numerator not divisible by s")
                    continue
                if quotient.b:
                    got.append(f"coordinate {k}: radical residue")
                else:
                    got.append((quotient.a, -quotient.a))
            got = self._docagne_rhs[diff] = tuple(got)
        return got

    # -- quadratic identities ---------------------------------------------

    def _catalan_cleared_check(self, n: int, r: int, where: str) -> Verdict:
        """(h^2+4) [Q_{n+r} Q_{n-r} - Q_n^2] against the cleared bracket
        signed by (-1)^n, coordinate by coordinate."""
        modulus = self.fib.modulus
        square = self._q_mul(n, n).coords
        for k, expected in enumerate(self._catalan_cleared(r)):
            if expected is None:
                return Verdict(False, f"coordinate {k} at {where}")
            lhs = poly_combination(self._product_terms(k, n + r, n - r) + [(square[k], -1)])
            if modulus * lhs != expected[n % 2]:
                return Verdict(False, f"coordinate {k} at {where}")
        return Verdict(True)

    def printed_matches(self, n: int, r: int) -> bool:
        """Whether the printed Catalan right-hand side (root exponent 2)
        equals the derived one (exponent 2r) at (n, r).  Both carry the
        sign (-1)^n, so the answer depends on r alone: whether
        (-1)^(r+1) times the printed bracket is the derived bracket."""
        if not 0 <= r <= n:
            raise IndexConstraintViolated("need 0 <= r <= n")
        got = self._printed_matches.get(r)
        if got is None:
            printed = self._signed(self._printed_bracket(r), r + 1)
            got = self._printed_matches[r] = printed == self._catalan_bracket(r)
        return got

    def catalan_check(self, n: int, r: int) -> CatalanVerdict:
        """(h^2+4) [Q_{n+r} Q_{n-r} - Q_n^2] against the derived bracket
        (-1)^n [a*b* (1 - (-1)^r a^2r) + b*a* (1 - (-1)^r b^2r)];
        the printed variant with a^2, b^2 is evaluated as a diagnostic."""
        if not 0 <= r <= n:
            raise IndexConstraintViolated("need 0 <= r <= n")
        verdict = self._catalan_cleared_check(n, r, f"n={n}, r={r}")
        printed = None if r == 0 else self.printed_matches(n, r)
        return CatalanVerdict(verdict.ok, verdict.witness, printed)

    def cassini_check(self, n: int) -> Verdict:
        """(h^2+4) [Q_{n+1} Q_{n-1} - Q_n^2] ==
        (-1)^n [a*b* (1 + a^2) + b*a* (1 + b^2)]: the Catalan identity at
        r = 1, whose derived bracket is this one (and so is the printed
        bracket at odd r)."""
        if n < 1:
            raise IndexConstraintViolated("Cassini needs n >= 1")
        return self._catalan_cleared_check(n, 1, f"n={n}")

    def docagne_check(self, n: int, r: int) -> Verdict:
        """Q_r Q_{n+1} - Q_{r+1} Q_n ==
        (-1)^n [a*b* a^(r-n) - b*a* b^(r-n)] / (alpha - beta), with the
        division carried out exactly by s per coordinate."""
        if n < 0 or r <= n:
            raise IndexConstraintViolated("the identity requires r > n >= 0")
        for k, expected in enumerate(self._docagne_quotients(r - n)):
            if isinstance(expected, str):
                return Verdict(False, expected)
            lhs = poly_combination(
                self._product_terms(k, r, n + 1) + self._product_terms(k, r + 1, n, -1)
            )
            if lhs != expected[n % 2]:
                return Verdict(False, f"coordinate {k} at n={n}, r={r}")
        return Verdict(True)

    @staticmethod
    def _first_diff(lhs: AlgElement, rhs: AlgElement, where: str) -> str:
        for k, (a, b) in enumerate(zip(lhs.coords, rhs.coords)):
            if a != b:
                return f"coordinate {k} at {where}"
        return where

"""Sequence elements Q_n = sum_k F_{n+k} e_k over an arbitrary unitary
algebra, and exact verifiers for their recurrence, partial sums, closed
form, generating function, and the quadratic index identities.

Product order follows the source identities exactly (the algebra may be
noncommutative, so the two bracket products are genuinely distinct), and
only binary products ever appear, so associativity is never needed.
Denominators are cleared: by h for the partial sum and by h^2 + 4 for
Catalan and Cassini.  The quotients by s = alpha - beta of the closed form
and of d'Ocagne are taken in closed form, without a division.

The Catalan, Cassini and d'Ocagne identities are bilinear in the Q
elements, so they hold for any bilinear product whatever its structure
constants: a corrupted or transposed table still satisfies them.  Table
faults are caught by the table checks of the battery
(`hamilton_relations`, `unit_law`, `algebra_validate`); what these
identities test is the sequence, its roots and the arithmetic.

Each of them is checked first through scalar instances that name no
table.  With h = H/d, G_n = d^(n-1) F_n, M' = d^2 (h^2+4) = H^2 + 4d^2
and the root powers alpha^k = a_k + b_k s, the vectors A_k = 2 d^k a_k
and B_k = 2 d^(k-1) b_k are integer polynomials.  Since
(h^2+4) F_u F_v = alpha^(u+v) + beta^(u+v) - X(u, v) with X below, the
pair (i, j) of each identity is, times a power of d, an instance of
Vajda's identity:

    Catalan at (n, r), with m = n + i and delta = j - i: E(m, r, delta),
        M' D(m) == (-1)^(m+min(0,delta)) d^(2 min(m,m+delta)) A_|delta|
                   - (-1)^(m+r+min(2r,delta)) d^(2m+delta-|2r-delta|) A_|2r-delta|
        with D(m) = G_{m+r} G_{m-r+delta} - G_m G_{m+delta};
    d'Ocagne at (n, r), with (u, v) = (r + i, n + j): E'(u, v),
        G_u G_{v+1} - G_{u+1} G_v == (-1)^min(u,v) sgn(u-v) d^(2 min(u,v)) B_|u-v|.

Cassini is Catalan at r = 1.  `FibContext` memoizes one flag per base
for every table over one h.  Above its base, the smallest m whose four
indices are nonnegative, E(m, r, delta) holds exactly when
E(m-1, r, delta) does wherever D(m) == -d^2 D(m-1), the index shift by
one, since the right side of E(m) is -d^2 times that of E(m-1); likewise
E'(u, v) and E'(u-1, v-1), whose base is at min(u, v) = 0.  The
recurrence proves each shift by one unless a residual of the cached terms
does not vanish (see the `fibseq` docstring).  So a check at (n, r) reads
one memo per table, whether every base of its pairs holds, kept by r for
Catalan and by r - n for d'Ocagne, and asks the recurrence for its
largest top index, in one call, `FibContext.catalan_instances` or
`docagne_instances`.

Every base flag is exact.  With G_0 = 0 each Catalan base is, up to its
sign, Vajda's product identity M' G_a G_b == A_(a+b) - (-1)^b d^(2b)
A_(a-b), a >= b, compared packed at a <= b + 1 and proven above by the
recurrence, and with G_0 = 0 and G_1 = 1 each d'Ocagne base is
G_|u-v| == B_|u-v| (see the `fibseq` docstring); elsewhere a flag says
"non-zero".  Coordinate k of an identity, times d^(2n+2dim-2) for
Catalan and Cassini or d^(r+n+2dim-3) for d'Ocagne, is the sum of
c_ijk d^(2dim-2-i-j) times its instances, so where they all hold it holds
exactly.  Where the recurrence and the
bases do not prove them all, the check compares every coordinate whole in
Q[x], which gives the verdict and the witness:

    Catalan and Cassini: (h^2+4) sum c_ijk
        [F_{n+r+i} F_{n-r+j} - F_{n+i} F_{n+j}] == (-1)^n R_k,
    d'Ocagne: sum c_ijk [F_{r+i} F_{n+1+j} - F_{r+1+i} F_{n+j}] == (-1)^n q_k,

with the right sides R_k and q_k below, memoized per table.  A wrong
"non-zero" therefore costs only time, and a flag says "zero" only with a
proof; on a fault-free run no check takes this per-table route.  Errors
come in its order: the index guards, `FibContext.require_root_relations`,
then `NotDivisible` from scaling G up to the comparison's top index.

The right sides take no product in Q[x][s].  Coordinate k of the starred
products alpha* beta* and beta* alpha* sums c_ijk alpha^i beta^j and
c_ijk beta^i alpha^j, and alpha beta = -1 turns alpha^u beta^v into
(-1)^min(u,v) alpha^(u-v), or (-1)^min(u,v) beta^(v-u) when v > u.  With
the cached powers alpha^m = a_m + b_m s and beta^m their conjugates,

    X(u, v) = alpha^u beta^v + beta^u alpha^v = (-1)^min(u,v) 2 a_|u-v|,
    Y(u, v) = (alpha^u beta^v - beta^u alpha^v) / s
            = (-1)^min(u,v) sgn(u-v) 2 b_|u-v|,

so each right-side coordinate is one `poly_combination` of the a_m or
b_m, the multipliers of equal powers merged first:

- Catalan at r, Cassini at r = 1: R_k = sum c_ijk [X(i, j) - (-1)^r X(i+2r, j)];
- d'Ocagne: q_k = sum c_ijk Y(i + r - n, j).

The printed Catalan bracket times (-1)^(r+1) is the derived one with 2r
replaced by 2, so `printed_matches` asks, once per r, whether
sum c_ijk [X(i+2r, j) - X(i+2, j)] vanishes in every coordinate.

This holds only for roots with alpha + beta = h and alpha beta = -1.
`FibContext.require_root_relations` checks both once, and the Catalan,
Cassini, printed and d'Ocagne comparisons raise if either fails.
Hyper-Binet coordinate k is the scalar closed form `FibContext.binet(n+k)`,
compared with F_(n+k) by `FibContext.binet_matches`.
The recurrence, genfun and partial-sum checks hold where the prefix
`FibContext.recurrence_proven` reaches their top index (see the `fibseq`
docstring), and otherwise read `FibContext.residual` and `sum_residual`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraTable, AlgElement
from .fibseq import (
    FibContext,
    HOLDS,
    IndexConstraintViolated,
    Verdict,
    ZeroH,
)
from .scalars import ONE, ZERO, Poly, poly_combination


def _root_product(u: int, v: int) -> tuple[int, int]:
    """(sign, m) with alpha^u beta^v = sign alpha^m for m >= 0 and
    sign beta^-m for m < 0: alpha beta = -1 cancels min(u, v) factors of
    each root."""
    return (-1 if min(u, v) % 2 else 1), u - v


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
        #: the (i, j) with c_ijk != 0 for some k, whose scalar instances
        #: the quadratic identities read
        self._pairs = tuple(sorted({(i, j) for terms in self._coord_terms for i, j, _ in terms}))
        #: the memos of `FibContext.catalan_instances` and `docagne_instances`
        self._catalan_bases: dict[int, tuple[int, bool]] = {}
        self._docagne_bases: dict[int, tuple[int, bool]] = {}
        self._printed: dict[int, bool] = {}  # `printed_matches` by r
        self._root_combinations: dict[tuple, Poly] = {}  # by (k, parts, odd)

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
        fib = self.fib
        return (
            AlgElement(self.table, tuple(fib.alpha_pow(k) for k in range(self.dim))),
            AlgElement(self.table, tuple(fib.beta_pow(k) for k in range(self.dim))),
        )

    def star_products(self) -> tuple[AlgElement, AlgElement]:
        """(alpha* beta*, beta* alpha*): distinct in a noncommutative
        algebra.  The checks use their coordinates in closed form instead
        (see the module docstring)."""
        a, b = self.stars()
        return a * b, b * a

    # -- verifiers ---------------------------------------------------------

    def recurrence_check(self, n: int) -> Verdict:
        """Q_{n+2} == h Q_{n+1} + Q_n, coordinatewise.  Coordinate k is the
        scalar residual F_m - h F_{m-1} - F_{m-2} at m = n + k + 2,
        `FibContext.residual`, shared by every table, read where the prefix
        misses n + dim + 1."""
        if n < 0:
            raise IndexConstraintViolated("negative indices are undefined here")
        if self.fib.recurrence_proven(n + self.dim + 1):
            return HOLDS
        for k in range(self.dim):
            if self.fib.residual(n + k + 2):
                return Verdict(False, f"coordinate {k} at n={n}")
        return HOLDS

    def partial_sum_check(self, p: int) -> Verdict:
        """h * sum(Q_1..Q_p) == Q_{p+1} + Q_p - Q_0 - Q_1, cleared.
        Coordinate k is h (S_{p+k} - S_k) == F_{p+k+1} + F_{p+k} - F_{k+1}
        - F_k with S_j = F_1 + ... + F_j, that is rho_{p+k} == rho_k for
        the scalar fact rho_j = h S_j - F_{j+1} - F_j + 1,
        `FibContext.sum_residual`, read where the prefix misses p + dim."""
        if not self.h:
            raise ZeroH("the partial-sum identity divides by h")
        if p < 1:
            raise IndexConstraintViolated("partial sums start at p = 1")
        if self.fib.recurrence_proven(p + self.dim):
            return HOLDS
        rho = self.fib.sum_residual
        for k in range(self.dim):
            if rho(p + k) != rho(k):
                return Verdict(False, f"coordinate {k} at p={p}")
        return HOLDS

    def binet_check(self, n: int) -> Verdict:
        """(alpha* alpha^n - beta* beta^n) / (alpha - beta) == Q_n.
        Coordinate k of the numerator is alpha^(n+k) - beta^(n+k), so the
        quotient is the scalar closed form `FibContext.binet(n + k)`, read
        by `FibContext.binet_matches`."""
        fib = self.fib
        for k in range(self.dim):
            if not fib.binet_matches(n + k):
                return Verdict(False, f"coordinate {k} at n={n}")
        return HOLDS

    def genfun_numerator(self) -> tuple[AlgElement, AlgElement]:
        """(N_0, N_1) with sum Q_n t^n == (N_0 + N_1 t) / (1 - h t - t^2).
        Coordinate k is F_k in N_0 and F_{k-1} in N_1, taken from the
        literals F_{-1} = 1, F_0 = 0 and the binomial closed form, never
        from the recurrence cache, so a wrong seed of the terms shows."""
        fib = self.fib
        values = [ONE, ZERO] + [fib.explicit_binomial(k) for k in range(1, self.dim)]
        return (
            AlgElement(self.table, tuple(values[1:])),
            AlgElement(self.table, tuple(values[:-1])),
        )

    def genfun_check(self, trunc: int) -> Verdict:
        """(1 - h t - t^2) * sum Q_n t^n == N_0 + N_1 t up to the
        truncation order, with the numerator of `genfun_numerator`.
        Coefficient j of the left side is the convolution
        Q_j - h Q_{j-1} - Q_{j-2}, whose coordinate k for j >= 2 is the
        scalar residual `FibContext.residual(j + k)`, as in
        `recurrence_check`, read where the prefix misses trunc + dim - 1."""
        if trunc < 0:
            raise IndexConstraintViolated("the truncation order starts at 0")
        h, dim, fib = self.h, self.dim, self.fib
        terms = [fib.fib(m) for m in range(dim + 1)]
        for j, expected in enumerate(self.genfun_numerator()[:trunc + 1]):
            got = terms[:dim] if j == 0 else [terms[k + 1] - h * terms[k] for k in range(dim)]
            if tuple(got) != expected.coords:
                return Verdict(False, f"t^{j} coefficient of the multiplied series")
        if trunc >= 2 and not fib.recurrence_proven(trunc + dim - 1):
            for m in range(2, trunc + dim):
                if fib.residual(m):
                    return Verdict(False, f"t^{max(2, m - dim + 1)} coefficient "
                                          "of the multiplied series")
        return HOLDS

    # -- right sides from the cached root powers ---------------------------

    def _root_combination(self, k: int, parts, odd: bool = False) -> Poly:
        """Coordinate k of the sum over (shift, weight) in `parts` of
        weight * sum c_ijk X(i + shift, j), or of the sums of Y with `odd`
        (see the module docstring): one `poly_combination` of the a_m or
        b_m, the multipliers of equal powers merged first; memoized."""
        key = (k, parts, odd)
        got = self._root_combinations.get(key)
        if got is None:
            merged: dict[int, Fraction] = {}
            for shift, weight in parts:
                for i, j, c in self._coord_terms[k]:
                    sign, m = _root_product(i + shift, j)
                    if odd and m < 0:
                        sign = -sign
                    merged[abs(m)] = merged.get(abs(m), 0) + 2 * weight * c * sign
            alpha_pow = self.fib.alpha_pow
            got = self._root_combinations[key] = poly_combination(
                [(alpha_pow(m).b if odd else alpha_pow(m).a, c) for m, c in merged.items() if c])
        return got

    # -- quadratic identities ---------------------------------------------

    def _table_check(self, first: tuple, second: tuple, factor, parts, odd: bool,
                     n: int, where: str) -> Verdict:
        """Coordinate by coordinate, factor * sum c_ijk
        [F_{a+i} F_{b+j} - F_{a2+i} F_{b2+j}] == (-1)^n times the
        `_root_combination` of `parts`, in Q[x], with (a, b) = first and
        (a2, b2) = second: the per-table route (see the module docstring)."""
        (a, b), (a2, b2) = first, second
        product = self.fib.fib_product
        for k, terms in enumerate(self._coord_terms):
            left = poly_combination([(product(a + i, b + j) - product(a2 + i, b2 + j), c)
                                     for i, j, c in terms])
            right = self._root_combination(k, parts, odd)
            if factor * left != (-right if n % 2 else right):
                return Verdict(False, f"coordinate {k} at {where}")
        return HOLDS

    def printed_matches(self, n: int, r: int) -> bool:
        """Whether the printed Catalan right-hand side (root exponent 2)
        equals the derived one (exponent 2r) at (n, r).  Both carry the
        sign (-1)^n, so the answer depends on r alone: whether
        (-1)^(r+1) times the printed bracket, the derived one with 2r
        replaced by 2, is the derived bracket, that is whether
        sum c_ijk [X(i + 2r, j) - X(i + 2, j)] vanishes in every
        coordinate."""
        if not 0 <= r <= n:
            raise IndexConstraintViolated("need 0 <= r <= n")
        got = self._printed.get(r)
        if got is None:
            self.fib.require_root_relations()
            got = self._printed[r] = not any(self._root_combination(k, ((2 * r, 1), (2, -1)))
                                             for k in range(self.dim))
        return got

    def catalan_check(self, n: int, r: int) -> Verdict:
        """(h^2+4) [Q_{n+r} Q_{n-r} - Q_n^2] against the derived bracket
        (-1)^n [a*b* (1 - (-1)^r a^2r) + b*a* (1 - (-1)^r b^2r)];
        `printed_matches` compares the printed variant with a^2, b^2."""
        if not 0 <= r <= n:
            raise IndexConstraintViolated("need 0 <= r <= n")
        return self._catalan_cleared_check(n, r, f"n={n}, r={r}")

    def _catalan_cleared_check(self, n: int, r: int, where: str) -> Verdict:
        """(h^2+4) [Q_{n+r} Q_{n-r} - Q_n^2] against the cleared bracket
        signed by (-1)^n, coordinate by coordinate: it holds where the
        recurrence and the bases prove every instance E(n+i, r, j-i), and
        otherwise is compared whole."""
        fib = self.fib
        fib.require_root_relations()
        top = n + r + self.dim - 1
        if top >= len(fib._scaled):
            fib._scale_to(top)  # NotDivisible as the whole comparison raises it
        if fib.catalan_instances(n, r, self._pairs, self._catalan_bases):
            return HOLDS
        parts = ((0, 1), (2 * r, 1 if r % 2 else -1))  # X(i, j) - (-1)^r X(i + 2r, j)
        return self._table_check((n + r, n - r), (n, n), fib.modulus, parts, False, n, where)

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
        quotient by s = alpha - beta taken from the root powers."""
        if n < 0 or r <= n:
            raise IndexConstraintViolated("the identity requires r > n >= 0")
        fib = self.fib
        fib.require_root_relations()
        top = r + self.dim
        if top >= len(fib._scaled):
            fib._scale_to(top)  # NotDivisible as the whole comparison raises it
        if fib.docagne_instances(r, n, self._pairs, self._docagne_bases):
            return HOLDS
        return self._table_check((r, n + 1), (r + 1, n), 1, ((r - n, 1),), True, n,
                                 f"n={n}, r={r}")

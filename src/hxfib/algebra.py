"""Finite-dimensional unitary algebras given by structure constants.

A table holds the (dim x dim x dim) rational constants c[i][j][k] with
e_i * e_j = sum_k c[i][j][k] e_k.  The only law imposed is that e_0 is a
two-sided unit; associativity and commutativity are *reported*, never
required, since the octonions must pass through here untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polytext import parse_rational
from .scalars import Poly, QuadExt


class TableMismatch(ValueError):
    """Elements over different multiplication tables were combined."""


class NotUnital(ValueError):
    """e_0 is not a two-sided unit of the table."""


class UnknownKind(ValueError):
    """No builtin algebra with the requested name."""


@dataclass(frozen=True)
class ValidationReport:
    name: str
    dim: int
    unital: bool
    associative: bool
    commutative: bool


def _as_constant(v):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v if v.denominator != 1 else v.numerator
    raise TypeError(f"structure constants must be rational, got {v!r}")


class AlgebraTable:
    """Immutable multiplication table; construction checks shape only,
    `validate` checks the unit law."""

    __slots__ = ("name", "dim", "constants")

    def __init__(self, name: str, constants):
        rows = tuple(
            tuple(tuple(_as_constant(c) for c in cell) for cell in row)
            for row in constants
        )
        dim = len(rows)
        if dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        for row in rows:
            if len(row) != dim or any(len(cell) != dim for cell in row):
                raise ValueError("structure constants must form a dim^3 array")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", rows)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraTable is immutable")

    def element(self, coords) -> "AlgElement":
        return AlgElement(self, coords)

    def basis(self, i: int) -> "AlgElement":
        return AlgElement(self, tuple(1 if k == i else 0 for k in range(self.dim)))

    def unit(self) -> "AlgElement":
        return self.basis(0)

    def zero(self, zero_scalar=0) -> "AlgElement":
        return AlgElement(self, (zero_scalar,) * self.dim)

    def basis_product(self, i: int, j: int):
        """Coordinates of e_i * e_j."""
        return self.constants[i][j]

    def _mul_coords(self, u, v):
        dim = self.dim
        out = [None] * dim
        for i in range(dim):
            ui = u[i]
            if not ui:
                continue
            for j in range(dim):
                vj = v[j]
                if not vj:
                    continue
                uv = ui * vj
                for k, c in enumerate(self.constants[i][j]):
                    if c:
                        t = uv * c
                        out[k] = t if out[k] is None else out[k] + t
        zero = u[0] * 0
        return tuple(zero if c is None else c for c in out)

    def require_unit(self) -> None:
        """Raise `NotUnital` unless e_0 is a two-sided unit: O(dim^2)."""
        dim = self.dim
        for j in range(dim):
            for k in range(dim):
                want = 1 if j == k else 0
                if self.constants[0][j][k] != want:
                    raise NotUnital(f"{self.name}: e0*e{j} is not e{j}")
                if self.constants[j][0][k] != want:
                    raise NotUnital(f"{self.name}: e{j}*e0 is not e{j}")

    def validate(self) -> ValidationReport:
        """Check the two-sided unit law (raising `NotUnital` on failure)
        and report associativity and commutativity as informational flags."""
        self.require_unit()
        dim = self.dim
        commutative = all(
            self.constants[i][j] == self.constants[j][i]
            for i in range(dim)
            for j in range(i + 1, dim)
        )
        basis = [tuple(1 if t == i else 0 for t in range(dim)) for i in range(dim)]
        associative = all(
            self._mul_coords(self.constants[i][j], basis[k])
            == self._mul_coords(basis[i], self.constants[j][k])
            for i in range(dim)
            for j in range(dim)
            for k in range(dim)
        )
        return ValidationReport(self.name, dim, True, associative, commutative)

    def __eq__(self, other):
        if not isinstance(other, AlgebraTable):
            return NotImplemented
        return self.name == other.name and self.constants == other.constants

    def __hash__(self):
        return hash((self.name, self.constants))

    def __repr__(self):
        return f"AlgebraTable({self.name!r}, dim={self.dim})"


class AlgElement:
    """Coordinate vector over a table.  Coordinates may live in any
    commutative scalar ring of the tower (Rational, Poly, QuadExt)."""

    __slots__ = ("table", "coords")

    def __init__(self, table: AlgebraTable, coords):
        coords = tuple(coords)
        if len(coords) != table.dim:
            raise ValueError(
                f"expected {table.dim} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("AlgElement is immutable")

    def _check(self, other: "AlgElement"):
        if self.table is not other.table and self.table != other.table:
            raise TableMismatch(
                f"cannot combine elements over {self.table.name!r} "
                f"and {other.table.name!r}"
            )

    def __add__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(
                self.table, tuple(a + b for a, b in zip(self.coords, other.coords))
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(
                self.table, tuple(a - b for a, b in zip(self.coords, other.coords))
            )
        return NotImplemented

    def __neg__(self):
        return AlgElement(self.table, tuple(-c for c in self.coords))

    def scale(self, s) -> "AlgElement":
        return AlgElement(self.table, tuple(c * s for c in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(
                self.table, self.table._mul_coords(self.coords, other.coords)
            )
        if isinstance(other, (int, Fraction, Poly, QuadExt)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly, QuadExt)):
            return self.scale(other)
        return NotImplemented

    def embed(self, modulus) -> "AlgElement":
        """Lift Poly coordinates into the quadratic extension s^2=modulus."""
        return AlgElement(
            self.table,
            tuple(QuadExt.from_poly(c if isinstance(c, Poly) else Poly((c,)), modulus)
                  for c in self.coords),
        )

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, AlgElement):
            return self.table == other.table and all(
                a == b for a, b in zip(self.coords, other.coords)
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.table, self.coords))

    def __repr__(self):
        return f"AlgElement({self.table.name!r}, {list(self.coords)!r})"


def _unit_bordered(name, inner):
    """Build a table from the sub-table on e_1..e_{m} products, adding the
    unit row and column."""
    dim = len(inner) + 1
    constants = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        constants[0][j][j] = 1
        constants[j][0][j] = 1
    for i, row in enumerate(inner, start=1):
        for j, cell in enumerate(row, start=1):
            constants[i][j] = list(cell)
    return AlgebraTable(name, constants)


def scalar_table() -> AlgebraTable:
    """The one-dimensional algebra; elements are plain scalars."""
    return AlgebraTable("scalar", (((1,),),))


def _two_dim(name: str, square) -> AlgebraTable:
    return _unit_bordered(name, [[[square, 0]]])


def complex_table() -> AlgebraTable:
    return _two_dim("complex", -1)


def split_complex_table() -> AlgebraTable:
    return _two_dim("split_complex", 1)


def dual_table() -> AlgebraTable:
    return _two_dim("dual", 0)


def quaternion_table(a=-1, b=-1) -> AlgebraTable:
    """Generalized quaternions H(a, b): e1^2 = a, e2^2 = b,
    e1 e2 = e3 = -e2 e1, and the products these force."""
    a = Fraction(a)
    b = Fraction(b)
    name = "quaternion" if (a, b) == (-1, -1) else f"quaternion:{a},{b}"
    inner = [
        # rows are e1, e2, e3; cells are coords over (e0, e1, e2, e3)
        [[a, 0, 0, 0], [0, 0, 0, 1], [0, 0, a, 0]],
        [[0, 0, 0, -1], [b, 0, 0, 0], [0, -b, 0, 0]],
        [[0, 0, -a, 0], [0, b, 0, 0], [-a * b, 0, 0, 0]],
    ]
    return _unit_bordered(name, inner)


def cayley_dickson_double(base: AlgebraTable, gamma=-1, name: str | None = None) -> AlgebraTable:
    """Double a table whose conjugation fixes e_0 and negates e_1..e_m,
    using (u, v)(w, z) = (u w + gamma z* v, z u + v w*)."""
    m = base.dim
    g = Fraction(gamma)
    dim = 2 * m
    c = base.constants

    def sign(j):
        return 1 if j == 0 else -1

    constants = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                constants[i][j][k] = c[i][j][k]
                constants[i][m + j][m + k] = c[j][i][k]
                constants[m + i][j][m + k] = sign(j) * c[i][j][k]
                constants[m + i][m + j][k] = g * sign(j) * c[j][i][k]
    return AlgebraTable(name or f"double({base.name})", constants)


def octonion_table(a=-1, b=-1) -> AlgebraTable:
    """Octonions as the Cayley-Dickson double of H(a, b); building the
    8x8x8 table this way removes a whole class of transcription errors."""
    base = quaternion_table(a, b)
    name = "octonion" if (Fraction(a), Fraction(b)) == (-1, -1) else f"octonion:{a},{b}"
    return cayley_dickson_double(base, -1, name)


_BUILTINS = {
    "complex": complex_table,
    "split_complex": split_complex_table,
    "dual": dual_table,
    "quaternion": quaternion_table,
    "octonion": octonion_table,
}


def builtin(kind: str, *params) -> AlgebraTable:
    """Construct a builtin table.  `kind` may carry inline parameters in
    the form "quaternion:a,b" with rational a and b."""
    name = kind
    args = list(params)
    if ":" in kind and not args:
        name, _, tail = kind.partition(":")
        try:
            args = [parse_rational(t) for t in tail.split(",") if t]
        except ValueError as exc:
            raise UnknownKind(f"bad parameters in algebra kind {kind!r}: {exc}")
    factory = _BUILTINS.get(name)
    if factory is None:
        raise UnknownKind(f"unknown builtin algebra {kind!r}")
    try:
        return factory(*args)
    except TypeError:
        raise UnknownKind(f"algebra {name!r} does not take {len(args)} parameters")


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def _constant_to_json(c):
    c = Fraction(c)
    if c.denominator == 1:
        return c.numerator
    return f"{c.numerator}/{c.denominator}"


def _constant_from_json(v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"structure constant must be an int or 'p/q', got {v!r}")
    return Fraction(v) if isinstance(v, int) else parse_rational(v)


def table_to_spec(table: AlgebraTable) -> dict:
    """JSON-ready document for a table."""
    return {
        "name": table.name,
        "dim": table.dim,
        "table": [
            [[_constant_to_json(c) for c in cell] for cell in row]
            for row in table.constants
        ],
    }


def table_from_spec(doc: dict) -> AlgebraTable:
    """Parse the JSON document format and check the unit law alone; a bad
    unit row surfaces as `NotUnital`."""
    if not isinstance(doc, dict):
        raise ValueError("algebra spec must be a JSON object")
    try:
        name = doc["name"]
        dim = doc["dim"]
        raw = doc["table"]
    except KeyError as exc:
        raise ValueError(f"algebra spec is missing key {exc.args[0]!r}")
    if not isinstance(name, str) or not isinstance(dim, int) or dim < 1:
        raise ValueError("algebra spec needs a string name and positive int dim")
    if not isinstance(raw, list):
        raise ValueError("table must be a list of rows")
    if len(raw) != dim:
        raise ValueError(f"table has {len(raw)} rows, expected {dim}")
    constants = []
    for row in raw:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError("each table row must be a list of dim cells")
        cells = []
        for cell in row:
            if not isinstance(cell, list) or len(cell) != dim:
                raise ValueError("each table cell must be a list of dim constants")
            cells.append([_constant_from_json(v) for v in cell])
        constants.append(cells)
    table = AlgebraTable(name, constants)
    table.require_unit()
    return table

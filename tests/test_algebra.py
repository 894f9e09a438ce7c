"""Structure-constant tables: builtin constructors, the Cayley-Dickson
doubling, validation flags, and element arithmetic."""

import random
from fractions import Fraction

import pytest

from hxfib.algebra import (
    AlgebraTable,
    AlgElement,
    NotUnital,
    TableMismatch,
    UnknownKind,
    builtin,
    cayley_dickson_double,
    complex_table,
    dual_table,
    octonion_table,
    quaternion_table,
    scalar_table,
    split_complex_table,
    table_from_spec,
    table_to_spec,
)
from hxfib.scalars import Poly, QuadExt, root_modulus

F = Fraction

ALL_BUILTINS = [
    complex_table,
    split_complex_table,
    dual_table,
    quaternion_table,
    lambda: quaternion_table(2, -3),
    octonion_table,
]


def rand_element(table, rng):
    return table.element(tuple(rng.randint(-5, 5) for _ in range(table.dim)))


def conj(u):
    scaled = [-c for c in u.coords]
    scaled[0] = u.coords[0]
    return AlgElement(u.table, scaled)


# -- builtin tables -----------------------------------------------------------

def test_two_dimensional_squares():
    assert complex_table().basis_product(1, 1) == (-1, 0)
    assert split_complex_table().basis_product(1, 1) == (1, 0)
    assert dual_table().basis_product(1, 1) == (0, 0)


def test_validation_flags():
    assert complex_table().validate().commutative
    assert dual_table().validate().associative
    q = quaternion_table().validate()
    assert q.unital and q.associative and not q.commutative
    o = octonion_table().validate()
    assert o.unital and not o.associative


@pytest.mark.parametrize("factory", ALL_BUILTINS)
def test_validate_passes_for_every_builtin(factory):
    report = factory().validate()
    assert report.unital


def test_hamilton_relations_all_sixteen_pairs():
    expected = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    table = quaternion_table()
    for (i, j), (k, sign) in expected.items():
        assert table.basis_product(i, j) == tuple(
            sign if t == k else 0 for t in range(4)
        )


def test_generalized_quaternion_relations():
    t = quaternion_table(2, -3)
    assert t.basis_product(1, 1) == (2, 0, 0, 0)
    assert t.basis_product(2, 2) == (-3, 0, 0, 0)
    assert t.basis_product(3, 3) == (6, 0, 0, 0)
    assert t.basis_product(1, 2) == (0, 0, 0, 1)
    assert t.basis_product(2, 1) == (0, 0, 0, -1)


def test_octonions_are_not_associative():
    o = octonion_table()
    e = o.basis
    assert (e(1) * e(2)) * e(4) != e(1) * (e(2) * e(4))


def test_octonion_alternative_laws_random():
    o = octonion_table()
    rng = random.Random(7)
    for _ in range(10):
        u, v = rand_element(o, rng), rand_element(o, rng)
        assert (u * u) * v == u * (u * v)
        assert (u * v) * v == u * (v * v)


@pytest.mark.parametrize(
    "factory", [quaternion_table, lambda: quaternion_table(2, -3), octonion_table]
)
def test_norm_is_multiplicative(factory):
    # u * conj(u) lands on e_0; the norm of a product is the product of
    # norms, a sharp independent oracle for the table entries.
    table = factory()
    rng = random.Random(13)
    for _ in range(8):
        u, v = rand_element(table, rng), rand_element(table, rng)
        nu, nv, nuv = u * conj(u), v * conj(v), (u * v) * conj(u * v)
        assert all(not c for c in nu.coords[1:])
        assert nuv.coords[0] == nu.coords[0] * nv.coords[0]


def test_doubling_complex_gives_quaternions():
    doubled = cayley_dickson_double(complex_table(), -1)
    assert doubled.constants == quaternion_table().constants


def test_unit_law_every_builtin():
    rng = random.Random(19)
    for factory in ALL_BUILTINS:
        table = factory()
        e0 = table.unit()
        for _ in range(5):
            u = rand_element(table, rng)
            assert e0 * u == u and u * e0 == u


def test_bilinearity_random():
    rng = random.Random(23)
    for factory in ALL_BUILTINS:
        table = factory()
        for _ in range(5):
            u, v, w = (rand_element(table, rng) for _ in range(3))
            assert (u + v) * w == u * w + v * w
            assert w * (u + v) == w * u + w * v


# -- elements -----------------------------------------------------------------

def test_quaternion_products():
    q = quaternion_table()
    e = q.basis
    assert e(1) * e(2) == e(3)
    assert e(2) * e(1) == -e(3)


def test_add_scale():
    q = quaternion_table()
    u = q.element((0, 1, 1, 2))
    assert u + q.zero() == u
    assert u * 1 == u
    assert q.element((0, 1, 1, 2)) * 2 == q.element((0, 2, 2, 4))


def test_elements_equal_only_elements_so_hashes_agree():
    q = quaternion_table()
    zero = q.zero()
    assert zero != 0 and not zero
    assert zero == q.zero(Poly([])) and hash(zero) == hash(q.zero(Poly([])))
    assert len({zero, q.zero(Poly([])), q.element((0, 0, 0, Fraction(0)))}) == 1


def test_polynomial_coordinates():
    c = complex_table()
    x = Poly([0, 1])
    u = c.element((x, Poly([1])))
    v = c.element((Poly([1]), x))
    # (x + e1)(1 + x e1) = (x - x) + (x^2 + 1) e1
    assert (u * v).coords == (Poly([]), Poly([1, 0, 1]))


def test_table_mismatch():
    u = quaternion_table().element((1, 0, 0, 0))
    v = quaternion_table(2, -3).element((1, 0, 0, 0))
    with pytest.raises(TableMismatch):
        u * v


def test_embed_into_quadratic_extension():
    q = quaternion_table()
    m = root_modulus(Poly([0, 1]))
    u = q.element((Poly([1]), Poly([0, 1]), Poly([]), Poly([2])))
    lifted = u.embed(m)
    assert all(isinstance(c, QuadExt) and not c.b for c in lifted.coords)
    # projecting back recovers the original when radical parts are zero
    assert [c.a for c in lifted.coords] == list(u.coords)
    zero = q.zero(Poly([]))
    assert not zero.embed(m)


def test_validate_rejects_broken_unit():
    bad = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][0][0] = 1
    bad[0][1][0] = 1  # e0*e1 = e0: not a unit
    bad[1][0][1] = 1
    bad[1][1][0] = -1
    with pytest.raises(NotUnital):
        AlgebraTable("broken", bad).validate()


def test_scalar_table_is_one_dimensional():
    t = scalar_table()
    assert t.dim == 1
    assert t.element((5,)) * t.element((7,)) == t.element((35,))


# -- builtin lookup and the JSON format ----------------------------------------

def test_builtin_lookup():
    assert builtin("complex").dim == 2
    assert builtin("quaternion:2,-3").constants == quaternion_table(2, -3).constants
    assert builtin("octonion").dim == 8
    with pytest.raises(UnknownKind):
        builtin("sedenion")
    with pytest.raises(UnknownKind):
        builtin("quaternion:1,2,3")


def test_spec_round_trip():
    for factory in ALL_BUILTINS:
        table = factory()
        doc = table_to_spec(table)
        again = table_from_spec(doc)
        assert again.constants == table.constants
        assert again.name == table.name


def test_spec_accepts_rational_strings():
    doc = {
        "name": "halves",
        "dim": 2,
        "table": [
            [[1, 0], [0, 1]],
            [[0, 1], ["1/2", 0]],
        ],
    }
    table = table_from_spec(doc)
    assert table.basis_product(1, 1) == (F(1, 2), 0)


def test_spec_rejects_bad_documents():
    with pytest.raises(ValueError):
        table_from_spec({"name": "x", "dim": 2, "table": [[[1, 0]]]})
    with pytest.raises(ValueError):
        table_from_spec({"name": "x", "dim": 1, "table": [[["2/0"]]]})
    with pytest.raises(NotUnital):
        table_from_spec(
            {"name": "x", "dim": 2, "table": [[[1, 0], [1, 0]], [[0, 1], [0, 0]]]}
        )

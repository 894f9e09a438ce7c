"""Exact h(x)-Fibonacci polynomials over arbitrary finite-dimensional
unitary algebras, with mechanical verification of their identities."""

from .algebra import (
    AlgebraTable,
    AlgElement,
    NotUnital,
    TableMismatch,
    UnknownKind,
    builtin,
    builtin_names,
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
from .fibseq import (
    DomainError,
    FibContext,
    IndexConstraintViolated,
    Verdict,
    ZeroH,
)
from .hyperfib import HyperContext
from .polytext import PolyParseError, format_poly, parse_poly
from .scalars import (
    GaussRational,
    ModulusMismatch,
    NonRealResult,
    NotDivisible,
    DivisorZero,
    Poly,
    QuadExt,
    Rational,
    binomial,
    quad_from_alpha,
    quad_from_beta,
    root_modulus,
)
from .suite import (
    MUTATIONS,
    CheckRecord,
    Corpus,
    Report,
    default_corpus,
    mutation_corpus,
    random_h_polys,
    run_all,
    run_with_mutation,
    shrink,
)

__version__ = "0.1.0"

"""Constacyclic codes over GF(p^e) under Galois inner products."""

from .gf import (
    Field,
    FieldElement,
    make_field,
    frobenius,
    mult_order,
    embed,
    section,
    format_element,
    parse_element,
)
from .polyring import Poly, QuotientElem, poly_gcd
from .cosets import CodeParams, QCoset, CosetFunction, derive_params, q_cosets, s_orbits
from .codes import (
    ConstaCode,
    coset_poly,
    cf_poly,
    build_code,
    enumerate_codewords,
    min_weight,
)
from .duality import (
    Isometry,
    SelfDualCertificate,
    galois_inner,
    galois_dual,
    is_galois_selfdual,
    is_iso_galois_selfdual,
    iso_witness_for,
)
from .existence import (
    ExistenceVerdict,
    nu,
    duadic_exists,
    iso_selfdual_exists,
    galois_selfdual_exists,
    euclidean_selfdual_exists,
    hermitian_selfdual_exists,
)

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElement", "make_field", "frobenius", "mult_order",
    "embed", "section", "format_element", "parse_element",
    "Poly", "QuotientElem", "poly_gcd",
    "CodeParams", "QCoset", "CosetFunction", "derive_params", "q_cosets", "s_orbits",
    "ConstaCode", "coset_poly", "cf_poly", "build_code", "enumerate_codewords",
    "min_weight",
    "Isometry", "SelfDualCertificate", "galois_inner", "galois_dual",
    "is_galois_selfdual", "is_iso_galois_selfdual", "iso_witness_for",
    "ExistenceVerdict", "nu", "duadic_exists",
    "iso_selfdual_exists", "galois_selfdual_exists",
    "euclidean_selfdual_exists", "hermitian_selfdual_exists",
]

"""Exact classes of unit tori of separable algebras over finite fields.

The class of the unit scheme is computed as a monic polynomial in the
Lefschetz class with zero-dimensional coefficients, by three independent
algorithms, and cross-checked by point counting over extensions.
"""

from .combinatorics import Partition, partitions
from .cyclic import CyclicBurnside
from .schur import (
    SchurElement,
    lambda_standard,
    mark_matrix,
    torus_coefficient,
)
from .torus import (
    AlgebraSpec,
    TorusClass,
    char_poly_oracle,
    class_via_lambda,
    class_via_recursion,
    class_via_universal,
    norm_one_class,
    point_count_oracle,
    spec_class,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "CyclicBurnside",
    "Partition",
    "SchurElement",
    "TorusClass",
    "char_poly_oracle",
    "class_via_lambda",
    "class_via_recursion",
    "class_via_universal",
    "lambda_standard",
    "mark_matrix",
    "norm_one_class",
    "partitions",
    "point_count_oracle",
    "spec_class",
    "torus_coefficient",
]

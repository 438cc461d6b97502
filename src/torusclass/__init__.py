"""Exact classes of unit tori of separable algebras over finite fields.

The class of the unit scheme is computed as a monic polynomial in the
Lefschetz class with zero-dimensional coefficients, by three independent
algorithms, and cross-checked by point counting over extensions.
"""

from .combinatorics import (
    Composition,
    Partition,
    compositions,
    multinomial,
    partitions,
    power_cycle_type,
)
from .cyclic import CyclicBurnside
from .gsets import (
    FiniteGSet,
    cyclic_decomposition,
    fixed_points,
    orbits,
    power_tuple_set,
    product,
    symmetric_power,
)
from .schur import (
    MarkMatrix,
    SchurElement,
    lambda_standard,
    mark_matrix,
    restrict_to_cyclic,
    torus_coefficient,
    tuple_set_class,
)
from .series import lambda_from_sigma, sigma_from_lambda
from .torus import (
    AlgebraSpec,
    TorusClass,
    char_poly_oracle,
    class_via_lambda,
    class_via_recursion,
    class_via_universal,
    norm_one_class,
    point_count_oracle,
    recursion_stratum_base,
    spec_class,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "Composition",
    "CyclicBurnside",
    "FiniteGSet",
    "MarkMatrix",
    "Partition",
    "SchurElement",
    "TorusClass",
    "char_poly_oracle",
    "class_via_lambda",
    "class_via_recursion",
    "class_via_universal",
    "compositions",
    "cyclic_decomposition",
    "fixed_points",
    "lambda_from_sigma",
    "lambda_standard",
    "mark_matrix",
    "multinomial",
    "norm_one_class",
    "orbits",
    "partitions",
    "point_count_oracle",
    "power_cycle_type",
    "power_tuple_set",
    "product",
    "recursion_stratum_base",
    "restrict_to_cyclic",
    "sigma_from_lambda",
    "spec_class",
    "symmetric_power",
    "torus_coefficient",
    "tuple_set_class",
]

"""torusconj: certified semi-conjugacies and skew-product conjugacies for
torus maps Mz + G(z) mod 1 with trigonometric periodic parts."""

from .specdsl import TorusMapSpec, TrigTerm, parse_spec, make_spec, serialize_spec
from .errors import (TorusConjError, LatticeError, SpecParseError,
                     ContractionError, EngineError, FiberSolveError)
from .intlat import (hermite_normal_form, integer_eigenvalues,
                     left_eigenvector_integer, derive_invariant_line,
                     tiling_parallelotope, block_triangularize, BlockForm)
from .semiconj import build_engine, phi_hat, phi_torus, semiconjugacy_residual
from .cones import ConeParams, pointwise_cone_check, verify_A2
from .conjmap import H_forward, H_inverse, skew_product_residual

__version__ = "0.1.0"

__all__ = [
    "TorusMapSpec", "TrigTerm", "parse_spec", "make_spec", "serialize_spec",
    "TorusConjError", "LatticeError", "SpecParseError", "ContractionError",
    "EngineError", "FiberSolveError",
    "hermite_normal_form", "integer_eigenvalues", "left_eigenvector_integer",
    "derive_invariant_line", "tiling_parallelotope", "block_triangularize",
    "BlockForm",
    "build_engine", "phi_hat", "phi_torus", "semiconjugacy_residual",
    "ConeParams", "pointwise_cone_check", "verify_A2",
    "H_forward", "H_inverse", "skew_product_residual",
]

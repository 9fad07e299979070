"""Exact toolkit for symmetric Frobenius algebras, Casimir elements,
Wedderburn data via modular splitting, integrality certification over Z,
and the semisimple Hopf-algebra divisibility theorems."""

from .algebra import (AlgebraError, DegenerateForm, FrobeniusStructure,
                      NotATraceForm, StructureConstantAlgebra,
                      TensorSquareAlgebra, VerificationReport,
                      frobenius_structure)
from .groups import FiniteGroup, InvalidGroupTable, group_from_table, named_group
from .hopf import (HopfAlgebraData, HopfAnalysis, HopfError, IntegralData,
                   NonIntegralFusion, NotUnimodular, QuasitriangularData,
                   RepresentationRing, class_equation_check,
                   double_of, double_projection, drinfeld_double,
                   dual_algebra, dual_hopf, factorizable_check,
                   frobenius_divisibility_hopf,
                   group_algebra, hopf_casimir, integrals,
                   quasitriangular_verify, representation_ring,
                   schneider_check, verify_hopf, zhu_check)
from .integrality import (EquivalenceViolation, InapplicableHypothesis,
                          IntegralityCertificate, NotASymmetricHomomorphism,
                          frobenius_divisibility_verdict, is_integral_over_Z,
                          is_integral_scalar, minimal_polynomial_over_Q,
                          relative_divisibility)
from .linalg import Matrix
from .modular import BadPrime, PrecisionExceeded, hensel_lift_idempotent
from .scalars import CyclotomicField, QQ, Rat, cyclotomic_polynomial
from .wedderburn import (WedderburnData, central_primitive_idempotents,
                         field_roots)

__version__ = "0.1.0"

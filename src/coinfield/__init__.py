"""Exact toolkit for the quantum-coin Bernoulli factory: decide which
amplitude ratios are simulable from coins of unknown bias, compile them to
postselected circuit programs, execute exactly or stochastically, and
classify probability functions with machine-checkable certificates."""

from .scalars import Scalar, sqrt_fraction
from .polys import (AlgebraicPoint, Poly, RatFn, certify_nonneg, isolate_roots,
                    poly_gcd, rational_roots, square_test,
                    squarefree_decompose, sturm_count)
from .field import (FieldElem, INFINITY, Infinity, OrderResult, fe_add,
                    fe_conj, fe_eval, fe_inv, fe_mod_squared, fe_mul,
                    sqrt_in_scalar_field, vanishing_order,
                    vanishing_order_at_point)
from .lang import (Expr, NotInFieldError, ParseError, eval_expr_numeric,
                   field_sqrt, lower, parse, print_expr)
from .synth import (CircuitProgram, compile, construct_p, emit_add, emit_inv,
                    emit_mul, program_from_json, program_to_json,
                    validate_program, worked_example_program)
from .sim import (CostReport, PostselectionError, RunResult, expected_cost,
                  gate_matrix, run_numeric, run_symbolic)
from .analysis import (CCReport, ClassReport, CorollaryResult, PiecewiseFn,
                       QCReport, QQReport, RatioDecision, check_phased_witness,
                       classify, classify_cc, classify_qc, classify_qq,
                       decide_qq_ratio, decide_real_corollary, parse_piecewise,
                       verify_spb)

__version__ = "0.1.0"

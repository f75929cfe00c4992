"""A linear lambda calculus for discrete Bayesian inference.

Terms are chains of definitions over two-state (and tensor) variables; their
meaning is a weighted relation between the webs of their free variables and
their type. The factor reading of a term supports classical variable
elimination, and the same elimination runs as term rewriting with five rules;
both routes agree numerically for every elimination order.
"""

from .cost import CostCounter, DEFAULT_WEB_CAP
from .denote import (
    DenoteContext,
    MassReport,
    Relation,
    denote,
    joint_vector,
    total_mass_check,
)
from .errors import LveError, ParseError, RewriteError, TypeCheckError
from .factors import (
    Factor,
    FactorSet,
    VefStep,
    constant_factor,
    contract,
    dump_factors,
    eliminate,
    factor_sets_equal,
    factors_of,
    check_factor_vars,
    marginal,
    plan_elimination,
    relation_from_factors,
)
from .network import load_network, network_to_program
from .orderings import elimination_candidates, min_degree_order, random_order
from .parser import SourceProgram, parse_program
from .printer import expr_str, pattern_str, program_str, term_str
from .rewrite import (
    RULES,
    RewriteStep,
    SizeBound,
    Trace,
    apply_rule,
    eliminate_seq,
    eliminate_term,
    simplify,
)
from .syntax import (
    Arrow,
    ArrowApp,
    BOOL,
    Bool,
    Expr,
    FreshNames,
    Lam,
    Let,
    LetTerm,
    MatApp,
    Pair,
    PLeaf,
    PPair,
    Pattern,
    StochasticMatrix,
    Tensor,
    Term,
    Var,
    Variable,
    alpha_eq,
    collect_matrices,
    collect_names,
    factor_scopes,
    free_vars,
    pattern_type,
    pattern_vars,
    size,
    type_str,
    typecheck,
)
from .verify import (
    GeneratorConfig,
    SuiteReport,
    brute_force_joint,
    check_instance,
    random_network,
    run_suite,
)
from .webs import Assignment, dim, element_index, enumerate_web, ht, web_size

__version__ = "0.1.0"

__all__ = [
    "CostCounter", "DEFAULT_WEB_CAP", "DenoteContext", "MassReport", "Relation",
    "collect_matrices", "denote", "joint_vector", "total_mass_check", "LveError", "ParseError",
    "RewriteError", "TypeCheckError", "Factor", "FactorSet", "VefStep", "constant_factor",
    "contract", "dump_factors", "eliminate", "factor_sets_equal", "factors_of",
    "check_factor_vars", "marginal", "plan_elimination", "relation_from_factors",
    "load_network", "network_to_program", "elimination_candidates", "min_degree_order",
    "random_order", "SourceProgram", "parse_program", "expr_str", "pattern_str",
    "program_str", "term_str", "RULES", "RewriteStep", "SizeBound", "Trace", "apply_rule",
    "eliminate_seq", "eliminate_term", "simplify",
    "Arrow", "ArrowApp", "BOOL", "Bool", "Expr", "FreshNames", "Lam", "Let", "LetTerm", "MatApp",
    "Pair", "PLeaf", "PPair", "Pattern", "StochasticMatrix", "Tensor", "Term", "Var", "Variable",
    "alpha_eq", "collect_names", "factor_scopes", "free_vars", "pattern_type",
    "pattern_vars", "size", "type_str", "typecheck", "GeneratorConfig", "SuiteReport",
    "brute_force_joint", "check_instance", "random_network", "run_suite", "Assignment", "dim",
    "element_index", "enumerate_web", "ht", "web_size",
]

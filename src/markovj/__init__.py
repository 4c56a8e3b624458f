"""Cycle integrals of the Klein j-function along Markov geodesics.

The tree of Markov triples, their minus-continued-fraction periods and
quadratic forms, exact q-expansion of j, a fixed Gauss-Legendre rule for the
cycle integrals J(w) and values j(w), and an empirical verification
layer for the recursions, interlacing, and asymptotic bound chain.
"""

from .cf import (
    CycleStates,
    Period,
    PeriodError,
    conjunction,
    cycle_states,
    eval_periodic,
    format_period,
    parse_period,
    period_matrix,
)
from .tree import (
    ROOT,
    TIP_LEFT,
    TIP_RIGHT,
    FareyFraction,
    MarkovTriple,
    TreeError,
    TreeNode,
    build_tree,
    find_fraction,
    markov_constant,
    markov_form,
    markov_irrational,
    markov_k,
    node_at,
    vieta_children,
)
from .jfunction import JSeries, j_coefficients, j_eval, truncation_error_bound
from .integrals import (
    ArcIntegrator,
    CycleValue,
    QuadratureError,
    average_integral,
    compute_values,
    integrate_J,
    log_epsilon,
)
from .analysis import (
    BoundChain,
    Report,
    asymptotics_report,
    check_interlacing,
    check_J_recursion,
    check_q_recursion,
    coincidence_bound,
    gg_prime_ranges,
    theorem2_constants,
)

__version__ = "1.0.0"

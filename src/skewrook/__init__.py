"""Bruhat-interval Poincare polynomials through q-rook theory on skew boards.

Exact integer and Laurent-polynomial arithmetic throughout; every closed form
ships with a brute-force oracle and a verification sweep (see the verify
module and the `skewrook verify` command).  The verify module loads on first
use: the package serves it, and the names it exports here, through a
module-level __getattr__ (PEP 562), so `import skewrook` does not compile it.
"""

import importlib

from .boards import (
    Board,
    all_skew_ferrers_boards,
    block_sharp,
    enumerate_rook_configs,
    left_hull,
    max_configs,
    ones,
    right_hull,
    triangular,
    zeros,
)
from .intervals import (
    CosetRepA,
    PatternViolationError,
    SignedPermutation,
    aztec_interval_size,
    coset_reps_A,
    count_lower_interval_dp,
    hull_interval_elements,
    max_coset_rep_A,
    max_coset_rep_B,
    poincare_B_brute,
    poincare_B_via_rook,
    poincare_via_rook,
    rank_B,
    reduce_coset_rep,
    symmetric_permutations,
    theoremA_poincare,
    theoremB_poincare,
    theorem8_counts,
)
from .permutations import (
    FORBIDDEN_PATTERNS,
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    eulerian_gf,
    poincare_brute,
)
from .qalgebra import (
    BiPoly,
    LaurentPoly,
    poly_bernoulli,
    q_factorial,
    q_falling,
    q_int,
    q_stirling,
    stirling2,
)
from .rooks import (
    full_placement_q_poly,
    garsia_remmel_product,
    gjw_product,
    inv_stat,
    q_rook_number,
    q_rook_number_brute,
    q_rook_poly,
    rb_polynomial,
    rb_polynomial_brute,
    rook_number,
    sharp_q_rook,
    sharp_rb,
    t_board_q_rook,
)

__version__ = "0.1.0"

_FROM_VERIFY = ("CheckResult", "bjorner_ekedahl_violation", "run_suite")


def __getattr__(name):
    if name == "verify" or name in _FROM_VERIFY:
        verify = importlib.import_module(f"{__name__}.verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

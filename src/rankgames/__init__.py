"""Exact bimatrix game solving along fully-labeled polytope paths."""

from .algorithms import (
    BinSearchReport,
    Region,
    RegionGraph,
    bin_search,
    enumerate_general,
    enumerate_rank1,
    fixed_point_search,
    general_family,
    homeo_forward,
    homeo_inverse,
    index_of,
    region_graph,
    solve_general,
)
from .games import (
    BimatrixGame,
    EquilibriumRecord,
    MixedProfile,
    Rank1Decomposition,
    RankKDecomposition,
    decompose_rank1,
    decompose_rank_k,
    positivity_shift,
    reduce_constant_beta,
    verify_equilibrium,
)
from .labeledpath import ComponentTrace, PathEdge, PathNode, trace_cycle, trace_path
from .linalg import Matrix, determinant, matrix_rank, solve_linear_system
from .lp import LinearProgram, LPSolution, solve_lp
from .oracle import fully_labeled_pairs, support_enumeration
from .paramlp import Hyperplane, fixed_point_eval, is_ne, solve_lp_delta, solve_lp_k
from .polytope import GameFamily, build_p, build_qprime

__all__ = [name for name in dir() if not name.startswith("_")]

"""Third-rank tensors in three dimensions: decompositions, generalized
eigenpairs, critical-point topology, and parameter-space separatrices."""

from .tensors import (
    EPSILON, KRONECKER, T_SYMBOL, TETRAHEDRAL_VECTORS,
    Tensor3, SymTensor3, OctupolarTensor, SymmetryDecomposition,
    HarmonicDecomposition, YoungDiagram,
    symmetry_decompose, harmonic_decompose, detrace_symmetric,
    young_dimensions, from_multipoles, tetrahedral_tensor,
)
from .potential import (
    OrientedParams, Orientation, SphereGrid,
    eval_potential, gradient, from_rho_chi_K, params_from_tensor,
    orient, sample_grid,
)
from .eigen import (
    Eigenpair, WalcherPoly, EigenSolution, CEigenTriple,
    walcher_coefficients, real_roots, solve_oriented, solve_oriented_batch, count_bound,
    c_eigenpairs, best_rank_one, incremental_rank_one,
)
from .topology import (
    CriticalPoint, TopologyReport, classify, full_topology, full_topology_batch,
    oracle_critical_points,
)
from .separatrix import (
    BoundaryEval, KStar, RegionSample,
    boundary_functions, k_star, cusp_location, region_scan,
)
from .trace import (
    TraceParams, TraceCriticalPoint, TraceReport, SymFullPotentialParams,
    trace_potential, trace_critical_points, trace_critical_values,
    trace_classify, tetra_constraints,
)
from .lc import (
    DirectorGradient, DistortionCharacteristics, FrankConstants,
    decompose_gradient, reconstruct_gradient, oseen_frank,
    lc_octupolar_potential, lc_octupolar_tensor,
)

__version__ = "0.1.0"

"""Numerics for scattering resonances as the spectrum of a decay semigroup.

The package discretizes the upper Hardy class of the line, realizes the
characteristic (compressed shift) semigroup and its scattering-matrix-dependent
invariant subspaces, locates resonances as poles of analytically continued
scattering matrices, and exposes survival-probability curves plus a CLI.
"""

from .hardy import (
    Grid,
    GridFunction,
    cauchy_eval,
    fourier,
    grid_function,
    inner,
    make_grid,
    mt_basis,
    mt_coefficients_grid,
    mt_expand,
    mt_point_eval,
    mt_synthesize,
    norm,
    project_half_line,
    project_hardy,
)
from .semigroup import (
    GeneratorSample,
    IsometryPair,
    apply_C,
    apply_T,
    build_polar_isometry,
    generator_matrix,
    generator_offset,
    semigroup_matrix,
    transfer_apply,
)
from .smatrix import (
    RankOneModel,
    RationalModel,
    SMatrixModel,
    SquareWellModel,
    TraceClassData,
    TraceClassModel,
    build_L,
    example1,
    jost_F,
    jost_F_ode,
    load_trace_csv,
    model_from_spec,
    momentum,
    rankone_resolvent_elem,
    rankone_trace_data,
    trace_T,
)
from .finder import (
    AuditReport,
    Resonance,
    ScanRegion,
    conjugate_pair_audit,
    find_resonances,
    refine,
    resonances_to_csv,
    resonances_to_json,
    rim_scan,
    scan_region,
    winding_number,
)
from .subspace import (
    DecayCurve,
    SubspaceBasis,
    b_matrix,
    basis_diagnostics,
    build_M_and_T,
    build_N_basis,
    gamov,
    gamov_coefficients,
    resolve_B,
    resolvent_residual,
    restricted_apply,
    transition_curve,
)

__version__ = "0.1.0"

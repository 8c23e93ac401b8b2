"""Finitely squeezed CV cluster states, surface-code mapping and
topological diagnostics on square lattices."""

from .engine import (
    CovMatrix,
    GaussGraph,
    SymplecticSpectrum,
    apply_symplectic,
    covariance_from_graph,
    log_negativity,
    measure_p,
    measure_q,
    pure_log_negativity,
    purity,
    symplectic_form,
    symplectic_spectra,
    symplectic_spectrum,
    thermal_scale,
    von_neumann_entropy,
)
from .lattice import (
    LatticeSpec,
    NullifierSet,
    SurfaceGraph,
    cluster_adjacency,
    cluster_graph,
    kept_mode_adjacency,
    map_cluster_to_surface,
    measurement_pattern,
    nullifier_commutators,
    nullifier_expectation,
    nullifier_vectors,
    rescale_gauge,
    surface_code_adjacency,
    surface_code_graph_analytic,
)
from .topo import (
    RegionSet,
    TopoReport,
    kp_regions,
    lw_regions,
    mutual_information,
    tee_kp,
    tee_lw,
    tee_upper_bound,
    tln_kp,
    tmi,
    tmi_lower_bound,
    tmi_sandwich_bounds,
)
from .spectra import (
    SpectrumResult,
    cluster_gap,
    commutator_matrices,
    gap,
    gap_asymptotic,
    normal_modes,
)
from .correlations import (
    CorrelationBound,
    area_law_fit,
    axis_samples,
    dms_bound,
    fit_correlation_length,
    graph_distance,
    pp_correlation,
    qq_correlation,
    verify_bound,
)
from . import errors

__version__ = "0.1.0"

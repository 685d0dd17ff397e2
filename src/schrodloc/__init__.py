"""Localization of low eigenstates of disordered Schrodinger operators.

The package covers the full experimental loop: disorder potential
generators and their valley geometry (`potential`), periodic Q1 finite
element assembly with cell-exact support masks (`fem`), the eps-local
overlapping Schwarz preconditioner and its contraction estimates
(`schwarz`), oracle eigensolvers plus support-tracked (block) inverse
iterations (`eig`), decay/gap/Friedrichs experiments (`analysis`), and
deterministic artifact emission with a CLI driver (`reports`, `cli`).
"""

from .analysis import (
    CertificateReport,
    DecayProfile,
    FriedrichsReport,
    GapReport,
    GreenDecayResult,
    SpectraComparison,
    annulus_energies,
    eigen_decay,
    find_centers,
    friedrichs_ratio,
    gap_scan,
    green_decay,
    minmax_certificate,
    spectra_compare,
)
from .eig import (
    IterationState,
    Spectrum,
    StartBlock,
    auto_oracle,
    block_iteration,
    build_start_valleys,
    dense_oracle,
    energy_error_to,
    inexact_block_iteration,
    inverse_power,
    outer_steps,
    pinvit,
    pinvit_step,
    shift_invert_oracle,
)
from .errors import ConfigError, NumericalError
from .fem import (
    AssembledSystem,
    CutoffField,
    SubgridSpec,
    assemble,
    build_cutoff,
    cell_energies,
    cell_mass,
    certify_support,
    dilate_cells,
    dump_system,
    energy_norm,
    mask_allows,
    mask_of_vector,
    mass_norm,
    rayleigh,
    system_digest,
)
from .potential import (
    GeometryStats,
    GridSpec,
    PotentialField,
    Valley,
    analyze_geometry,
    gen_domino,
    gen_iid,
    gen_periodic,
    gen_planted,
    gen_tensor,
    load_field,
    make_rng,
    save_field,
)
from .schwarz import (
    ComposedSmoother,
    ContractionConstants,
    ContractionEstimate,
    PatchSet,
    RichardsonResult,
    SchwarzPreconditioner,
    build_patches,
    build_preconditioner,
    compose_smoother,
    estimate_contraction,
    pcg_solve,
    richardson_solve,
    schwarz_precondition,
    spectral_extremes,
    theoretical_constants,
)

__version__ = "0.1.0"

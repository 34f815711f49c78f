"""Pseudoinverse localization landscapes for lattice models.

The landscape v solves H^dag H v = 1 through a cutoff pseudoinverse and
serves as an eigenstate-free localization and gap-closing diagnostic for
static non-Hermitian chains, periodically driven (extended-space) problems
and topological midgap modes.
"""

from .diagnostics import (
    MidgapMode,
    SweepReport,
    average_right_density,
    detect_peaks,
    floquet_dos,
    fold_quasienergy,
    midgap_report,
    pearson,
    spearman,
)
from .dynamics import (
    DriveSignal,
    Trajectory,
    min_left_population_grid,
    monodromy_quasienergies_sweep,
    propagate,
    quasienergy_gap,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    HermiticityError,
    NormalizationError,
)
from .landscape import (
    LandscapeResult,
    eigenmode_bound_report,
    solve_landscape,
)
from .linalg import (
    DEFAULT_RCOND,
    EigResult,
    Operator,
    PseudoSolveResult,
    SignedPermutation,
    Spectrum,
    eig_general,
    factorize,
    gauge_eigh,
    normal_operator,
    pseudo_solve,
)
from .models import (
    SshConfig,
    aah_drive,
    aah_static,
    bbh,
    bbh_site_coords,
    domain_wall_site,
    hatano_nelson,
    ssh,
    two_level_drive_duo,
    two_level_drive_mono,
    two_level_static,
)
from .sambe import (
    SambeIndexMap,
    SambeOperator,
    build_sambe,
    build_sambe_duo,
    build_sambe_mono,
)

__version__ = "0.1.0"

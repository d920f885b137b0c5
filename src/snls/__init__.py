"""snls: spectral simulation and scattering analysis for the 1D defocusing
NLS with a steplike potential, i u_t + u_xx - V u = |u|^alpha u.
"""

from .checkpoint import Checkpoint, read_checkpoint, write_checkpoint
from .diagnostics import (
    ExponentSet,
    MorawetzReport,
    StrichartzPair,
    decay_ratio,
    defocusing_sup_bound,
    energy,
    exponents,
    h1v_norm_sq,
    morawetz_report,
    strichartz_norm,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    GridMismatchError,
    InstabilityError,
    InsufficientDataError,
    InvalidFieldError,
    ParameterError,
    SnlsError,
)
from .grid import (
    ComplexField,
    Grid,
    boundary_mass_fraction,
    forward_transform,
    gaussian_packet,
    h1_norm_sq,
    high_mode_fraction,
    inner_product,
    inverse_transform,
    l1_norm,
    l2_norm_sq,
    lp_norm,
    spectral_derivative,
    sup_norm,
    translate,
)
from .potentials import (
    HypothesisReport,
    PotentialFamily,
    PotentialSpec,
    build_potential,
    check_hypotheses,
    load_samples_csv,
)
from .propagators import (
    PerturbedPropagator,
    evolve_free,
    evolve_shifted,
    free_decay_constant,
    spectral_second_derivative_matrix,
)
from .scattering import (
    ChannelPair,
    ChannelStudy,
    Profile,
    ProfileSet,
    channel_convergence_study,
    extract_linear_channels,
    extract_nonlinear_channels,
    greedy_profile_decomposition,
    nonlinear_wave_state,
    translation_flow_gap,
)
from .solver import NlsProblem, Trajectory, phase_substep, solve

__version__ = "0.1.0"

"""Random geometric graphs with a nonparametric distance envelope: simulation
on spheres and projective spaces, and recovery of the envelope from the
adjacency spectrum with adaptive resolution selection."""

from .adapt import (
    AdaptConfig,
    AdaptResult,
    bias_proxy,
    fit_all_resolutions,
    penalty,
    reconstruct_envelope,
    select_resolution,
)
from .errors import (
    DomainError,
    ModelError,
    NggError,
    QuadratureError,
    SolverError,
)
from .estimator import (
    SpectrumEstimate,
    estimate_vector,
    fit_resolution,
    score_ordering,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    concentration_check,
    fit_graph,
    risk_curve,
    run_experiment,
    true_coefficients,
)
from .model import (
    Envelope,
    GraphSample,
    LatentSample,
    builtin_envelope,
    constant_envelope,
    cosines,
    envelope_from_coefficients,
    generate_graph,
    probability_matrix,
    sample_latent,
)
from .spaces import (
    HarmonicBasis,
    LatentSpace,
    SpaceKind,
    beta_shape,
    complex_projective,
    cumulative_dim,
    dim_of_degree,
    envelope_coefficients,
    flag_noninteger_dims,
    harmonic_basis,
    octonionic_plane,
    orthonormality_gram,
    quaternionic_projective,
    real_projective,
    sphere,
)
from .spectral import Spectrum, delta2, eigenvalues_symmetric, operator_norm

__version__ = "0.1.0"

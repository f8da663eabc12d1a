"""Random geometric graphs with a nonparametric distance envelope: simulation
on spheres and projective spaces, and recovery of the envelope from the
adjacency spectrum with adaptive resolution selection."""

from .adapt import (
    AdaptConfig,
    AdaptResult,
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
from .estimator import SpectrumEstimate
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    concentration_check,
    fit_graph,
    run_experiment,
    true_coefficients,
)
from .model import (
    Envelope,
    LatentSample,
    builtin_envelope,
    constant_envelope,
    cosines,
    envelope_from_coefficients,
    generate_graph,
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
    harmonic_basis,
    octonionic_plane,
    quaternionic_projective,
    real_projective,
    sphere,
)
from .spectral import Spectrum, as_spectrum

__version__ = "0.1.0"

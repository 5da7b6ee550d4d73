"""Damped quantum oscillator optics: exact propagator, rays, and waves.

An optical resonator with slowly separating mirrors realizes the damped
(exponentially time-scaled) harmonic oscillator in its transverse light
dynamics.  This package provides the three layers of that correspondence:

* :mod:`kanai_cavity.core` -- classical fundamental solutions of the damped
  oscillator and friction profiles g(n);
* :mod:`kanai_cavity.paraxial`, :mod:`kanai_cavity.schedule`,
  :mod:`kanai_cavity.raysim` -- ray matrices, the mirror motion law that
  keeps the round trip canonical while damping it, and ray traces;
* :mod:`kanai_cavity.wavesim`, :mod:`kanai_cavity.kanai` -- diffraction
  engines for the transverse field, the exact quantum propagator, and the
  parameter map tying the two descriptions together.

The ``kanai-cavity`` CLI (see :mod:`kanai_cavity.cli`) runs the standard
scenarios from a JSON config.
"""

from .core import (ClassicalSolution, FrictionProfile, OscillatorParams,
                   fundamental_solutions)
from .errors import (BeamParameterError, ContractViolationError, DomainError,
                     InvalidScheduleError, KanaiCavityError, MappingError,
                     NearCausticError, NearFocalPlaneError,
                     NearInstabilityError, NumericalError, ResolutionError,
                     SamplingError, UnsupportedRegimeError, ValidationError)
from .kanai import (GaussianWavepacket, QuantumParams, crosscheck_engines,
                    free_gaussian, kanai_propagate, map_parameters, moments)
from .paraxial import (AbcdMatrix, ResonatorGeometry, StabilityInfo,
                       StabilityMap, half_trip_matrix, round_trip_elements,
                       round_trip_matrix, stability, stability_map)
from .raysim import (RayState, RayTrace, courant_snyder_invariant,
                     fit_damped_oscillation, fit_envelope_rate, iterate_ray,
                     lissajous, pattern_radius)
from .schedule import MirrorSchedule
from .wavesim import (CollapseTrace, ComplexField, GaussianBeam,
                      GaussianQTrace, beam_round_trip, eigenmode_beam,
                      fresnel_round_trip, gaussian_q_trace, phase_aligned_l2,
                      run_collapse, sample_beam, split_step_round_trip,
                      spot_size)

__version__ = "0.1.0"

__all__ = [
    "AbcdMatrix", "BeamParameterError", "ClassicalSolution", "CollapseTrace",
    "ComplexField", "ContractViolationError", "DomainError", "FrictionProfile",
    "GaussianBeam", "GaussianQTrace", "GaussianWavepacket",
    "InvalidScheduleError", "KanaiCavityError", "MappingError",
    "MirrorSchedule", "NearCausticError", "NearFocalPlaneError",
    "NearInstabilityError", "NumericalError", "OscillatorParams",
    "QuantumParams", "RayState", "RayTrace", "ResolutionError",
    "ResonatorGeometry", "SamplingError", "StabilityInfo", "StabilityMap",
    "UnsupportedRegimeError", "ValidationError", "beam_round_trip",
    "courant_snyder_invariant", "crosscheck_engines", "eigenmode_beam",
    "fit_damped_oscillation", "fit_envelope_rate", "free_gaussian",
    "fresnel_round_trip", "fundamental_solutions", "gaussian_q_trace",
    "half_trip_matrix", "iterate_ray", "kanai_propagate", "lissajous",
    "map_parameters", "moments", "pattern_radius", "phase_aligned_l2",
    "round_trip_elements", "round_trip_matrix", "run_collapse", "sample_beam",
    "split_step_round_trip", "spot_size", "stability", "stability_map",
]

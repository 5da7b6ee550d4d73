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

"""emdyn: dissipatively generated dynamics on small Hilbert spaces.

Dense-matrix tooling for bipartite systems coupled through a single
engineered dissipative channel: exact Liouvillian propagation, the
strong-damping effective description and its error bounds, dynamical Lie
algebra controllability tests, adiabatic elimination of damped modes, and a
three-qubit ring-modulator realization with pump-tone planning.
"""
__version__ = "0.1.0"

from .errors import (BadEigenindex, BadFactorIndex, DegenerateFit,
                     DimMismatch, DispersiveViolation, EmdynError,
                     NegativeToneFrequency, NotDensityMatrix, NotHermitian,
                     NumericalError, NonPhysicalResult, ParseError,
                     RequiresNoPulse, TruncationTooSmall, ValidationError,
                     ZeroPrimaryCoupling)
from .opcore import (SpectralDecomposition, expm, herm_eig, partial_trace,
                     tensor, trace_distance)
from .liouville import (ControlPulse, DissipativeCoupling, MasterEquation,
                        propagate, propagate_controlled, reduced_s2_generator)
from .emergent import (UnitaryMixture, apply_mixture, equivalence_gap,
                       fit_power_law, nonreciprocity_report, scaling_exponent,
                       strong_damping_map)
from .control import (LieBasis, controllability_delta,
                      dissipation_induced_drift, lie_closure)
from .bounds import (GateTask, empirical_error, error_upper_bound,
                     exact_error_commuting, gamma_threshold, make_gate_task,
                     rotated_frame_marginal, s1_eigenstate)
from .circuit import (BosonicMode, CircuitParams, EffectiveCoupling,
                      SystemBathParams, ToneSet, adiabatic_eliminate,
                      build_jrm_effective, build_system_bath,
                      coherent_three_body, effective_coupling_constants,
                      nonreciprocity_conditions, plan_coherent_tones,
                      plan_dissipative_tones, strong_damping_condition,
                      validate_elimination)
from .scenario import Scenario, parse_scenario

__all__ = [name for name in dir() if not name.startswith("_")]

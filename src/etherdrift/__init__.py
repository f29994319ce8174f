"""Light in moving media, first-order drift interferometry, AB-type phases,
Proca cylinder potentials and photon-mass bounds, and interaction field
momentum quadrature."""

__version__ = "0.1.0"

from .errors import (DegenerateConfigError, DomainError, EtherdriftError,
                     InputError, SingularPathError)
from .units import (MODERN, PAPER, PhysicalConstants, UnitSystem, get_constants,
                    inverse_length_to_mass)
from .kinematics import (CompositionLaw, compose_lab_speed, effective_fresnel_speed,
                         einstein_composed_speed, fresnel_drag_coefficient,
                         fresnel_speed, tangherlini_composed_speed)
from .interferometer import (SCAN_COLUMNS, InterferometerConfig, RotationSignal,
                             angle_scan, delay_exact, delay_first_order,
                             improvement_factor, min_detectable_u, rotation_signal)
from .abphase import (FresnelFlow, Path, SolenoidVectorPotential, UniformQ,
                      fresnel_momentum, phase_line_integral)
from .proca import (PhotonMassBound, ProcaCylinderConfig, bessel_I0,
                    bounds_registry, cylinder_potential_exact,
                    cylinder_potential_expansion, invert_bound,
                    mass_phase_correction, potential_profile, projected_bound,
                    time_of_flight)
from .fieldmomentum import (ConvergenceRow, MomentumResult,
                            SolenoidChargeGeometry, analytic_solenoid_momentum,
                            convergence_study, integrate_field_momentum)

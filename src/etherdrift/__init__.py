"""Light in moving media, first-order drift interferometry, AB-type phases,
Proca cylinder potentials and photon-mass bounds, and interaction field
momentum quadrature.

``errors`` and ``units`` are imported with the package: every call reads
a constants profile.  The five kernel modules, ``kinematics``,
``interferometer``, ``abphase``, ``proca`` and ``fieldmomentum``, are
registered with ``importlib.util.LazyLoader``: each is in ``sys.modules``
and bound here from the start, and its body runs on the first access to
one of its attributes.  A cold CLI call thus runs only the kernels its
subcommand uses.  The kernels' public names are re-exported from them on
first access (PEP 562 ``__getattr__``), so ``from etherdrift import
angle_scan`` runs ``interferometer`` then.  LazyLoader locks the first
access only from Python 3.13 on: before that, two threads that touch the
same kernel module for the first time at once are unsafe, and a program
that starts threads should touch the kernels it uses first.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import (DegenerateConfigError, DomainError, EtherdriftError,
                     InputError, SingularPathError)
from .units import (MODERN, PAPER, PhysicalConstants, UnitSystem, get_constants,
                    inverse_length_to_mass)

#: kernel module -> the public names the package re-exports from it
_KERNELS = {
    "kinematics": ("CompositionLaw", "compose_lab_speed", "effective_fresnel_speed",
                   "einstein_composed_speed", "fresnel_drag_coefficient", "fresnel_speed",
                   "tangherlini_composed_speed"),
    "interferometer": ("SCAN_COLUMNS", "InterferometerConfig", "RotationSignal",
                       "angle_scan", "delay_exact", "delay_first_order",
                       "improvement_factor", "min_detectable_u", "rotation_signal"),
    "abphase": ("FresnelFlow", "Path", "SolenoidVectorPotential", "UniformQ",
                "fresnel_momentum", "phase_line_integral"),
    "proca": ("PhotonMassBound", "ProcaCylinderConfig", "bessel_I0", "bounds_registry",
              "cylinder_potential_exact", "cylinder_potential_expansion", "invert_bound",
              "mass_phase_correction", "potential_profile", "projected_bound",
              "time_of_flight"),
    "fieldmomentum": ("ConvergenceRow", "MomentumResult", "SolenoidChargeGeometry",
                      "analytic_solenoid_momentum", "convergence_study",
                      "integrate_field_momentum"),
}

#: public name -> the kernel module that defines it
_HOME = {name: module for module, names in _KERNELS.items() for name in names}

__all__ = sorted(["DegenerateConfigError", "DomainError", "EtherdriftError", "InputError",
                  "SingularPathError", "MODERN", "PAPER", "PhysicalConstants",
                  "UnitSystem", "get_constants", "inverse_length_to_mass", *_HOME])


def _register(name):
    """Bind the kernel module ``name``, first putting it in sys.modules
    unexecuted unless it is there already, as after a reload of the
    package, which thus keeps one copy of each kernel."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    globals()[name] = sys.modules[fullname]


for _name in _KERNELS:
    _register(_name)
del _name


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})

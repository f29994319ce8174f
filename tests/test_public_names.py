"""The package's public names, pinned: a name is added or removed only on
purpose, with the list below edited alongside."""

import types

import pytest

import etherdrift

PUBLIC_NAMES = [
    "CompositionLaw", "ConvergenceRow", "DegenerateConfigError", "DomainError",
    "EtherdriftError", "FresnelFlow", "InputError", "InterferometerConfig",
    "MODERN", "MomentumResult", "PAPER", "Path", "PhotonMassBound",
    "PhysicalConstants", "ProcaCylinderConfig", "RotationSignal", "SCAN_COLUMNS",
    "SingularPathError", "SolenoidChargeGeometry", "SolenoidVectorPotential",
    "UniformQ", "UnitSystem", "analytic_solenoid_momentum", "angle_scan",
    "bessel_I0", "bounds_registry", "compose_lab_speed",
    "convergence_study", "cylinder_potential_exact", "cylinder_potential_expansion",
    "delay_exact", "delay_first_order", "effective_fresnel_speed",
    "einstein_composed_speed", "fresnel_momentum",
    "fresnel_speed", "get_constants", "improvement_factor",
    "integrate_field_momentum", "inverse_length_to_mass", "invert_bound",
    "mass_phase_correction", "min_detectable_u", "phase_line_integral",
    "potential_profile", "projected_bound", "rotation_signal",
    "tangherlini_composed_speed", "time_of_flight",
]


def test_public_names_are_pinned():
    public = sorted(name for name in dir(etherdrift) if not name.startswith("_")
                    and not isinstance(getattr(etherdrift, name), types.ModuleType))
    assert public == PUBLIC_NAMES


def test_all_and_the_star_import_are_the_public_names():
    assert etherdrift.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from etherdrift import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    # a kernel module's name is the object that module holds
    assert all(namespace[name] is getattr(getattr(etherdrift, kernel), name)
               for kernel, names in etherdrift._KERNELS.items() for name in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        etherdrift.no_such_name  # noqa: B018

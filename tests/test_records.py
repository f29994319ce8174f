"""The package's records: fields, defaults, immutability and checks.

The field names, their order and the defaults below are those the records
had as dataclasses.  Each record is a tuple built on ``_record.Record``,
and behaves as a ``typing.NamedTuple`` would: as a tuple in equality and
hash, with the same ``repr``, ``__match_args__`` and field annotations, and
with the same errors for wrong arguments.  A record with checks must run
them however it is built: by the constructor, ``_make`` or ``_replace``."""

import copy
import pickle
import typing

import pytest

from etherdrift import (MODERN, CompositionLaw, ConvergenceRow, FresnelFlow,
                        InterferometerConfig, MomentumResult, PhotonMassBound,
                        PhysicalConstants, ProcaCylinderConfig, RotationSignal,
                        SolenoidChargeGeometry, SolenoidVectorPotential,
                        UniformQ, delay_exact, inverse_length_to_mass)
from etherdrift.errors import DomainError, InputError

REQUIRED = object()

#: record -> (its fields in order with their defaults, a valid instance)
RECORDS = {
    PhysicalConstants: ({"profile": REQUIRED, "flux_quantum": REQUIRED}, MODERN),
    InterferometerConfig: ({"L": REQUIRED, "n1": REQUIRED, "n2": REQUIRED, "u": REQUIRED,
                            "lambda_vac": REQUIRED, "composition": CompositionLaw.EINSTEIN,
                            "e_f": 0.0},
                           InterferometerConfig(1.0, 1.0006, 1.0001, 1e3, 633e-9)),
    UniformQ: ({"q": REQUIRED}, UniformQ((1.0, 2.0, 3.0))),
    FresnelFlow: ({"omega": REQUIRED, "n": REQUIRED, "u": REQUIRED},
                  FresnelFlow(3e15, 1.5, (10.0, 0.0, 0.0))),
    SolenoidVectorPotential: ({"flux": REQUIRED, "coupling": REQUIRED,
                               "axis_point": (0.0, 0.0, 0.0)},
                              SolenoidVectorPotential(2.067e-15, 1.5e15)),
    SolenoidChargeGeometry: ({"a": REQUIRED, "B": REQUIRED, "d": REQUIRED, "q": REQUIRED,
                              "truncation_halflength": None, "grid": (16, 32, 512)},
                             SolenoidChargeGeometry(1.0, 100.0, 3.0, 1.0)),
    MomentumResult: ({"P_e": REQUIRED, "estimated_quadrature_error": REQUIRED},
                     MomentumResult((0.0, 1.0, 0.0), 1e-3)),
    ProcaCylinderConfig: ({"R": REQUIRED, "V": REQUIRED, "tau": REQUIRED, "rho": 0.0,
                           "epsilon": 1e-4},
                          ProcaCylinderConfig(0.27, 1e7, 0.05)),
    PhotonMassBound: ({"m_gamma_inv_cm": REQUIRED, "m_ph_g": REQUIRED, "source": REQUIRED},
                      PhotonMassBound(1.4e7, 2.5e-45, "Boulware-Deser")),
    RotationSignal: ({"exact": REQUIRED, "first_order": REQUIRED},
                     RotationSignal(2.1e-15, 2.1e-15)),
    ConvergenceRow: ({"half_length_cm": REQUIRED, "grid": REQUIRED, "p_magnitude": REQUIRED,
                      "rel_error": REQUIRED, "P_e": REQUIRED},
                     ConvergenceRow(37.5, (16, 32, 128), 1.6e-9, 2.3e-3, (0.0, 1.6e-9, 0.0))),
}

RECORD_NAMES = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_fields_order_and_defaults(cls):
    fields, record = RECORDS[cls]
    assert cls._fields == tuple(fields)
    defaults = {name: value for name, value in fields.items() if value is not REQUIRED}
    assert cls._field_defaults == defaults
    # the defaults are what a record built from its required fields holds
    built = cls(**{name: getattr(record, name) for name in fields if name not in defaults})
    assert {name: getattr(built, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_records_are_immutable(cls):
    _, record = RECORDS[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0


#: record -> the type each of its fields is declared with
FIELD_TYPES = {
    PhysicalConstants: {"profile": str, "flux_quantum": float},
    InterferometerConfig: {"L": float, "n1": float, "n2": float, "u": float,
                           "lambda_vac": float, "composition": CompositionLaw, "e_f": float},
    UniformQ: {"q": tuple},
    FresnelFlow: {"omega": float, "n": float, "u": tuple},
    SolenoidVectorPotential: {"flux": float, "coupling": float, "axis_point": tuple},
    SolenoidChargeGeometry: {"a": float, "B": float, "d": float, "q": float,
                             "truncation_halflength": float | None, "grid": tuple},
    MomentumResult: {"P_e": tuple, "estimated_quadrature_error": float},
    ProcaCylinderConfig: {"R": float, "V": float, "tau": float, "rho": float,
                          "epsilon": float},
    PhotonMassBound: {"m_gamma_inv_cm": float, "m_ph_g": float, "source": str},
    RotationSignal: {"exact": float, "first_order": float},
    ConvergenceRow: {"half_length_cm": float, "grid": tuple, "p_magnitude": float,
                     "rel_error": float, "P_e": tuple},
}


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_records_behave_as_tuples(cls):
    _, record = RECORDS[cls]
    values = tuple(getattr(record, name) for name in cls._fields)
    assert isinstance(record, tuple)
    assert tuple(record) == values and record == values and hash(record) == hash(values)
    assert record._asdict() == dict(zip(cls._fields, values))
    assert list(record._asdict()) == list(cls._fields)
    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{name}={value!r}"
                                        for name, value in zip(cls._fields, values)) + ")")
    assert cls.__match_args__ == cls._fields
    assert typing.get_type_hints(cls) == FIELD_TYPES[cls]
    assert list(typing.get_type_hints(cls)) == list(cls._fields)
    assert cls.__annotations__ == FIELD_TYPES[cls]


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_NAMES)
def test_wrong_arguments_are_refused(cls):
    fields, record = RECORDS[cls]
    first_required = next(name for name, value in fields.items() if value is REQUIRED)
    with pytest.raises(TypeError, match=r"positional arguments? but \d+ were given"):
        cls(*record, record[0])
    with pytest.raises(TypeError, match=f"missing .*'{first_required}'"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*record, bogus=1.0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{cls._fields[0]}'"):
        cls(*record, **{cls._fields[0]: record[0]})
    with pytest.raises(ValueError, match=r"unexpected field names: \['bogus'\]"):
        record._replace(bogus=1.0)


VALID_PHOTON_MASS = inverse_length_to_mass(1.4e7)

#: a checked record, the fields of a valid one, and changes each of which
#: its checks must refuse, with the error and a fragment of its message
CHECKED = [
    (InterferometerConfig, {"L": 1.0, "n1": 1.0006, "n2": 1.0001, "u": 1e3,
                            "lambda_vac": 633e-9},
     [({"n1": 0.5}, DomainError, "n1 must be >= 1"),
      ({"L": float("nan")}, DomainError, "arm length"),
      ({"e_f": 1.5}, DomainError, "e_f must lie"),
      ({"composition": "einstein"}, InputError, "CompositionLaw"),
      ({"n1": 1.5, "u": 2.5e8}, DomainError, "arm 1")]),
    (SolenoidChargeGeometry, {"a": 1.0, "B": 100.0, "d": 3.0, "q": 1.0},
     [({"d": 0.5}, DomainError, "outside the solenoid"),
      ({"truncation_halflength": 0.0}, DomainError, "truncation"),
      ({"grid": (4, 4)}, InputError, "3 dimensions"),
      ({"grid": (4, 4, 3)}, InputError, "integers >= 4"),
      ({"grid": (4, 4, 10 ** 309)}, InputError, "double range")]),
    (ProcaCylinderConfig, {"R": 0.27, "V": 1e7, "tau": 0.05},
     [({"R": -1.0}, DomainError, "radius R"),
      ({"tau": 0.0}, DomainError, "tau"),
      ({"epsilon": 0.0}, DomainError, "epsilon"),
      ({"rho": 0.27}, DomainError, "rho < R")]),
    (PhotonMassBound, {"m_gamma_inv_cm": 1.4e7, "m_ph_g": VALID_PHOTON_MASS,
                       "source": "x"},
     [({"m_ph_g": 0.0}, DomainError, "positive"),
      ({"m_ph_g": 2.0 * VALID_PHOTON_MASS}, DomainError, "inconsistent")]),
    # a field's vectors hold 3 finite numbers, as a path's vertices do
    (UniformQ, {"q": (1.0, 2.0, 3.0)},
     [({"q": (1.0, 2.0)}, InputError, "q must be 3 finite numbers"),
      ({"q": (1.0, 2.0, 3.0, 4.0)}, InputError, "q must be 3 finite numbers"),
      ({"q": (1.0, float("nan"), 3.0)}, InputError, "q must be 3 finite numbers")]),
    (FresnelFlow, {"omega": 3e15, "n": 1.5, "u": (10.0, 0.0, 0.0)},
     [({"u": (10.0, 0.0)}, InputError, "u must be 3 finite numbers"),
      ({"u": (10.0, 0.0, float("inf"))}, InputError, "u must be 3 finite numbers")]),
    (SolenoidVectorPotential, {"flux": 2.067e-15, "coupling": 1.5e15},
     [({"axis_point": (0.5, 0.0)}, InputError, "axis_point must be 3 finite numbers")]),
]

CHECKED_CASES = [(cls, valid, *bad) for cls, valid, bads in CHECKED for bad in bads]


@pytest.mark.parametrize("cls, valid, change, error, fragment", CHECKED_CASES,
                         ids=[f"{case[0].__name__}-{'-'.join(case[2])}"
                              for case in CHECKED_CASES])
def test_checks_run_on_every_way_to_build(cls, valid, change, error, fragment):
    record = cls(**valid)
    with pytest.raises(error, match=fragment):
        cls(**{**valid, **change})
    with pytest.raises(error, match=fragment):
        record._replace(**change)
    with pytest.raises(error, match=fragment):
        cls._make({**record._asdict(), **change}.values())


@pytest.mark.parametrize("cls, valid", [(cls, valid) for cls, valid, _ in CHECKED],
                         ids=[cls.__name__ for cls, _, _ in CHECKED])
def test_checked_copies_keep_their_class(cls, valid):
    record = cls(**valid)
    for rebuilt in (record._replace(), cls._make(record), copy.copy(record),
                    copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is cls
        assert rebuilt == record


#: a checked record with float fields, and the label that names each field
#: in the message refusing a NaN or infinite value of it
FINITE_FIELDS = {
    InterferometerConfig: {"L": "arm length L", "n1": "n1", "n2": "n2",
                           "u": "drift speed u", "lambda_vac": "wavelength", "e_f": "e_f"},
    SolenoidChargeGeometry: {"a": "solenoid radius a", "B": "field B",
                             "d": "charge distance d", "q": "charge q",
                             "truncation_halflength": "truncation half-length"},
    ProcaCylinderConfig: {"R": "cylinder radius R", "V": "wall potential V",
                          "tau": "interaction time tau", "rho": "beam radius rho",
                          "epsilon": "phase resolution epsilon"},
    PhotonMassBound: {"m_gamma_inv_cm": "bound range", "m_ph_g": "bound mass"},
    SolenoidVectorPotential: {"flux": "flux", "coupling": "coupling"},
}

NON_FINITE_CASES = [(cls, name, label, value)
                    for cls, labels in FINITE_FIELDS.items()
                    for name, label in labels.items()
                    for value in (float("nan"), float("inf"), -float("inf"))]


@pytest.mark.parametrize("cls, name, label, value", NON_FINITE_CASES,
                         ids=[f"{cls.__name__}-{name}-{value}"
                              for cls, name, _, value in NON_FINITE_CASES])
def test_non_finite_fields_are_refused(cls, name, label, value):
    valid = next(fields for checked, fields, _ in CHECKED if checked is cls)
    with pytest.raises(DomainError, match=f"^{label} must be finite, got {value}$"):
        cls(**{**valid, name: value})


#: an int beyond the double range compares below inf, and float() of it
#: raises OverflowError: each check refuses it by name, with its own class
HUGE = 10 ** 400


@pytest.mark.parametrize("call, error, label", [
    (lambda: SolenoidVectorPotential(HUGE, 1.0), DomainError, "flux"),
    (lambda: InterferometerConfig(HUGE, 1.5, 1.4, 0.0, 5e-7), DomainError, "arm length L"),
    (lambda: ProcaCylinderConfig(HUGE, 1.0, 1.0), DomainError, "cylinder radius R"),
    (lambda: delay_exact(InterferometerConfig(1.0, 1.5, 1.4, 0.0, 5e-7), HUGE), DomainError,
     "orientation theta_deg"),
    (lambda: UniformQ((HUGE, 0.0, 0.0)), InputError, "interaction momentum q"),
], ids=["solenoid-flux", "interferometer-L", "proca-R", "delay-theta", "uniform-q"])
def test_ints_beyond_the_double_range_are_refused_by_name(call, error, label):
    with pytest.raises(error, match=f"^{label} must be .* an integer beyond the double range$"):
        call()

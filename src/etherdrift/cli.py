"""Command-line front end.

Parses subcommands and their flags, with JSON payloads for the abphase
field and path and the pmomentum geometry, dispatches to the
computation modules, which it reads through their module objects, so a
call runs only the kernel modules its subcommand uses (see the package
docstring), and emits deterministic JSON/CSV: floats always carry
17 significant digits, dict key order is fixed in code, and repeated runs
are byte-identical.  Exit codes: 0 success, 1 usage, 2 domain or
computation error (reported as a single JSON line on stderr).  As a
process (_console_main) a call writes through a buffered stdout of its own:
it exits 1, with nothing on stderr, when its reader closes the pipe early,
and 120, with one JSON line on stderr, when another write fails.  Output is
one string, except a CSV table past the table rule's cut (_table_csv),
streamed in blocks of ASCII bytes.

Every flag is declared once, in the table ``_CLI``, and every argv is read
against it, help, --version and usage errors included: no call imports
argparse.
"""

import atexit
import errno
import itertools
import math
import os
import sys
from functools import partial
from types import SimpleNamespace

from . import __version__, _record, abphase, fieldmomentum, interferometer, kinematics, proca
from ._record import _check_steps, _rows, _table, not_finite
from .errors import DomainError, EtherdriftError, InputError
from .units import UnitSystem, get_constants, inverse_length_to_mass


# ---------------------------------------------------------------------------
# deterministic serialization

def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise not_finite(value)
    return format(value, ".17g")


def _json_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_json_string(str(k))}:{_json_value(v)}"
                              for k, v in value.items()) + "}"
    raise InputError(f"cannot serialize {type(value).__name__} to JSON")


def _json_string(text: str) -> str:
    """json.dumps(text).

    json writes a printable ASCII string with no quote or backslash as it
    stands, between quotes; only another string needs json's escapes, so
    only that loads json."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def render_json(obj) -> str:
    return _json_value(obj) + "\n"


def render_csv(header, rows) -> str:
    """CSV of float rows, a list of tuples of finite floats, every cell "%.17g"."""
    row_format = ",".join(["%.17g"] * len(header))
    return "\n".join([",".join(header), *map(row_format.__mod__, rows), ""])


#: the table rule's cut once numpy is loaded.  Measured in process, with
#: numpy and _g17 loaded (medians of 35 calls, 2-core x86-64 VM): at 128
#: rows plain floats were faster for fringe scans and potential profiles,
#: at 192 numpy was, for both, and at 160 they were about even
_WARM_CUT = 160


def _table_csv(header, steps, rule, blocks=None):
    """The CSV of a table of steps rows: a string, or an iterator of its
    text in chunks of ASCII bytes, the header line first.  rule(k, xp) is
    the table's row rule, its row k as the header's cells, which the
    drivers _record._rows and _table run in plain floats and in numpy;
    blocks(), if given, forms the numpy side in _table's place, as an
    iterator of its blocks of rows.  One side is read, once, and it
    refuses the table's first cell that is not finite, in row-major order,
    before it hands on a row or a block: _rows as it is read, _table and
    blocks() before they return.

    The table rule of every CSV subcommand: a table of up to
    _record._SCAN_BLOCK rows, or of up to _WARM_CUT once numpy is loaded,
    is rendered whole from _rows by render_csv.  The cut spares a cold
    call numpy's import, 60-100 ms, which a warm process has already
    paid.  Any larger table is streamed from the numpy side's blocks: the
    header, the rows' lines a pass at a time, each led by its newline, the
    last newline.  The cells are formatted by _g17.csv_blocks, byte for
    byte as "%.17g", a pass of whole rows (at most _g17._PASS cells) at a
    time; each pass's bytes are handed on before the next is formatted.
    _g17 loads only here."""
    if steps <= (_WARM_CUT if "numpy" in sys.modules else _record._SCAN_BLOCK):
        return render_csv(header, list(_rows(rule, steps)))
    from ._g17 import csv_blocks

    table = blocks() if blocks else (_table(rule, len(header), 0, steps),)
    return itertools.chain([",".join(header).encode()], csv_blocks(table), [b"\n"])


# ---------------------------------------------------------------------------
# JSON payloads: the pmomentum geometry and the abphase field spec and path.
# This module alone knows their formats.

def _finite(value) -> bool:
    """An int or float within the double range.

    float() and json.loads accept NaN and the infinities, and int() and
    json.loads integers beyond the float range; an int compares with a float
    exactly, so one bound rejects all of them."""
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


#: schema kind -> what a valid value is, for the error message
_KINDS = {"number": "a finite number", "vector": "a 3-vector of finite numbers",
          "intvector": "a 3-vector of integers in the double range"}


def _is_kind(value, kind) -> bool:
    if kind in ("vector", "intvector"):
        element = "number" if kind == "vector" else "integer"
        return (isinstance(value, list) and len(value) == 3
                and all(_is_kind(v, element) for v in value))
    # bool is an int subclass: a JSON true must not pass for 1
    return (not isinstance(value, bool) and _finite(value)
            and (kind == "number" or isinstance(value, int)))


def _as_kind(value, kind):
    if kind == "number":
        return float(value)
    if kind == "vector":
        return tuple(float(v) for v in value)
    return tuple(value)


# A schema maps each payload key to (the library keyword it feeds, its
# kind, whether it is required).
_GEOMETRY_SCHEMA = {
    "a_cm": ("a", "number", True),
    "B_gauss": ("B", "number", True),
    "d_cm": ("d", "number", True),
    "q_esu": ("q", "number", True),
    "lambda_cm": ("truncation_halflength", "number", False),
    "grid": ("grid", "intvector", False),
}

# field kind -> (the name of its field class in abphase, schema of its params)
_FIELD_SCHEMAS = {
    "uniform_q": ("UniformQ", {"q": ("q", "vector", True)}),
    "fresnel_flow": ("FresnelFlow", {"omega_rad_s": ("omega", "number", True),
                                     "n": ("n", "number", True),
                                     "u_mps": ("u", "vector", True)}),
    "solenoid": ("SolenoidVectorPotential", {"flux_wb": ("flux", "number", True),
                                             "coupling": ("coupling", "number", False),
                                             "center_m": ("axis_point", "vector", False)}),
}


def _apply_schema(values, schema: dict, origin: str) -> dict:
    """Library keywords from a JSON object.

    An optional key that is absent is not passed, so the library's own
    default is the only one."""
    if not isinstance(values, dict):
        raise InputError(f"{origin} must be a JSON object")
    unknown = set(values) - set(schema)
    if unknown:
        raise InputError(f"unknown key {sorted(unknown)[0]!r} in {origin}")
    kwargs = {}
    for key, (keyword, kind, required) in schema.items():
        if key not in values:
            if required:
                raise InputError(f"missing required key {key!r} in {origin}")
            continue
        value = values[key]
        if not _is_kind(value, kind):
            raise InputError(f"{origin} key {key!r} must be {_KINDS[kind]}, got {value!r}")
        kwargs[keyword] = _as_kind(value, kind)
    return kwargs


def _field_from_dict(spec, constants):
    """An interaction field from a {kind, params} spec.

    A solenoid without a coupling gets the profile's charge_over_hbar."""
    if not isinstance(spec, dict):
        raise InputError("field spec must be a JSON object")
    unknown = set(spec) - {"kind", "params"}
    if unknown:
        raise InputError(f"unknown field spec key {sorted(unknown)[0]!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _FIELD_SCHEMAS:
        known = ", ".join(sorted(_FIELD_SCHEMAS))
        raise InputError(f"unknown field kind {kind!r} (known: {known})")
    class_name, schema = _FIELD_SCHEMAS[kind]
    kwargs = _apply_schema(spec.get("params", {}), schema, f"{kind} field params")
    if kind == "solenoid":
        kwargs.setdefault("coupling", constants.charge_over_hbar)
    return getattr(abphase, class_name)(**kwargs)


def _parse_json_text(text: str, origin: str):
    import json  # only a payload needs it: off the cold path of the other calls

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a 4301-digit int, deep nesting
        raise InputError(f"malformed JSON in {origin}: {exc}") from None


def _load_payload(spec: str, what: str):
    """Inline JSON if the value looks like JSON, otherwise a file path."""
    stripped = spec.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _parse_json_text(spec, f"inline {what}")
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {spec}: {exc}") from None
    return _parse_json_text(text, spec)


def _m_gamma(ns) -> float:
    """Photon mass parameter in 1/m from the Compton range --m-gamma-inv-cm."""
    if not ns.m_gamma_inv_cm > 0.0:
        raise DomainError(
            f"--m-gamma-inv-cm must be positive, got {ns.m_gamma_inv_cm}")
    m_gamma = 100.0 / ns.m_gamma_inv_cm
    if not math.isfinite(m_gamma):
        raise DomainError(f"--m-gamma-inv-cm {ns.m_gamma_inv_cm} is too small: "
                          "the photon mass parameter 100/range overflows")
    return m_gamma


# ---------------------------------------------------------------------------
# subcommand runners: each takes the parsed namespace and the constants
# profile, which only the calls that depend on the flux quantum read

def _run_speed(ns, constants):
    if ns.mode == "fresnel":
        v = kinematics.fresnel_speed(ns.n, ns.u_mps)
    elif ns.mode == "effective":
        v = kinematics.effective_fresnel_speed(ns.n, ns.u_mps, ns.ef)
    elif ns.mode == "einstein":
        v = kinematics.einstein_composed_speed(ns.n, ns.u_mps)
    else:
        v = kinematics.tangherlini_composed_speed(ns.n, ns.u_mps)
    return render_json({"mode": ns.mode, "n": ns.n, "u": ns.u_mps, "e_f": ns.ef, "v": v,
                        "units": "m/s"})


def _run_fringe(ns, constants):
    # both sides of the table rule build each row by interferometer._scan_row,
    # so they print the same doubles
    config = interferometer.InterferometerConfig(ns.L_m, ns.n1, ns.n2, ns.u_mps,
                                                 ns.lambda_nm / 1e9,
                                                 kinematics.CompositionLaw(ns.composition),
                                                 ns.ef)
    _check_steps(ns.steps, "angle scan")
    return _table_csv(interferometer.SCAN_COLUMNS, ns.steps,
                      partial(interferometer._scan_row, config, ns.steps),
                      lambda: interferometer._scan_blocks(config, ns.steps))


def _run_sensitivity(ns, constants):
    config = interferometer.InterferometerConfig(ns.L_m, ns.n1, ns.n2, ns.u_mps,
                                                 ns.lambda_nm / 1e9, e_f=ns.ef)
    u_min = interferometer.min_detectable_u(config, ns.resolution)
    factor = interferometer.improvement_factor(ns.u_mps, ns.n1, ns.n2)
    return render_json({"u_min_mps": u_min, "improvement_factor": factor})


def _run_abphase(ns, constants):
    spec = _load_payload(ns.field, "field spec")
    vertices = _load_payload(ns.path, "path")
    field = _field_from_dict(spec, constants)
    phase = abphase.phase_line_integral(field, abphase.Path(vertices))
    return render_json({"phase_rad": phase})


def _run_proca_bound(ns, constants):
    cfg = proca.ProcaCylinderConfig(R=ns.R_cm / 100.0, V=ns.V_volts, tau=ns.tau_s, rho=0.0,
                                    epsilon=ns.epsilon)
    inv_cm = proca.invert_bound(cfg, constants)
    return render_json({"m_gamma_inv_cm": inv_cm,
                        "m_ph_g": inverse_length_to_mass(inv_cm)})


def _run_proca_potential(ns, constants):
    # both sides of the table rule build each row by proca._profile_rule,
    # so they print the same doubles.  tau is irrelevant to the radial
    # profile; any positive value works
    cfg = proca.ProcaCylinderConfig(R=ns.R_cm / 100.0, V=ns.V_volts, tau=1.0)
    m_gamma = _m_gamma(ns)
    if not math.isfinite(m_gamma * cfg.R):
        raise DomainError(f"--R-cm {ns.R_cm} and --m-gamma-inv-cm {ns.m_gamma_inv_cm} "
                          "give a radius over Compton range m R that is not finite")
    _check_steps(ns.steps, "potential profile")
    return _table_csv(("rho_m", "phi_exact_V", "phi_expansion_V"), ns.steps,
                      proca._profile_rule(cfg, m_gamma, ns.steps, ns.variant))


def _run_proca_phase(ns, constants):
    cfg = proca.ProcaCylinderConfig(R=ns.R_cm / 100.0, V=ns.V_volts, tau=ns.tau_s,
                                    rho=ns.rho_cm / 100.0)
    phase = proca.mass_phase_correction(cfg, _m_gamma(ns), constants)
    return render_json({"delta_phi_rad": phase})


def _run_bounds(ns, constants):
    entries = [{"source": b.source, "m_gamma_inv_cm": b.m_gamma_inv_cm,
                "m_ph_g": b.m_ph_g} for b in proca.bounds_registry()]
    if ns.format == "json":
        return render_json(entries)
    header = ("source", "m_gamma_inv_cm", "m_ph_g")
    table = [[e["source"], format_float(e["m_gamma_inv_cm"]), format_float(e["m_ph_g"])]
             for e in entries]
    widths = [max(len(header[i]), max(len(row[i]) for row in table))
              for i in range(3)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(3)).rstrip()]
    for row in table:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(3)).rstrip())
    return "\n".join(lines) + "\n"


def _run_pmomentum(ns, constants):
    geom = fieldmomentum.SolenoidChargeGeometry(**_apply_schema(
        _load_payload(ns.geometry, "geometry"), _GEOMETRY_SCHEMA, "geometry"))
    # the last level is the geometry as configured, which P_e reports
    rows = fieldmomentum.convergence_study(geom, ns.levels)
    levels = [{"lambda_cm": row.half_length_cm, "grid": list(row.grid),
               "P_mag": row.p_magnitude, "rel_error": row.rel_error} for row in rows]
    return render_json({"P_e": list(rows[-1].P_e),
                        "analytic": list(fieldmomentum.analytic_solenoid_momentum(geom)),
                        "rel_error": rows[-1].rel_error, "levels": levels})


def _run_constants(ns, constants):
    return render_json(constants.table(UnitSystem(ns.system)))


# ---------------------------------------------------------------------------
# the flag table, and the parse that reads argv against it

class _Flag:
    """A flag: its one option string, which names its namespace key
    ``dest``, the type that converts its value (None keeps the value as
    given), its choices, its default, whether it is required, and its help
    line.  ``spelled`` is the flag as usage and help show it."""

    __slots__ = ("option", "dest", "type", "choices", "default", "required", "help", "spelled")

    def __init__(self, option, type=None, *, choices=None, default=None, required=False,
                 help=None):
        self.option, self.dest = option, option[2:].replace("-", "_")
        self.spelled = f"{option} " + ("{" + ",".join(choices) + "}" if choices
                                       else self.dest.upper())
        self.type, self.choices, self.default = type, choices, default
        self.required, self.help = required, help


class _Command:
    """A command: its help line and flags, then either its runner or the
    subcommands of its own, whose word fills the namespace key ``dest``.
    ``options`` maps each option string the command knows to its flag, and
    -h and --help to None."""

    __slots__ = ("help", "flags", "run", "commands", "dest", "options")

    def __init__(self, help, flags=(), run=None, *, commands=None, dest=None):
        self.help, self.flags, self.run = help, flags, run
        self.commands, self.dest = commands, dest
        self.options = {"-h": None, "--help": None, **{flag.option: flag for flag in flags}}


#: every flag of every subcommand, declared once: _parse reads argv against it
_CLI = _Command(
    "Light in moving media, drift interferometry, AB phases and photon-mass bounds.",
    (_Flag("--profile", choices=("modern", "paper"), default="paper",
           help="constants profile (default: paper)"),),
    dest="subcommand", commands={
        "speed": _Command("light speed in a moving medium", (
            _Flag("--mode", choices=("fresnel", "effective", "einstein", "tangherlini"),
                  required=True),
            _Flag("--n", float, required=True, help="refractive index"),
            _Flag("--u-mps", float, default=0.0, help="medium speed, m/s"),
            _Flag("--ef", float, default=1.0, help="drag effectiveness"),
        ), _run_speed),
        "fringe": _Command("orientation scan of the two-arm device (CSV)", (
            _Flag("--L-m", float, required=True),
            _Flag("--n1", float, required=True),
            _Flag("--n2", float, required=True),
            _Flag("--ef", float, default=0.0),
            _Flag("--u-mps", float, required=True),
            _Flag("--lambda-nm", float, required=True),
            _Flag("--composition", choices=("einstein", "tangherlini"), default="einstein"),
            _Flag("--steps", int, default=32),
        ), _run_fringe),
        "sensitivity": _Command("drift detectability of a configuration", (
            _Flag("--L-m", float, required=True),
            _Flag("--n1", float, required=True),
            _Flag("--n2", float, required=True),
            _Flag("--u-mps", float, required=True),
            _Flag("--lambda-nm", float, required=True),
            _Flag("--resolution", float, required=True,
                  help="smallest detectable fringe shift"),
            _Flag("--ef", float, default=0.0),
        ), _run_sensitivity),
        "abphase": _Command("phase line integral of an interaction field", (
            _Flag("--field", required=True,
                  help="field spec: inline JSON {kind, params} or a file path"),
            _Flag("--path", required=True,
                  help="path vertices: inline JSON [[x,y,z],...] (m) or a file path"),
        ), _run_abphase),
        "proca": _Command("massive-photon cylinder computations", dest="action", commands={
            "bound": _Command("Compton-range bound from a cylinder setup", (
                _Flag("--V-volts", float, required=True),
                _Flag("--tau-s", float, required=True),
                _Flag("--R-cm", float, required=True),
                _Flag("--epsilon", float, required=True),
            ), _run_proca_bound),
            "potential": _Command("interior potential profile (CSV)", (
                _Flag("--V-volts", float, required=True),
                _Flag("--R-cm", float, required=True),
                _Flag("--m-gamma-inv-cm", float, required=True),
                _Flag("--steps", int, default=50),
                _Flag("--variant", choices=("quarter", "half"), default="quarter"),
            ), _run_proca_potential),
            "phase": _Command("mass-induced scalar phase correction", (
                _Flag("--V-volts", float, required=True),
                _Flag("--tau-s", float, required=True),
                _Flag("--R-cm", float, required=True),
                _Flag("--rho-cm", float, default=0.0),
                _Flag("--m-gamma-inv-cm", float, required=True),
            ), _run_proca_phase),
        }),
        "bounds": _Command("published photon-mass bound registry", (
            _Flag("--format", choices=("json", "text"), default="json"),
        ), _run_bounds),
        "pmomentum": _Command("field momentum of charge + solenoid", (
            _Flag("--geometry", required=True,
                  help="geometry: inline JSON or a file path "
                       "{a_cm, B_gauss, d_cm, q_esu, lambda_cm?, grid?}; "
                       "grid axes are integers >= 4, checked and echoed only"),
            _Flag("--levels", int, default=3),
        ), _run_pmomentum),
        "constants": _Command("dump the active constants profile", (
            _Flag("--system", choices=("si", "gaussian"), default="si"),
        ), _run_constants),
    })


class _Exit(Exception):
    """The end of a call at its parse, with args (exit code, text): help or
    --version (0, text for stdout) or a usage error (1, text for stderr)."""


def _usage(prog, command) -> str:
    """A command's usage line, optional flags in brackets; never wrapped."""
    parts = [f"usage: {prog} [-h]", *(["[--version]"] if command is _CLI else [])]
    parts += [flag.spelled if flag.required else f"[{flag.spelled}]" for flag in command.flags]
    if command.commands is not None:
        parts.append(f"{command.dest} ...")
    return " ".join(parts)


def _listing(title, rows) -> str:
    width = max(len(name) for name, _ in rows)
    return "\n".join([title, *(f"  {name:<{width}}  {text}".rstrip() for name, text in rows)])


def _help(prog, command) -> str:
    """A command's help: its usage line, its help line, its subcommands and
    its options, each with its help line.  Nothing is wrapped, so the text
    is the same at any terminal width."""
    sections = [_usage(prog, command), command.help]
    if command.commands is not None:
        sections.append(_listing(f"{command.dest}s:", [(name, sub.help) for name, sub
                                                       in command.commands.items()]))
    options = [("-h, --help", "show this help message and exit")]
    if command is _CLI:
        options.append(("--version", "show program's version number and exit "
                                     "(give --profile before it)"))
    options += [(flag.spelled, flag.help or "") for flag in command.flags]
    sections.append(_listing("options:", options))
    return "\n\n".join(sections) + "\n"


def _usage_error(prog, command, message) -> _Exit:
    return _Exit(1, f"{_usage(prog, command)}\n{prog}: error: {message}\n")


def _is_negative_number(token) -> bool:
    """Whether token is "-" and then a number float() reads (exponents,
    underscores between digits, the infinities and NaN) with no sign or
    space of its own, which float() would also take."""
    number = token[1:]
    try:
        float(number)
    except ValueError:
        return False
    return token.startswith("-") and number == number.strip() and number[0] not in "+-"


def _is_option(token, command) -> bool:
    """Whether token reads as an option at command's level, known or not,
    by argparse's rule: it starts with "-", is not "-" itself, and the part
    before any "=" is an option the command knows, or it starts with "-h"
    (help's short form), or it is no negative number and has no space."""
    if not token.startswith("-") or token == "-":
        return False
    return (token.partition("=")[0] in command.options or token.startswith("-h")
            or not (_is_negative_number(token) or " " in token))


def _enter(command, values: dict):
    """Add a command's namespace keys in argparse's order: each flag's
    default, then the key its subcommand's word fills, then its runner."""
    for flag in command.flags:
        values[flag.dest] = flag.default
    if command.commands is not None:
        values[command.dest] = None
    if command.run is not None:
        values["run"] = command.run


def _parse(argv):
    """The namespace of argv, read against the flag table; ``ns.run`` is
    the subcommand's runner.

    One walk of argv, which imports nothing, by argparse's rules and in its
    words.  --flag=value takes any value; a separate value may not look like
    an option (_is_option).  A flag given twice keeps its last value.
    --profile and --version come before the subcommand.  After a "--" every
    token is a word.  Help and --version raise _Exit with code 0, a usage
    error with code 1, in argparse's order: a failed conversion or choice,
    or a missing value, where it stands; then a missing subcommand or
    required flag; then the unknown options and the words no command takes."""
    values, leftover = {}, []
    command, prog = _CLI, "etherdrift"
    _enter(command, values)
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # a leftover, or where a subcommand is expected, its word
            rest = list(tokens)
            if command.commands is None or not rest:
                leftover += [token, *rest]
                break
        elif token in ("-h", "--help"):
            raise _Exit(0, _help(prog, command))
        elif token == "--version" and command is _CLI:  # for the profile given before it
            constants = get_constants(values["profile"])
            raise _Exit(0, f"etherdrift {__version__} profile={constants.profile} "
                           f"constants=sha256:{constants.fingerprint()}\n")
        elif _is_option(token, command):
            option, explicit, value = token.partition("=")
            flag = command.options.get(option)
            if flag is None:  # an unknown option, or help or --version given a value
                leftover.append(token)
                continue
            if not explicit:
                value = next(tokens, "--")  # none left reads as "--", which is refused
                if _is_option(value, command):
                    raise _usage_error(prog, command, f"argument {option}: expected one argument")
            if flag.type is not None:
                try:
                    value = flag.type(value)
                except ValueError:
                    raise _usage_error(prog, command, f"argument {option}: invalid "
                                       f"{flag.type.__name__} value: {value!r}") from None
            if flag.choices is not None and value not in flag.choices:
                raise _usage_error(prog, command, f"argument {option}: invalid choice: "
                                   f"{value!r} (choose from {', '.join(map(repr, flag.choices))})")
            values[flag.dest] = value
            continue
        if command.commands is None:
            leftover.append(token)
            continue
        if token not in command.commands:
            raise _usage_error(prog, command, f"argument {command.dest}: invalid choice: "
                               f"{token!r} (choose from {', '.join(map(repr, command.commands))})")
        values[command.dest] = token
        command, prog = command.commands[token], f"{prog} {token}"
        _enter(command, values)
    # a required flag has no default: its key holds None until it is given
    missing = [flag.option for flag in command.flags
               if flag.required and values[flag.dest] is None]
    if command.commands is not None:
        missing.append(command.dest)
    if missing:
        raise _usage_error(prog, command,
                           f"the following arguments are required: {', '.join(missing)}")
    if leftover:
        raise _usage_error("etherdrift", _CLI, f"unrecognized arguments: {' '.join(leftover)}")
    return SimpleNamespace(**values)


def parse_config(argv):
    """Parse the argument list (_parse); ``ns.run`` is the subcommand's
    runner.  float() accepts 'nan' and 'inf', and int() integers beyond the
    float range, so every number flag is checked here, in namespace order.
    """
    ns = _parse(argv)
    for key, value in vars(ns).items():
        if isinstance(value, (int, float)) and not _finite(value):
            raise InputError(f"--{key.replace('_', '-')} must be finite, got {value}")
    return ns


def _report(text=""):
    """Write text to stderr and flush it, if stderr takes it.  A stderr that
    is closed (``2>&-``) or fails a write (a full disk, a closed pipe) loses
    the report, and the exit code alone tells what happened."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


#: every character of a streamed table but its header's: the cells'
#: "%.17g" text, the commas and the newlines
_CELL_TEXT = "0123456789+-.e,\n"

#: the text stream that _console_main opens over fd 1, whose newline is
#: the default, os.linesep
_console_stdout = None


def main(argv=None) -> int:
    """Run the CLI on argv (default sys.argv[1:]) and return the exit code.

    Output goes to sys.stdout only after the request has run without
    error: a str in one write, a streamed table (_table_csv) chunk by
    chunk.  A streamed table's header and its first block's leading
    newline go through the text layer, which leaves a stateful encoder
    (ISO-2022, HZ) in its ASCII state.  Its other bytes go to
    sys.stdout.buffer as they are, after the text layer is flushed, where
    _as_bytes finds that a text layer would write them as themselves;
    otherwise (io.StringIO, a closed stdout, UTF-16, UTF-7, EBCDIC or
    "\\r\\n" streams, Windows) each chunk is decoded and written as text."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parse_config(argv)
        output = ns.run(ns, get_constants(ns.profile))
    except _Exit as exc:  # help, --version or a usage error
        code, text = exc.args
        if code:
            _report(text)
        else:
            sys.stdout.write(text)
        return code
    except EtherdriftError as exc:
        _report(render_json({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    stdout = sys.stdout
    if isinstance(output, str):
        stdout.write(output)
        return 0
    stdout.write(next(output).decode("ascii"))
    # _as_bytes writes the first block's leading newline; then the rest
    if _as_bytes(stdout):
        stdout.buffer.write(memoryview(next(output))[1:])
        stdout.buffer.writelines(output)
    else:
        stdout.write(next(output)[1:].decode("ascii"))
        stdout.writelines(chunk.decode("ascii") for chunk in output)
    return 0


def _as_bytes(stdout) -> bool:
    """Write "\\n", a streamed table's first newline, to stdout as text,
    and tell whether the rest of the table can go to stdout.buffer as the
    bytes it is, stdout being flushed: where stdout has a buffer, its
    encoding writes the cells' text as itself (UTF-8, Latin-1, ASCII; not
    UTF-16, UTF-7 or EBCDIC) and its text layer writes "\\n" as itself.
    That is probed where the buffer can tell(): it must have moved by
    exactly one byte for the newline, as it does not for
    newline="\\r\\n" (nor does this tell a newline="\\r" stream apart).
    Past a buffer that cannot, a pipe's, only _console_stdout, whose
    newline is the default, is known to, where os.linesep is "\\n"."""
    binary = getattr(stdout, "buffer", None)
    if (binary is None
            or _CELL_TEXT.encode(stdout.encoding, stdout.errors) != _CELL_TEXT.encode()):
        stdout.write("\n")
        return False
    stdout.flush()
    start = binary.tell() if binary.seekable() else None
    stdout.write("\n")
    stdout.flush()
    if start is None:
        return stdout is _console_stdout and os.linesep == "\n"
    return binary.tell() == start + 1


class _ClosedStdout:
    """sys.stdout in place of None, when fd 1 is closed at start (``>&-``)."""

    def write(self, _output):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    writelines = write

    def flush(self):
        pass


def _console_main():
    """The process entry of ``python -m etherdrift.cli`` and of the
    ``etherdrift`` script: run main, then end the process without the
    interpreter's teardown.

    main writes to a buffered text stream of its own over fd 1, with
    stdout's encoding and errors, whatever -u says.  A reader that closes
    the pipe early (``| head``) ends the call with exit 1, Python's code
    for a broken pipe, and nothing on stderr; any other failed write, such
    as a full disk, with one JSON line on stderr and exit 120, Python's
    code for a failed flush.  A report that stderr cannot take is lost
    (_report), and the call keeps its exit code.  Then the atexit handlers
    run (coverage saves its data in one), and os._exit skips the teardown:
    freeing every module and a last garbage collection cost a tenth of a
    small call."""
    global _console_stdout
    stdout = sys.stdout
    try:
        sys.stdout = _console_stdout = _ClosedStdout() if stdout is None else open(
            1, "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False)
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    except OSError as exc:
        _report(render_json({"error": type(exc).__name__,
                             "message": f"cannot write the output: {exc}"}))
        code = 120
    atexit._run_exitfuncs()
    _report()  # what the handlers wrote
    os._exit(code)


if __name__ == "__main__":
    _console_main()

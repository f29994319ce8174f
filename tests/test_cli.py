import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etherdrift import _g17, cli, interferometer
from etherdrift.abphase import Path, UniformQ, fresnel_momentum
from etherdrift.errors import DomainError, InputError
from etherdrift.interferometer import (MAX_SCAN_STEPS, SCAN_COLUMNS, InterferometerConfig,
                                       angle_scan, min_detectable_u)
from etherdrift.kinematics import CompositionLaw
from etherdrift.proca import ProcaCylinderConfig, bounds_registry, potential_profile
from etherdrift.units import MODERN, PAPER, c
from test_interferometer import worst_row_error

CLI = [sys.executable, "-m", "etherdrift.cli"]

OMEGA_633 = 2.0 * math.pi * c / 633e-9


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def stderr_error(proc):
    payload = json.loads(proc.stderr)
    assert set(payload) == {"error", "message"}
    return payload


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("nosuch").returncode == 1
    assert run_cli("speed", "--mode", "einstein", "--n", "abc").returncode == 1
    assert run_cli("speed", "--mode", "einstein", "--n", "1.5",
                   "--bogus", "1").returncode == 1


def test_help_and_version_exit_0():
    assert run_cli("--help").returncode == 0
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert re.fullmatch(r"etherdrift 0\.1\.0 profile=paper constants=sha256:[0-9a-f]{12}\n",
                        proc.stdout)


# each id names the call's flag and environment: only the flag picks a profile
@pytest.mark.parametrize("args, env, profile", [
    (("--profile", "modern", "--version"), None, MODERN),
    (("--profile", "paper", "--version"), {"ETHERDRIFT_PROFILE": "modern"}, PAPER),
    (("--version",), {"ETHERDRIFT_PROFILE": "modern"}, PAPER),
    (("--version",), None, PAPER),
], ids=["flag-modern", "flag-wins-over-env", "env-modern", "default-paper"])
def test_version_follows_profile_flag_before_it(args, env, profile):
    proc = run_cli(*args, env_extra=env)
    assert proc.returncode == 0
    assert proc.stdout == (f"etherdrift 0.1.0 profile={profile.profile} "
                           f"constants=sha256:{profile.fingerprint()}\n")


def test_domain_error_exit_2_names_offender():
    proc = run_cli("sensitivity", "--L-m", "1", "--n1", "0.5", "--n2", "1.0001",
                   "--u-mps", "1e3", "--lambda-nm", "633", "--resolution", "1e-3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    payload = stderr_error(proc)
    assert payload["error"] == "DomainError"
    assert "n1" in payload["message"]


def test_speed_golden_values():
    proc = run_cli("speed", "--mode", "einstein", "--n", "1.5", "--u-mps", "1e3")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["units"] == "m/s"
    # (c/1.5 - 1e3)/(1 - 1e3/(1.5 c)), 50-digit arithmetic
    assert out["v"] == pytest.approx(199861083.10987569, rel=1e-14)

    out = json.loads(run_cli("speed", "--mode", "fresnel", "--n", "1.33",
                             "--u-mps", "10").stdout)
    assert out["v"] == pytest.approx(225407867.50466392, rel=1e-14)

    out = json.loads(run_cli("speed", "--mode", "tangherlini", "--n", "1.5",
                             "--u-mps", "1e3").stdout)
    assert out["v"] == pytest.approx(199860638.66889042, rel=1e-14)

    out = json.loads(run_cli("speed", "--mode", "effective", "--n", "1.0003",
                             "--u-mps", "3e4", "--ef", "6.1e-3").stdout)
    assert out["v"] == pytest.approx(299702547.34557986, rel=1e-14)


@pytest.mark.parametrize("value", ["-3e4", "-1e-3", "-1E3", "-.5e2", "-2.e+1", "-1_000"])
def test_negative_flag_value_in_any_float_form(value, capsys):
    # argparse's own pattern took exponent forms for unknown options: exit 1
    argv = ["speed", "--mode", "einstein", "--n", "1.5"]
    code = cli.main([*argv, "--u-mps", value])
    spaced = capsys.readouterr()
    assert (code, spaced.err) == (0, "")
    assert json.loads(spaced.out)["u"] == float(value)
    assert cli.main([*argv, f"--u-mps={value}"]) == 0
    assert capsys.readouterr() == spaced


def test_options_still_parse_as_options(capsys):
    assert cli.main(["speed", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: etherdrift speed")
    # a negative number stands alone: no flag takes it
    for argv in (["speed", "--mode", "einstein", "--n", "1.5", "-x"],
                 ["speed", "--mode", "einstein", "--n", "1.5", "-3e4"],
                 ["speed", "--mode", "einstein", "--n", "-e3"]):
        assert cli.main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["proca", "bound", "--V-volts", "1e7", "--tau-s", "0.05", "--R-cm", "27", "--epsilon=--"],
     1, "argument --epsilon: invalid float value: '--'"),
    (["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
      "--lambda-nm", "633", "--steps=--"], 1, "argument --steps: invalid int value: '--'"),
    (["speed", "--mode=--", "--n", "1.5"], 1, "argument --mode: invalid choice: '--'"),
    (["abphase", "--field=--", "--path=[[0, 0, 0], [1, 1, 1]]"], 2, "cannot read --"),
], ids=["float", "int", "choice", "payload"])
def test_double_dash_is_a_flag_value(argv, code, message, capsys):
    # "--flag=--" gives the flag the value "--", refused like any other bad
    # value; argparse gave it no value, and the subcommand a traceback
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err.splitlines()[-1]


def test_speed_output_is_byte_deterministic():
    args = ("speed", "--mode", "einstein", "--n", "1.5", "--u-mps", "1e3")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_sensitivity_golden_and_wavelength_alias():
    base = ("sensitivity", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
            "--u-mps", "1e3", "--resolution", "1e-3")
    nm = json.loads(run_cli(*base, "--lambda-nm", "633").stdout)
    assert nm["u_min_mps"] == pytest.approx(94.851115066726646, rel=1e-12)
    assert nm["improvement_factor"] == pytest.approx(299.89738536030, rel=1e-12)
    # the wavelength has one flag, --lambda-nm: --lambda is an unknown flag
    meters = run_cli(*base, "--lambda", "633e-9")
    assert (meters.returncode, meters.stdout) == (1, "")
    assert "required: --lambda-nm" in meters.stderr


def test_sensitivity_wavelength_flag_conflicts():
    # a missing wavelength is a usage error, like any missing required flag
    base = ("sensitivity", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
            "--u-mps", "1e3", "--resolution", "1e-3")
    both = run_cli(*base, "--lambda-nm", "633", "--lambda", "633e-9")
    assert (both.returncode, both.stdout) == (1, "")
    assert "unrecognized arguments: --lambda 633e-9" in both.stderr
    neither = run_cli(*base)
    assert (neither.returncode, neither.stdout) == (1, "")
    assert "required: --lambda-nm" in neither.stderr


@pytest.mark.parametrize("removed", [
    ["speed", "--mode", "einstein", "--n", "1.5", "--u", "1e3"],
    ["fringe", "--L", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
     "--lambda-nm", "633"],
    ["sensitivity", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u", "1e3",
     "--lambda-nm", "633", "--resolution", "1e-3"],
    ["proca", "bound", "--V", "1e7", "--tau-s", "5e-2", "--R-cm", "27", "--epsilon", "1e-4"],
    ["proca", "phase", "--V-volts", "1e7", "--tau=5e-2", "--R-cm", "27",
     "--m-gamma-inv-cm", "1e3"],
], ids=["speed--u", "fringe--L", "sensitivity--u", "bound--V", "phase--tau"])
def test_short_flag_names_are_usage_errors(removed, capsys):
    # each flag has one name, the one that carries its unit; nothing abbreviates
    assert cli.main(removed) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


#: whole nanometers that n * 1e-9 rounds away from the double nearest n nm
_NM_OFF_BY_A_PRODUCT = [600, 405, 1550]


@pytest.mark.parametrize("nm", [*_NM_OFF_BY_A_PRODUCT, 488])
def test_lambda_nm_reaches_the_kernel_correctly_rounded(nm, capsys):
    meters = float(f"{nm}e-9")
    assert (nm * 1e-9 != meters) == (nm in _NM_OFF_BY_A_PRODUCT)
    device = ["--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3"]
    cfg = InterferometerConfig(1.0, 1.0006, 1.0001, 1e3, meters)
    scan = _naive_csv(SCAN_COLUMNS, angle_scan(cfg, 4))
    assert cli.main(["fringe", *device, "--lambda-nm", str(nm), "--steps", "4"]) == 0
    assert capsys.readouterr() == (scan, "")
    assert cli.main(["sensitivity", *device, "--lambda-nm", str(nm),
                     "--resolution", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["u_min_mps"] == min_detectable_u(cfg, 1e-3)


def test_every_whole_nanometer_reaches_the_kernel_correctly_rounded(monkeypatch):
    # n / 1e9 is one rounding of the exact n nm, as float("<n>e-9") is;
    # n * 1e-9 is off for 7910 of these 19901 values
    seen = []

    def config(*args, **kwargs):
        seen.append(args[4])
        return InterferometerConfig(*args, **kwargs)

    monkeypatch.setattr(cli, "InterferometerConfig", config)
    device = ["--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3"]
    whole = range(100, 20001)
    with contextlib.redirect_stdout(io.StringIO()):
        for nm in whole:
            assert cli.main(["sensitivity", *device, "--lambda-nm", str(nm),
                             "--resolution", "1e-3"]) == 0
    assert seen == [float(f"{nm}e-9") for nm in whole]


def test_fringe_csv_shape_and_determinism():
    args = ("fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
            "--u-mps", "1e3", "--lambda-nm", "633", "--steps", "4")
    proc = run_cli(*args)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "theta_deg,delay_exact_s,delay_first_order_s,fringes"
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "90", "180", "270"]
    delay0 = float(lines[1].split(",")[1])
    # L(1/w1 - 1/w2) at theta = 0, 50-digit arithmetic
    assert delay0 == pytest.approx(1.6678316064227491e-12, rel=5e-12)
    assert proc.stdout == run_cli(*args).stdout


# full stdout of an 8-step scan with partial drag and a negative drift: the
# same under both laws, since the delays no longer pass through the composed
# lab speeds, whose inverses differ by the arm-independent u/c^2.  The laws
# printed different last digits at 0 and 180 degrees, with delays up to 5.5
# ulp off 50-digit arithmetic; every delay here is within 0.8 ulp
FRINGE_GOLDEN = """\
theta_deg,delay_exact_s,delay_first_order_s,fringes
0,-2.7488924472324799e-09,-2.7488923788013084e-09,-1399146.3897002726
45,-2.7490661182896994e-09,-2.7490660840726471e-09,-1399234.7857497246
90,-2.7494854456945691e-09,-2.7494854456945691e-09,-1399448.217317488
135,-2.7499048415406241e-09,-2.7499048073164912e-09,-1399661.6837208222
180,-2.7500785810390302e-09,-2.7500785125878303e-09,-1399750.1146058457
225,-2.7499048415406241e-09,-2.7499048073164912e-09,-1399661.6837208222
270,-2.7494854456945691e-09,-2.7494854456945691e-09,-1399448.217317488
315,-2.7490661182896994e-09,-2.7490660840726471e-09,-1399234.7857497246
"""

LAWS = [law.value for law in CompositionLaw]


@pytest.mark.parametrize("law", LAWS)
def test_fringe_scan_golden(law, capsys):
    code = cli.main(["fringe", "--L-m", "2.5", "--n1", "1.00029", "--n2", "1.33",
                     "--ef", "0.25", "--u-mps=-3.7e4", "--lambda-nm", "589",
                     "--composition", law, "--steps", "8"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == FRINGE_GOLDEN


def test_fringe_golden_delays_match_mpmath():
    cfg = InterferometerConfig(2.5, 1.00029, 1.33, -3.7e4, 589e-9, e_f=0.25)
    exact = [float(line.split(",")[1]) for line in FRINGE_GOLDEN.splitlines()[1:]]
    assert worst_row_error(cfg, 8, exact) <= 3e-16


def _naive_csv(header, table):
    """The CSV written one "%.17g" cell at a time, nothing shared."""
    return "\n".join([",".join(header),
                      *(",".join("%.17g" % value for value in row) for row in table.tolist()),
                      ""])


# (L_m, n1, n2, e_f, u_mps): the golden device, n1 = 1.5 at u = +-c/2,
# where one ulp of u_eff shows in the delays, and a near-vacuum pair at
# u = +-2e8, where pow's (u/c)**2 is an ulp off x*x in some rows
_SCAN_DEVICES = [(2.5, 1.00029, 1.33, 0.25, -3.7e4), (2.5, 1.00029, 1.33, 0.25, 1e3),
                 (2.5, 1.5, 1.0, 0.0, 1.5e8), (2.5, 1.5, 1.0, 0.0, -1.5e8),
                 (2.5, 1.0006, 1.0001, 0.0, 2e8), (2.5, 1.0006, 1.0001, 0.0, -2e8)]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("device", _SCAN_DEVICES)
def test_fringe_stdout_is_the_table_cell_by_cell(law, device, capsys):
    # a scan of more than 4096 rows is formatted in numpy, a smaller one
    # by "%.17g" in render_csv: the text must be what formatting every
    # cell one at a time gives
    L, n1, n2, e_f, u = device
    cfg = InterferometerConfig(L, n1, n2, u, 589e-9, CompositionLaw(law), e_f)
    for steps in (2, 3, 4, 5, 7, 8, 12, 360, 1001, 4096, 4097):
        code = cli.main(["fringe", "--L-m", repr(L), "--n1", repr(n1), "--n2", repr(n2),
                         "--ef", repr(e_f), f"--u-mps={u!r}", "--lambda-nm", "589",
                         "--composition", law, "--steps", str(steps)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == _naive_csv(SCAN_COLUMNS, angle_scan(cfg, steps)), steps


# (L_m, n1, n2): equal indices, whose delay and fringe columns are all
# zero, and devices whose delays and fringes lie beyond 1e250, or below
# 1e-292 (delays among the subnormals)
_DEGENERATE_DEVICES = [(2.5, 1.33, 1.33), (1e300, 1.0006, 1.0001), (1e-300, 1.0006, 1.0001)]


@pytest.mark.parametrize("u", [3e4, -3e4])
@pytest.mark.parametrize("device", _DEGENERATE_DEVICES, ids=["equal-indices", "huge-L", "tiny-L"])
def test_degenerate_scans_are_the_table_cell_by_cell(device, u, capsys):
    L, n1, n2 = device
    cfg = InterferometerConfig(L, n1, n2, u, 589e-9, e_f=0.3)
    for steps in (64, 4097, 5000):
        code = cli.main(["fringe", "--L-m", repr(L), "--n1", repr(n1), "--n2", repr(n2),
                         "--ef", "0.3", f"--u-mps={u!r}", "--lambda-nm", "589",
                         "--steps", str(steps)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == _naive_csv(SCAN_COLUMNS, angle_scan(cfg, steps)), steps


def _streamed(header, table):
    # _table_csv as the CSV subcommands call it: one string up to the
    # table rule's cut, numpy being loaded here, and a stream of ASCII
    # bytes beyond
    chunks = cli._table_csv(header, len(table), map(tuple, table.tolist()), lambda: (table,))
    assert isinstance(chunks, str) == (len(table) <= cli._WARM_CUT)
    return chunks if isinstance(chunks, str) else b"".join(chunks).decode("ascii")


def test_six_row_table_in_blocks_of_any_size_and_refused_whole(monkeypatch, capsys):
    # of six rows, row 5 repeats row 1 and row 4 row 2; row 4 then differs
    # in one cell, by one ulp or only in the sign of a zero, and its text
    # must differ too.  Blocks of 1 to 5 rows and of 4096 end at every
    # row, at row 4, or straddle it
    header = ("x", "a", "b", "c")
    base = np.array([[0.0, 1.0, 2.0, 3.0],
                     [60.0, 0.1, 0.2, 0.3],
                     [120.0, 0.0, 5e-324, -7.25],
                     [180.0, 4.0, 5.0, 6.0],
                     [240.0, 0.0, 5e-324, -7.25],
                     [300.0, 0.1, 0.2, 0.3]])
    for block in (1, 2, 3, 4, 5, 4096):
        monkeypatch.setattr(cli, "_SCAN_BLOCK", block)
        monkeypatch.setattr(cli, "_WARM_CUT", block)
        assert _streamed(header, base) == _naive_csv(header, base)
        for cell, value in ((2, 1e-323), (1, -0.0), (3, -7.250000000000001)):
            table = base.copy()
            table[4, cell] = value
            text = _streamed(header, table)
            assert text == _naive_csv(header, table)
            lines = text.splitlines()
            assert lines[5].split(",")[1:] != lines[3].split(",")[1:]
            assert lines[6].split(",")[1:] == lines[2].split(",")[1:]
    # a scan with an infinite cell is refused by the scan's own builders,
    # which form its rows up to the half turn, rows 0-3, by _scan_row, here
    # this table's: main writes nothing to stdout, on either side of the
    # table rule's cut
    table = base.copy()
    table[[1, 5], 3] = np.inf
    monkeypatch.setattr(interferometer, "_scan_row",
                        lambda config, steps, k, xp: tuple(table[k].T))
    cfg = InterferometerConfig(1.0, 1.0006, 1.0001, 1e3, 633e-9)
    refused = (lambda: list(interferometer._scan_rows(cfg, 6)),
               lambda: angle_scan(cfg, 6), lambda: interferometer._scan_blocks(cfg, 6))
    for form in refused:
        with pytest.raises(DomainError, match=r"not a finite number \(inf\)"):
            form()
    for cut in (2, 6):
        monkeypatch.setattr(cli, "_WARM_CUT", cut)
        assert cli.main(["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
                         "--u-mps", "1e3", "--lambda-nm", "633", "--steps", "6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["message"] == ("result is not a finite number (inf): "
                                              "the computation left the double range")
    # the message names the first non-finite cell in row-major order
    table[4, 1] = -np.inf
    table[1, 2] = np.nan
    for form in refused:
        with pytest.raises(DomainError, match=r"not a finite number \(nan\)"):
            form()


@pytest.mark.parametrize("law", LAWS)
# the third device's 90 and 270 degree rows are the static device's at a
# drift where cos 90 degrees rounded to 6.1e-17 changed all three delay cells
@pytest.mark.parametrize("device", [_SCAN_DEVICES[0], _SCAN_DEVICES[2],
                                    (1.0, 1.5, 1.500000000001, 0.0, 1.2e8)])
def test_streamed_scan_is_the_table_cell_by_cell(law, device, capsys):
    # a scan of more than one block is written in blocks, from its distinct
    # rows: the chunks and main's stdout are what formatting every cell of
    # angle_scan's whole table gives, for scans that end at, just after and
    # just before a block edge, at step counts of every residue mod 4
    L, n1, n2, e_f, u = device
    cfg = InterferometerConfig(L, n1, n2, u, 589e-9, CompositionLaw(law), e_f)
    argv = ["fringe", "--L-m", repr(L), "--n1", repr(n1), "--n2", repr(n2), "--ef", repr(e_f),
            f"--u-mps={u!r}", "--lambda-nm", "589", "--composition", law]
    for steps in (4097, 4098, 4099, 4100, 8192, 8193, 8194, 12001, 3 * 4096 + 1):
        table = angle_scan(cfg, steps)
        naive = _naive_csv(SCAN_COLUMNS, table)
        assert _streamed(SCAN_COLUMNS, table) == naive, steps
        assert cli.main([*argv, "--steps", str(steps)]) == 0
        assert capsys.readouterr() == (naive, ""), steps


POTENTIAL = ("rho_m", "phi_exact_V", "phi_expansion_V")


@pytest.mark.parametrize("variant", ["quarter", "half"])
# V = -0.0 and both I0 branches of the 10 cm cylinder: m R = 10 on the
# power series, 40 on the asymptotic one
@pytest.mark.parametrize("V, m_gamma_inv_cm", [(1e7, 1.0), (-0.0, 0.25), (-3.5e5, 1e3)])
def test_proca_potential_stdout_is_the_profile_cell_by_cell(V, m_gamma_inv_cm, variant,
                                                            capsys):
    # a profile follows the scans' table rule: whole up to 4096 rows, then
    # streamed, at a block edge, just past it and past two more
    cfg = ProcaCylinderConfig(R=0.1, V=V, tau=1.0)
    for steps in (4096, 4097, 8193, 12001):
        assert cli.main(["proca", "potential", f"--V-volts={V!r}", "--R-cm", "10",
                         "--m-gamma-inv-cm", repr(m_gamma_inv_cm), "--variant", variant,
                         "--steps", str(steps)]) == 0
        rows = list(potential_profile(cfg, 100.0 / m_gamma_inv_cm, steps, variant))
        assert capsys.readouterr() == (_naive_csv(POTENTIAL, np.array(rows)), ""), steps


def test_refused_proca_potential_writes_nothing(capsys):
    # V = 1e300 and m R = 1e11: the expansion column overflows to -inf in
    # its first row, on both sides of the table rule's cuts: 1000 rows take
    # the numpy path here, numpy being loaded, and a cold call's plain path
    for steps in ("64", "1000", "5000"):
        assert cli.main(["proca", "potential", "--V-volts", "1e300", "--R-cm", "10",
                         "--m-gamma-inv-cm", "1e-10", "--steps", steps]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "result is not a finite number (-inf): "
                                              "the computation left the double range"}


@pytest.mark.parametrize("encoding", [None, "utf-8", "utf-16", "utf-7", "cp500", "iso2022_jp"],
                         ids=["StringIO", "utf-8", "utf-16", "utf-7", "ebcdic", "iso2022-jp"])
def test_streamed_tables_in_any_text_stream(encoding):
    # a streamed table goes as bytes to the buffer of a text stream whose
    # encoding writes its cells' ASCII as itself (UTF-8, and ISO-2022-JP
    # once the header has left the JIS state that the text before it set),
    # and as text to any other stream.  Either way it follows the text
    # that the stream holds unflushed, and its text is the cell-by-cell
    # table's
    before = "before" if encoding == "cp500" else "\u65e5\u672c"
    for argv, header, table in _table_requests(4097):
        if encoding is None:
            out = io.StringIO()
        else:
            out = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
        out.write(before)
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        out.flush()
        text = out.getvalue() if encoding is None else out.buffer.getvalue().decode(encoding)
        assert text == before + _naive_csv(header, table), argv


@pytest.mark.parametrize("cold_cut", [False, True], ids=["warm-cut", "cold-cut"])
def test_fringe_cell_beyond_the_double_range_is_refused_in_numpy(cold_cut, monkeypatch,
                                                                 capsys):
    # at a wavelength of 1e-323 m every fringe cell is inf: angle_scan
    # refuses the first block of distinct rows that the scan builder forms,
    # before a row is written.  1000 rows take the numpy path past the
    # warm cut; 5000 past the cold one, as a fresh interpreter has it
    steps = "1000"
    if cold_cut:
        monkeypatch.setattr(cli, "_WARM_CUT", cli._SCAN_BLOCK)
        steps = "5000"
    assert cli.main(["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
                     "--u-mps", "3e4", "--lambda-nm", "1e-314", "--steps", steps]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "DomainError",
                               "message": "result is not a finite number (inf): "
                                          "the computation left the double range"}


def _table_requests(steps):
    """A fringe scan and a potential profile of steps rows: (argv, the
    table as a numpy array) each."""
    fringe = InterferometerConfig(2.5, 1.00029, 1.33, -3.7e4, 589e-9, e_f=0.25)
    proca = ProcaCylinderConfig(R=0.1, V=-3.5e5, tau=1.0)
    return [(["fringe", "--L-m", "2.5", "--n1", "1.00029", "--n2", "1.33", "--ef", "0.25",
              "--u-mps=-3.7e4", "--lambda-nm", "589", "--steps", str(steps)],
             SCAN_COLUMNS, angle_scan(fringe, steps)),
            (["proca", "potential", "--V-volts=-3.5e5", "--R-cm", "10",
              "--m-gamma-inv-cm", "0.5", "--steps", str(steps)],
             POTENTIAL, np.array(list(potential_profile(proca, 200.0, steps))))]


def _through_g17(monkeypatch):
    """The row counts of the passes that _g17 formats, pass by pass."""
    block = _g17._block
    seen = []

    def counted(rows, *arrays):
        seen.append(len(rows))
        return block(rows, *arrays)

    monkeypatch.setattr(_g17, "_block", counted)
    return seen


@pytest.mark.parametrize("cold_cut", [False, True], ids=["warm-cut", "cold-cut"])
def test_table_rule_at_its_cut_with_numpy_loaded(cold_cut, monkeypatch, capsys):
    # numpy is loaded here, so a table of more than _WARM_CUT rows, not only
    # of more than _SCAN_BLOCK, is formed and formatted in numpy; with the
    # cut patched to _SCAN_BLOCK, as a fresh interpreter has it, a table of
    # 1000 rows is plain floats again.  Both subcommands switch paths
    # between the cut and one row more, and print what formatting every
    # cell one at a time gives
    seen = _through_g17(monkeypatch)
    if cold_cut:
        monkeypatch.setattr(cli, "_WARM_CUT", cli._SCAN_BLOCK)
    cut = cli._WARM_CUT
    for steps in (cut, cut + 1, 1000):
        for argv, header, table in _table_requests(steps):
            seen.clear()
            assert cli.main(argv) == 0
            assert capsys.readouterr() == (_naive_csv(header, table), ""), argv
            # every pass of a table but its last has _PASS // columns rows:
            # a profile is one block, and a scan's blocks are whole passes
            rows = _g17._PASS // len(header)
            passes = [min(rows, steps - start) for start in range(0, steps, rows)]
            assert seen == (passes if steps > cut else []), argv


def test_fringe_config_flag_is_refused(tmp_path):
    # the device is given by flags alone, as for sensitivity
    cfg = tmp_path / "fringe.json"
    cfg.write_text(json.dumps({"L_m": 1.0, "n1": 1.0006, "n2": 1.0001,
                               "u_mps": 1000.0, "lambda_nm": 633.0, "steps": 2}))
    proc = run_cli("fringe", "--config", str(cfg))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "required: --L-m, --n1, --n2, --u-mps, --lambda-nm" in proc.stderr
    proc = run_cli("fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001",
                   "--u-mps", "1e3", "--lambda-nm", "633", "--config", str(cfg))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "unrecognized arguments: --config" in proc.stderr


def test_payload_file_errors(tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    _exit_2_with(run_cli("pmomentum", "--geometry", str(malformed)), "InputError",
                 f"malformed JSON in {malformed}")

    absent = tmp_path / "absent.json"
    _exit_2_with(run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1, 0, 0]}}',
                         "--path", str(absent)), "InputError", f"cannot read {absent}")


def test_payload_that_cannot_be_decoded_exit_2(tmp_path):
    # each of these ended in a traceback and exit 1: a file that is not
    # UTF-8, and JSON nested deeper than the decoder's recursion limit,
    # inline or in a file (50000 levels: far past the limit of about 1000,
    # and the argument stays below Linux's 128 kB per argv string)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    _exit_2_with(run_cli("pmomentum", "--geometry", str(binary)), "InputError",
                 f"cannot read {binary}: 'utf-8' codec can't decode byte 0xff")

    deep = "[" * 50000 + "]" * 50000
    _exit_2_with(run_cli("abphase", "--field", deep, "--path", "[[0,0,0],[1,1,1]]"),
                 "InputError", "malformed JSON in inline field spec: maximum recursion depth")
    nested = tmp_path / "nested.json"
    nested.write_text(deep)
    _exit_2_with(run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1, 0, 0]}}',
                         "--path", str(nested)),
                 "InputError", f"malformed JSON in {nested}: maximum recursion depth")


def test_abphase_uniform_inline():
    proc = run_cli("abphase",
                   "--field", '{"kind": "uniform_q", "params": {"q": [0.3, -0.2, 0.5]}}',
                   "--path", "[[0, 0, 0], [2, 0, 0]]")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["phase_rad"] == pytest.approx(0.6, rel=1e-12)


def test_abphase_solenoid_loop_is_pi():
    # one flux quantum (paper profile rounding) through a unit square loop
    proc = run_cli("abphase",
                   "--field", '{"kind": "solenoid", "params": {"flux_wb": 2.067e-15}}',
                   "--path", "[[1,-1,0],[1,1,0],[-1,1,0],[-1,-1,0],[1,-1,0]]")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["phase_rad"] == pytest.approx(math.pi, rel=1e-9)


def test_abphase_default_coupling_follows_profile():
    flux = 2.067e-15
    args = ("abphase", "--field", '{"kind": "solenoid", "params": {"flux_wb": 2.067e-15}}',
            "--path", "[[1,-1,0],[1,1,0],[-1,1,0],[-1,-1,0],[1,-1,0]]")
    paper = run_cli(*args)
    assert paper.returncode == 0
    assert paper.stdout == '{"phase_rad":3.1415926535897931}\n'
    assert json.loads(paper.stdout)["phase_rad"] == pytest.approx(
        PAPER.charge_over_hbar * flux, rel=1e-15)
    modern = run_cli("--profile", "modern", *args)
    assert modern.returncode == 0
    assert json.loads(modern.stdout)["phase_rad"] == pytest.approx(
        MODERN.charge_over_hbar * flux, rel=1e-15)


def test_abphase_field_file_and_errors(tmp_path):
    field_file = tmp_path / "field.json"
    field_file.write_text('{"kind": "uniform_q", "params": {"q": [1.0, 0.0, 0.0]}}')
    proc = run_cli("abphase", "--field", str(field_file),
                   "--path", "[[0,0,0],[3,0,0]]")
    assert json.loads(proc.stdout)["phase_rad"] == pytest.approx(3.0, rel=1e-12)

    proc = run_cli("abphase", "--field", '{"kind": "vortex", "params": {}}',
                   "--path", "[[0,0,0],[1,0,0]]")
    assert proc.returncode == 2
    assert "vortex" in stderr_error(proc)["message"]

    proc = run_cli("abphase",
                   "--field", '{"kind": "solenoid", "params": {"flux_wb": 1.0}}',
                   "--path", "[[-1,0,0],[1,0,0]]")
    assert proc.returncode == 2
    assert stderr_error(proc)["error"] == "SingularPathError"

    proc = run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [0,0,0]}}',
                   "--path", "[[0,0],[1,0]]")
    assert proc.returncode == 2


def test_field_from_dict_round_trips():
    field = cli._field_from_dict({"kind": "uniform_q", "params": {"q": [1.0, 2.0, 3.0]}}, PAPER)
    assert isinstance(field, UniformQ) and field.q == (1.0, 2.0, 3.0)

    flow = cli._field_from_dict({"kind": "fresnel_flow",
                                 "params": {"omega_rad_s": OMEGA_633, "n": 1.33,
                                            "u_mps": [10.0, 0.0, 0.0]}}, PAPER)
    assert np.all(flow.q_vector() == fresnel_momentum(OMEGA_633, 1.33, (10.0, 0.0, 0.0)))

    sol = cli._field_from_dict({"kind": "solenoid", "params": {"flux_wb": 2.067e-15}}, PAPER)
    assert sol.coupling == PAPER.charge_over_hbar
    assert sol.axis_point == (0.0, 0.0, 0.0)

    moved = cli._field_from_dict({"kind": "solenoid",
                                  "params": {"flux_wb": 1.0, "coupling": 1.0,
                                             "center_m": [1.0, 0.0, 0.0]}}, PAPER)
    assert moved.axis_point == (1.0, 0.0, 0.0)
    # the flux line runs along z: it takes no direction
    with pytest.raises(InputError, match="^unknown key 'axis' in solenoid field params$"):
        cli._field_from_dict({"kind": "solenoid",
                              "params": {"flux_wb": 1.0, "axis": [0.0, 0.0, -1.0]}}, PAPER)


def test_field_from_dict_strict_errors_name_offender():
    with pytest.raises(InputError, match="vortex"):
        cli._field_from_dict({"kind": "vortex", "params": {}}, PAPER)
    with pytest.raises(InputError, match="extra"):
        cli._field_from_dict({"kind": "uniform_q", "params": {"q": [0, 0, 0], "extra": 1}},
                             PAPER)
    with pytest.raises(InputError, match="flux_wb"):
        cli._field_from_dict({"kind": "solenoid", "params": {}}, PAPER)
    with pytest.raises(InputError, match="comment"):
        cli._field_from_dict({"kind": "uniform_q", "params": {"q": [0, 0, 0]}, "comment": "x"},
                             PAPER)
    with pytest.raises(InputError):
        cli._field_from_dict({"kind": "uniform_q", "params": {"q": [0, 0]}}, PAPER)
    with pytest.raises(InputError):
        cli._field_from_dict({"kind": "uniform_q", "params": {"q": [0, 0, "a"]}}, PAPER)
    with pytest.raises(InputError):
        cli._field_from_dict([1, 2], PAPER)
    # an unhashable kind used to raise TypeError on the registry lookup
    with pytest.raises(InputError, match="kind"):
        cli._field_from_dict({"kind": ["uniform_q"], "params": {"q": [0, 0, 0]}}, PAPER)


def test_proca_bound_profiles():
    args = ("proca", "bound", "--V-volts", "1e7", "--tau-s", "0.05",
            "--R-cm", "27", "--epsilon", "1e-4")
    paper = json.loads(run_cli(*args).stdout)
    # (R/2) sqrt(pi V tau/(eps Phi0)) in cm, 50-digit arithmetic
    assert paper["m_gamma_inv_cm"] == pytest.approx(3.7215466620391035e13, rel=1e-12)
    assert paper["m_ph_g"] == pytest.approx(9.4521801315228174e-52, rel=1e-12)

    modern = json.loads(run_cli("--profile", "modern", *args).stdout)
    assert modern["m_gamma_inv_cm"] == pytest.approx(3.7207962345167440e13, rel=1e-12)

    # the environment picks no profile: only --profile does
    via_env = json.loads(run_cli(*args, env_extra={"ETHERDRIFT_PROFILE": "modern"}).stdout)
    assert via_env["m_gamma_inv_cm"] == paper["m_gamma_inv_cm"]


def test_proca_bound_beyond_the_largest_phase_exit_2():
    # the phase of any photon mass stays below (e/hbar) V tau = 1.52e-3 rad
    # here, so no mass gives epsilon = 1: it printed 0.526 cm with exit 0
    args = ("proca", "bound", "--V-volts", "1e-12", "--tau-s", "1e-6", "--R-cm", "27")
    _exit_2_with(run_cli(*args, "--epsilon", "1"), "DomainError", "largest phase")
    assert run_cli(*args, "--epsilon", "1.5e-3").returncode == 0


def test_proca_bound_beyond_the_double_range_exit_2():
    # V tau = 1e600 overflows, and at tau = 1 s the range of a 1e298 m
    # cylinder does: both said "Yukawa range must be finite and positive,
    # got inf", which names no flag
    for tau in ("1e300", "1"):
        proc = run_cli("proca", "bound", "--V-volts", "1e300", "--R-cm", "1e300",
                       "--tau-s", tau, "--epsilon", "1e-4")
        _exit_2_with(proc, "DomainError", f"V = 1e+300 V, tau = {float(tau)!r} s")
        assert "the Compton range overflows at" in proc.stderr


def test_proca_phase_closes_on_resolution():
    proc = run_cli("proca", "phase", "--V-volts", "1e7", "--tau-s", "0.05",
                   "--R-cm", "27", "--m-gamma-inv-cm", "3.7215466620391035e13")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta_phi_rad"] == pytest.approx(1e-4, rel=1e-9)


def test_proca_potential_csv():
    proc = run_cli("proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
                   "--m-gamma-inv-cm", "100", "--steps", "5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "rho_m,phi_exact_V,phi_expansion_V"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # V / I0(0.1) on the axis, 50-digit arithmetic
    assert float(first[1]) == pytest.approx(9975046.7926775686, rel=1e-12)
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.1, rel=1e-15)
    assert float(last[1]) == 1e7


def test_proca_potential_last_radius_is_exactly_r():
    # R * (steps - 1) / (steps - 1) rounds above R for this R and step count
    r_cm, steps = "15.811273409006354", 3867
    proc = run_cli("proca", "potential", "--V-volts", "1e7", "--R-cm", r_cm,
                   "--m-gamma-inv-cm", "100", "--steps", str(steps))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == steps
    radius = float(r_cm) / 100.0
    assert [row[0] for row in rows[:-1]] == [
        format(radius * i / (steps - 1), ".17g") for i in range(steps - 1)]
    assert float(rows[-1][0]) == radius
    assert float(rows[-1][1]) == 1e7


def test_proca_potential_forms_the_wall_value_once(monkeypatch, capsys):
    # mR = 649: one scaled I0 of the wall, a float, first; then one per row
    # in plain floats, or one per block of rows in numpy, and no other
    from etherdrift import proca

    scaled_I0 = proca._scaled_I0
    calls = []

    def counted(x, *xp):
        calls.append(x)
        return scaled_I0(x, *xp)

    monkeypatch.setattr(proca, "_scaled_I0", counted)
    # the plain path (the cut as a cold call has it), then the numpy path
    for cut, steps, count in ((cli._SCAN_BLOCK, 1000, 1001), (cli._WARM_CUT, 1000, 2),
                              (cli._WARM_CUT, 8193, 1 + 3)):
        monkeypatch.setattr(cli, "_WARM_CUT", cut)
        calls.clear()
        assert cli.main(["proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
                         "--m-gamma-inv-cm", "0.0154", "--steps", str(steps)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + steps
        assert len(calls) == count
        assert calls[0] == (100.0 / 0.0154) * 0.1
        assert all(isinstance(x, float) == (cut == cli._SCAN_BLOCK) for x in calls[1:])


def test_proca_potential_beyond_the_old_series_ceiling():
    # mR = 1000 used to exit 2 at the old series ceiling of 700
    proc = run_cli("proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
                   "--m-gamma-inv-cm", "0.01", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 3
    # V e^{-1000} sqrt(2 pi 1000) on the axis is below the smallest double
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == 1e7


def test_proca_potential_infinite_mass_radius_product_exit_2():
    # R = 1e298 m and m = 1e302 /m are finite, m R is not; a scaled I0 of
    # inf that returned 0 would end in a ZeroDivisionError traceback
    proc = run_cli("proca", "potential", "--V-volts", "1e7", "--R-cm", "1e300",
                   "--m-gamma-inv-cm", "1e-300", "--steps", "3")
    _exit_2_with(proc, "DomainError", "finite")


FRINGE = ("fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--lambda-nm", "633")
GEOMETRY = '{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0, "grid": [4, 4, 4]}'
_HUGE = "1" + "0" * 400  # beyond the float range; float() raises OverflowError


@pytest.mark.parametrize("args, flag", [
    (("speed", "--mode", "einstein", "--n", "nan"), "--n"),
    (("proca", "bound", "--V-volts", "nan", "--tau-s", "0.05", "--R-cm", "27",
      "--epsilon", "1e-4"), "--V-volts"),
    (FRINGE + ("--u-mps", "nan"), "--u-mps"),
    (FRINGE + ("--u-mps", "inf"), "--u-mps"),
    # an infinite Compton range used to print the massless profile
    (("proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
      "--m-gamma-inv-cm", "inf"), "--m-gamma-inv-cm"),
    # int() accepts it; angle_scan and the grid code used to raise OverflowError
    (FRINGE + ("--u-mps", "0", "--steps", _HUGE), "--steps"),
    (("pmomentum", "--geometry", GEOMETRY, "--levels", _HUGE), "--levels"),
    # a separate -inf or -nan used to read as an unknown option: exit 1
    (FRINGE + ("--u-mps", "-inf"), "--u-mps"),
    (("speed", "--mode", "einstein", "--n", "-nan"), "--n"),
])
def test_non_finite_flags_exit_2(args, flag):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    payload = stderr_error(proc)
    assert payload["error"] == "InputError"
    assert payload["message"].startswith(f"{flag} must be finite, got ")


def test_non_finite_json_numbers_exit_2(tmp_path):
    # json.loads accepts NaN and Infinity, in a file as inline
    geometry = tmp_path / "geometry.json"
    geometry.write_text('{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": NaN, "q_esu": 1.0}')
    _exit_2_with(run_cli("pmomentum", "--geometry", str(geometry)), "InputError", "'d_cm'")

    # a JSON true must not pass for the number 1, and a number or a grid
    # count must fit a double
    for leaf, key in (('"q_esu": true', "q_esu"), ('"q_esu": ' + _HUGE, "q_esu"),
                      ('"q_esu": 1, "grid": [4, 4, %s]' % _HUGE, "grid")):
        _exit_2_with(run_cli("pmomentum", "--geometry",
                             '{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, %s}' % leaf),
                     "InputError", f"'{key}'")

    uniform = '{"kind": "uniform_q", "params": {"q": [1, 0, 0]}}'
    proc = run_cli("abphase", "--field", uniform.replace("[1,", "[Infinity,"),
                   "--path", "[[0,0,0],[1,0,0]]")
    assert proc.returncode == 2
    assert "'q'" in stderr_error(proc)["message"]

    proc = run_cli("abphase", "--field", uniform, "--path", "[[0,0,0],[NaN,0,0]]")
    assert proc.returncode == 2
    assert proc.stdout == ""

    proc = run_cli("pmomentum", "--geometry",
                   '{"a_cm": 1.0, "B_gauss": -Infinity, "d_cm": 3.0, "q_esu": 1.0}')
    assert proc.returncode == 2
    assert "B_gauss" in stderr_error(proc)["message"]


@pytest.mark.parametrize("action", ["potential", "phase"])
def test_proca_zero_compton_range_exit_2(action):
    # used to end in a ZeroDivisionError traceback
    args = ("proca", action, "--V-volts", "1e7", "--R-cm", "10", "--m-gamma-inv-cm", "0")
    if action == "phase":
        args += ("--tau-s", "0.05")
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    payload = stderr_error(proc)
    assert payload["error"] == "DomainError"
    assert "--m-gamma-inv-cm" in payload["message"]


def test_proca_potential_overflowing_mass_radius_names_both_flags():
    # m = 1e302 /m and R = 1e298 m are each finite; the message used to be
    # "I0 argument must be finite and >= 0, got inf", naming neither flag
    proc = run_cli("proca", "potential", "--V-volts", "1e7", "--R-cm", "1e300",
                   "--m-gamma-inv-cm", "1e-300")
    _exit_2_with(proc, "DomainError", "--R-cm")
    assert "--m-gamma-inv-cm" in stderr_error(proc)["message"]


@pytest.mark.parametrize("field", [{"B_gauss": 0}, {"q_esu": 0}, {"a_cm": 1e-300},
                                   {"d_cm": 1e308}])
def test_pmomentum_zero_analytic_momentum_exit_2(field):
    # q B a^2/(2 d c) is 0 or underflows to it: the relative error used to
    # end in a ZeroDivisionError traceback
    geometry = dict({"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0}, **field)
    proc = run_cli("pmomentum", "--geometry", json.dumps(geometry))
    assert proc.returncode == 2
    assert proc.stdout == ""
    payload = stderr_error(proc)
    assert payload["error"] == "DomainError"
    assert "undefined for a zero momentum" in payload["message"]


def test_bounds_json_and_text():
    proc = run_cli("bounds")
    entries = json.loads(proc.stdout)
    assert [e["source"] for e in entries] == [
        "Williams-Faller-Hill", "Luo et al.", "Boulware-Deser", "Spavieri-Rodriguez"]
    assert entries[0]["m_gamma_inv_cm"] == 3.0e9

    text = run_cli("bounds", "--format", "text").stdout
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("source")
    column = lines[0].index("m_gamma_inv_cm")
    for line in lines[1:]:
        assert line[column] not in (" ",)


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_json_string_is_json_dumps(text):
    assert cli._json_string(text) == json.dumps(text)


@pytest.mark.parametrize("text", ['"', "\\", "\x7f", "\t", "", " ~", 'a "b" c', "C:\\dir",
                                  "\u03a9", "na\u00efve", "\u2028", "\U0001f600",
                                  *(bound.source for bound in bounds_registry())])
def test_json_string_is_json_dumps_at_the_edges(text):
    assert cli._json_string(text) == json.dumps(text)
    # keys go through it too
    assert cli.render_json({text: [text]}) == json.dumps({text: [text]},
                                                        separators=(",", ":")) + "\n"


@pytest.mark.parametrize("q_esu", ["1e-150", "1e-170", "1e172"])
def test_pmomentum_far_from_unit_charge(q_esu):
    # the magnitude used to be a norm, which squares P_y: 2 % low at 1e-150,
    # 0 ("is 0", exit 2) at 1e-170 and inf (exit 2) at 1e172
    geometry = '{"a_cm": 1, "B_gauss": 1, "d_cm": 3, "q_esu": %s}' % q_esu
    proc = run_cli("pmomentum", "--geometry", geometry)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["P_e"][1] == pytest.approx(out["analytic"][1], rel=3e-4)
    assert out["levels"][-1]["P_mag"] == out["P_e"][1]


def test_pmomentum_inline_geometry():
    proc = run_cli("pmomentum", "--geometry",
                   '{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0}')
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # q B a^2/(2 d c_cgs), 50-digit arithmetic
    assert out["analytic"][1] == pytest.approx(5.5594015866358675e-10, rel=1e-12)
    assert out["rel_error"] <= 5e-3
    rels = [level["rel_error"] for level in out["levels"]]
    assert len(rels) == 3
    assert rels[0] > rels[1] > rels[2]


def test_pmomentum_coarse_grid_with_growing_refinement_difference():
    # used to exit 2 with "refinement difference grew" on this geometry
    geometry = ('{"a_cm": 0.6480262676206137, "B_gauss": 12.248272878650218, '
                '"d_cm": 2.0901708997646273, "q_esu": 5.787647120410555, '
                '"lambda_cm": 200.0844256058074, "grid": [8, 16, 128]}')
    proc = run_cli("pmomentum", "--geometry", geometry, "--levels", "4")
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["levels"]) == 4


def test_pmomentum_geometry_errors():
    proc = run_cli("pmomentum", "--geometry", '{"a_cm": 1.0, "B_gauss": 100.0}')
    assert proc.returncode == 2
    assert "d_cm" in stderr_error(proc)["message"]

    proc = run_cli("pmomentum", "--geometry",
                   '{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0, "R": 2}')
    assert proc.returncode == 2
    assert "'R'" in stderr_error(proc)["message"]

    # halving cannot refine a 2-cell axis, so its error estimate would read 0
    proc = run_cli("pmomentum", "--geometry",
                   '{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0, '
                   '"grid": [2, 2, 2]}')
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert ">= 4" in stderr_error(proc)["message"]


def test_constants_dump():
    si = json.loads(run_cli("constants").stdout)
    by_name = {row["name"]: row for row in si}
    assert by_name["c"]["value"] == 299792458.0
    assert by_name["c"]["profile"] == "paper"
    assert by_name["flux_quantum"]["value"] == 2.067e-15

    gauss = json.loads(run_cli("--profile", "modern", "constants",
                               "--system", "gaussian").stdout)
    by_name = {row["name"]: row for row in gauss}
    assert by_name["e_charge"]["value"] == pytest.approx(4.8032047125702637e-10, rel=1e-12)
    assert by_name["e_charge"]["profile"] == "modern"


# name, value in SI and in Gaussian units, SI and Gaussian unit; the flux
# quantum is the one value a profile chooses
_CONSTANTS_ROWS = [
    ("c", "299792458", "29979245800", "m/s", "cm/s"),
    ("h", "6.6260701499999998e-34", "6.6260701499999999e-27", "J s", "erg s"),
    ("hbar", "1.0545718176461565e-34", "1.0545718176461565e-27", "J s", "erg s"),
    ("e_charge", "1.6021766339999999e-19", "4.8032047125702634e-10", "C", "esu"),
]
_FLUX_QUANTUM = {"paper": ("2.0669999999999999e-15", "2.0669999999999999e-07"),
                 "modern": ("2.0678338484619295e-15", "2.0678338484619295e-07")}


@pytest.mark.parametrize("profile", ["paper", "modern"])
@pytest.mark.parametrize("system", ["si", "gaussian"])
def test_constants_dump_is_pinned(profile, system):
    rows = _CONSTANTS_ROWS + [("flux_quantum", *_FLUX_QUANTUM[profile], "Wb", "G cm^2")]
    objects = []
    for name, si, gauss, si_unit, gauss_unit in rows:
        value, unit = (gauss, gauss_unit) if system == "gaussian" else (si, si_unit)
        objects.append(f'{{"name":"{name}","value":{value},"unit":"{unit}",'
                       f'"system":"{system}","profile":"{profile}"}}')
    expected = "[" + ",".join(objects) + "]\n"
    proc = run_cli("--profile", profile, "constants", "--system", system)
    assert proc.returncode == 0
    assert proc.stdout == expected


def _exit_2_with(proc, error, fragment):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    payload = stderr_error(proc)
    assert payload["error"] == error
    assert fragment in payload["message"]



@pytest.mark.parametrize("geometry, key", [
    ('{"a_cm": %s, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0}' % _HUGE, "a_cm"),
    # json.loads itself refuses integers of more than 4300 digits
    ('{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1%s}' % ("0" * 5000), "geometry"),
    # a grid count used to reach the quadrature and raise OverflowError there
    ('{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0, "grid": [4, 4, %s]}' % _HUGE,
     "'grid'"),
    ('{"a_cm": 1.0, "B_gauss": true, "d_cm": 3.0, "q_esu": 1.0}', "'B_gauss'"),
], ids=["beyond-float-range", "beyond-4300-digits", "grid-beyond-float-range", "bool"])
def test_pmomentum_huge_json_integer_exit_2(geometry, key):
    _exit_2_with(run_cli("pmomentum", "--geometry", geometry), "InputError", key)


def test_abphase_huge_json_integer_exit_2():
    field = '{"kind": "uniform_q", "params": {"q": [%s, 0, 0]}}' % _HUGE
    proc = run_cli("abphase", "--field", field, "--path", "[[0,0,0],[1,0,0]]")
    _exit_2_with(proc, "InputError", "'q'")

    field = '{"kind": "solenoid", "params": {"flux_wb": 1.0, "coupling": true}}'
    proc = run_cli("abphase", "--field", field, "--path", "[[1,0,0],[0,1,0]]")
    _exit_2_with(proc, "InputError", "'coupling'")


def test_overflowing_result_exit_2():
    # finite inputs whose product overflows used to print "P_e":[-inf,inf,0]
    geometry = '{"a_cm":1,"B_gauss":1e300,"d_cm":3,"q_esu":1e300,"grid":[4,4,4]}'
    proc = run_cli("pmomentum", "--geometry", geometry)
    _exit_2_with(proc, "DomainError", "not a finite number")
    # finite delays whose fringe count c dt / lambda overflows, on both
    # sides of the cut between the plain-float scan and angle_scan's table
    lines = []
    for steps in ("32", "5000"):
        proc = run_cli("fringe", "--L-m", "1e300", "--n1", "1.0006", "--n2", "1.0001",
                       "--u-mps", "1e3", "--lambda-nm", "1e-300", "--steps", steps)
        _exit_2_with(proc, "DomainError", "not a finite number (inf)")
        lines.append(proc.stderr)
    assert lines[0] == lines[1]


def test_fringe_where_a_lab_speed_rounds_to_zero_matches_mpmath():
    # n1 = c 2^30 puts c/n1 at half an ulp of u_eff in [2^23, 2^24): the lab
    # speed v_rest - u_eff rounds to 0 at the angles where u_eff has an even
    # last bit.  The plain-float scan divided by that 0 and both scans exited
    # 2; the delays take no lab speed now, and on both sides of the cut
    # between the scans every row is within rounding of 50-digit arithmetic
    n1, u = 299792458.0 * 2.0 ** 30, 2.0 ** 24 - 2.0 ** -29
    cfg = InterferometerConfig(1.0, n1, 1.0, u, 589e-9, e_f=1.0)
    for steps in (8, 5000):
        proc = run_cli("fringe", "--L-m", "1", "--n1", repr(n1), "--n2", "1", "--ef", "1",
                       "--u-mps", repr(u), "--lambda-nm", "589", "--steps", str(steps))
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == steps
        assert worst_row_error(cfg, steps, [float(row.split(",")[1]) for row in rows]) <= 3e-16


@pytest.mark.parametrize("path", ["[[0, 0, 0], [1, 1]]", '[["a", 0, 0], [1, 1, 1]]',
                                  '{"a": 1}', "[[0, 0, 0], [1, 1, null]]"])
def test_abphase_malformed_path_exit_2(path):
    # Path converts the vertices to float 3-tuples; what it cannot convert
    # is reported as an input error, not a traceback
    proc = run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1, 2, 3]}}',
                   "--path", path)
    _exit_2_with(proc, "InputError", "path must be an array of [x, y, z] vertices")


def test_abphase_overflowing_phase_exit_2():
    # the segment integral (p1 - p0) . q overflows to inf, and nothing but
    # the error line may reach stderr
    proc = run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1e300, 0, 0]}}',
                   "--path", "[[0, 0, 0], [1e300, 0, 0]]")
    _exit_2_with(proc, "DomainError", "not a finite number (inf)")


def test_abphase_overflowing_solenoid_coupling_exit_2():
    # coupling x flux/(2 pi) leaves the double range: the segment phases
    # are inf, and the result is refused, not a traceback
    field = '{"kind": "solenoid", "params": {"flux_wb": 1e300, "coupling": 1e300}}'
    proc = run_cli("abphase", "--field", field,
                   "--path", "[[1,-1,0],[1,1,0],[-1,1,0],[-1,-1,0],[1,-1,0]]")
    _exit_2_with(proc, "DomainError", "not a finite number (inf)")


#: the unit square loop of the README's abphase example
README_LOOP = [[1, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]


@pytest.mark.parametrize("params, path, stdout", [
    # the README loop scaled to 1e200 m: its offsets' products overflow
    ({"flux_wb": 2.067e-15}, [[x * 1e200 for x in v] for v in README_LOOP],
     '{"phase_rad":3.1415926535897931}\n'),
    # the README loop with the line 1e300 m away: the radii's squares overflow
    ({"flux_wb": 2.067e-15, "center_m": [1e300, 0, 0]}, README_LOOP,
     '{"phase_rad":0}\n'),
], ids=["loop-scaled-to-1e200-m", "line-1e300-m-away"])
def test_abphase_solenoid_far_from_unit_scale(params, path, stdout, capsys):
    field = json.dumps({"kind": "solenoid", "params": params})
    code = cli.main(["abphase", "--field", field, "--path", json.dumps(path)])
    assert (code, *capsys.readouterr()) == (0, stdout, "")


@pytest.mark.parametrize("path", ["[[0, 0, 0], [1e300, 0, 0], [-1e300, 0, 0]]",
                                  "[[0, 0, 0], [1e8, 0, 0], [2e8, 0, 0]]"])
def test_abphase_phase_sum_overflow_exit_2(path):
    # math.fsum raises ValueError (-inf + inf) or OverflowError (intermediate
    # overflow) where a plain sum would give nan or inf
    proc = run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1e300, 0, 0]}}',
                   "--path", path)
    _exit_2_with(proc, "DomainError", "double range")


@pytest.mark.parametrize("path, fragment", [
    ("[[0, 0, 0]]", "a path needs at least 2 vertices"),
    # an empty path used to say "must be an (N, 3) array of points"
    ("[]", "a path needs at least 2 vertices"),
    ("[[0, 0, 0], [1, 0, 0], [1, 0, 0]]", "consecutive path vertices must be distinct"),
    # a JSON true is not the number 1, and an integer must fit a double
    ("[[0, 0, 0], [true, 0, 0]]", "path must be an array of [x, y, z] vertices"),
    ("[[0, 0, 0], [1%s, 0, 0]]" % ("0" * 400), "path must be an array of [x, y, z] vertices"),
])
def test_abphase_path_errors_name_the_fault(path, fragment):
    proc = run_cli("abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1, 2, 3]}}',
                   "--path", path)
    _exit_2_with(proc, "InputError", fragment)


@pytest.mark.parametrize("action", ["potential", "phase"])
def test_proca_compton_range_overflow_names_flag(action):
    # 100/1e-307 overflows; bessel_I0 used to report "got nan" without the flag
    args = ("proca", action, "--V-volts", "1e7", "--R-cm", "10",
            "--m-gamma-inv-cm", "1e-307")
    if action == "phase":
        args += ("--tau-s", "0.05")
    _exit_2_with(run_cli(*args), "DomainError", "--m-gamma-inv-cm")


def test_pmomentum_levels_underflowing_truncation_exit_2():
    # 2**-1099 underflows: the coarsest levels used to print lambda_cm 0
    # and rel_error 1 with exit 0
    proc = run_cli("pmomentum", "--geometry", GEOMETRY, "--levels", "1100")
    _exit_2_with(proc, "DomainError", "levels")


def test_fringe_steps_beyond_cap_exit_2():
    # used to grow a list of rows until memory ran out
    proc = run_cli(*FRINGE, "--u-mps", "1e3", "--steps", "100000000000")
    _exit_2_with(proc, "InputError", "steps")


def test_proca_potential_caps_steps_before_allocating(capsys):
    argv = ["proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
            "--m-gamma-inv-cm", "100", "--steps"]
    tracemalloc.start()
    try:
        code = cli.main([*argv, str(MAX_SCAN_STEPS + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # MAX_SCAN_STEPS + 1 rows of three floats would take over 1 GB
    assert code == 2
    assert peak < 1 << 20
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "steps" in err["message"]
    # used to grow a list of rows until memory ran out
    assert cli.main([*argv, "100000000000"]) == 2
    assert "steps" in json.loads(capsys.readouterr().err)["message"]


def test_fringe_drift_reaching_the_light_exit_2():
    # u = c/1.5 stalls the light in arm 1 at theta = 0: a ZeroDivisionError
    # traceback with exit 1, and negative delays with exit 0 beyond it
    for u in ("199861638.66666666", "2.5e8"):
        proc = run_cli("fringe", "--L-m", "1", "--n1", "1.5", "--n2", "1.0",
                       "--u-mps", u, "--lambda-nm", "633")
        _exit_2_with(proc, "DomainError", "arm 1")


@pytest.mark.parametrize("grid", [[4, 4, 10 ** 20], [2048, 4, 4]],
                         ids=["beyond-old-node-cap", "beyond-old-radial-cap"])
def test_pmomentum_grid_is_echoed_whatever_its_size(grid):
    # 2^24 nodes and 1024 radial nodes bounded the cost of a disk rule that
    # is gone; no quadrature reads the grid, so P_e is the default grid's
    proc = run_cli("pmomentum", "--geometry", GEOMETRY.replace("[4, 4, 4]", json.dumps(grid)))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [level["grid"] for level in out["levels"]] == [
        [grid[0], grid[1], max(2, round(grid[2] * 2.0 ** -k))] for k in (2, 1, 0)]
    assert out["P_e"] == json.loads(run_cli("pmomentum", "--geometry", GEOMETRY).stdout)["P_e"]


@pytest.mark.parametrize("a_cm", [1e-150, 1e150])
def test_pmomentum_far_from_unit_scale_ends_in_json(a_cm, capsys):
    # the edge sum is pure Python, where ** and math.* raise on overflow and
    # math.ceil(nan) raises: each geometry must exit 0 with finite JSON or
    # exit 2 with one typed JSON line, never with a traceback
    codes = []
    for d_cm in (a_cm * (1.0 + 1e-12), 3.0 * a_cm):
        for lambda_cm in (None, a_cm, 2.0 * a_cm, 4.0 * a_cm):
            geometry = {"a_cm": a_cm, "B_gauss": 100.0, "d_cm": d_cm, "q_esu": 1.0}
            if lambda_cm is not None:
                geometry["lambda_cm"] = lambda_cm
            for levels in ("2", "3"):
                code = cli.main(["pmomentum", "--geometry", json.dumps(geometry),
                                 "--levels", levels])
                out, err = capsys.readouterr()
                if code == 0:
                    values = json.loads(out)
                    assert err == "" and all(map(math.isfinite, values["P_e"]))
                    assert 0.0 < values["rel_error"] < 1.0
                else:
                    assert code == 2 and out == ""
                    assert json.loads(err)["error"] == "DomainError"
                codes.append(code)
    # lambda_cm = a_cm at either level count, and 2 a_cm at 3 levels, halve
    # below the bore radius
    assert codes.count(0) == 10 and codes.count(2) == 6


def test_pmomentum_levels_below_bore_radius_exit_2():
    # 150 cm halved 1059 times is subnormal: lambda_cm 2.4e-317 used to
    # print with P_mag 0 and exit 0
    proc = run_cli("pmomentum", "--geometry", GEOMETRY, "--levels", "1060")
    _exit_2_with(proc, "DomainError", "bore radius")


#: what abphase.Path says of every malformed vertex list
_MALFORMED_PATH = "path must be an array of [x, y, z] vertices of finite numbers"

# JSON leaves a path can hold: floats, ints up to +-10^400 (beyond the float
# range from about 1.8e308), bools, null, strings and the non-finite floats
# that json.loads reads from NaN and Infinity
_JSON_ATOMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 400, 10 ** 400),
    st.sampled_from([0, 1, -1, int(sys.float_info.max), int(sys.float_info.max) + 1,
                     -int(sys.float_info.max) - 1]),
    st.booleans(), st.none(), st.text(max_size=3))
#: a vertex of finite floats and ints, the float-range edge included
_NUMBER_VERTEX = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                    st.integers(-10 ** 6, 10 ** 6),
                                    st.sampled_from([int(sys.float_info.max),
                                                     -int(sys.float_info.max)])),
                          min_size=3, max_size=3)
#: a vertex of JSON numbers that may leave the float range, or a bool
_EDGE_VERTEX = st.lists(st.one_of(st.floats(), st.integers(-10 ** 400, 10 ** 400),
                                  st.booleans()),
                        min_size=3, max_size=3)
_VERTEX = st.one_of(
    _NUMBER_VERTEX,
    _EDGE_VERTEX,
    st.lists(_JSON_ATOMS, min_size=3, max_size=3),
    st.lists(_JSON_ATOMS, max_size=5),
    st.lists(st.lists(st.floats(), max_size=3), min_size=3, max_size=3),
    _JSON_ATOMS)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(path=st.one_of(st.lists(_NUMBER_VERTEX, max_size=6),
                      st.lists(st.one_of(_NUMBER_VERTEX, _VERTEX), max_size=6),
                      st.lists(st.one_of(_NUMBER_VERTEX, _EDGE_VERTEX), max_size=6),
                      _JSON_ATOMS,
                      st.dictionaries(st.text(max_size=2), _JSON_ATOMS, max_size=2)))
def test_bulk_path_check_matches_per_vertex_check(path):
    # the path as the CLI reads it: through JSON, where a float is a float
    # and an int an int, so 1.0 and 1 stay apart.  Path's one pass refuses
    # as malformed exactly the paths with a vertex that is not a "vector";
    # a well-formed path may still be too short or repeat a vertex
    path = json.loads(json.dumps(path))
    expected = isinstance(path, list) and all(cli._is_kind(v, "vector") for v in path)
    try:
        vertices = Path(path).vertices
    except InputError as exc:
        assert (str(exc) == _MALFORMED_PATH) != expected
    else:
        assert expected
        assert vertices == tuple(tuple(map(float, v)) for v in path)
        assert all(type(x) is float for v in vertices for x in v)

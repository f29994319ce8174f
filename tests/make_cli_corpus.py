"""Write cli_corpus.json, the recorded output of a fixed list of CLI requests.

    PYTHONPATH=src python tests/make_cli_corpus.py

The requests are every subcommand and its variants, the README examples and
the warm-CLI cases, seeded random draws at small sizes (fringe scans of at
most 64 steps, potential profiles of at most 50), the usage (exit 1) and
domain (exit 2) errors, and the argv forms the parse reads.  The draws
come from a fixed seed, so a rewrite changes only the entries whose output
changed.  test_cli_corpus.py replays the file.

On stderr it lists every entry added, removed or changed against the file
it replaces, by argv, with the lines removed and added in each stream.
"""

import difflib
import json
import math
import random
import shlex
import sys

from test_cli_corpus import CORPUS, STREAMS, record
from test_warm_cli import WARM_CASES

C = 299792458.0
PROFILES = ("paper", "modern")


def _f(x: float) -> str:
    """Shortest decimal that round-trips, so argv parses to the same double."""
    return repr(float(x))


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _subcommands():
    help_of = [[], ["speed"], ["fringe"], ["sensitivity"], ["abphase"], ["proca"],
               ["proca", "bound"], ["proca", "potential"], ["proca", "phase"], ["bounds"],
               ["pmomentum"], ["constants"]]
    yield from ([*words, "--help"] for words in help_of)
    yield ["--version"]
    for profile in PROFILES:
        yield ["--profile", profile, "--version"]
        for system in ("si", "gaussian"):
            yield ["--profile", profile, "constants", "--system", system]
        yield ["--profile", profile, "proca", "bound", "--V-volts", "1e7", "--tau-s", "5e-2",
               "--R-cm", "27", "--epsilon", "1e-4"]
    yield ["constants"]
    for fmt in ("json", "text"):
        yield ["bounds", "--format", fmt]
    yield ["bounds"]
    for mode in ("fresnel", "effective", "einstein", "tangherlini"):
        yield ["speed", "--mode", mode, "--n", "1.33", "--u-mps", "-10", "--ef", "0.5"]
    yield ["speed", "--mode", "fresnel", "--n", "1.5"]
    # fringe and sensitivity, and their defaults
    yield ["fringe", "--L-m", "2", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "3e4",
           "--lambda-nm", "633", "--steps", "6"]
    yield ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
           "--lambda-nm", "633"]
    yield ["sensitivity", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
           "--lambda-nm", "633", "--resolution", "1e-3", "--ef", "0.5"]
    for variant in ("quarter", "half"):
        yield ["proca", "potential", "--V-volts", "1e7", "--R-cm", "10", "--m-gamma-inv-cm", "20",
               "--steps", "6", "--variant", variant]
    yield ["proca", "phase", "--V-volts", "1e7", "--tau-s", "5e-2", "--R-cm", "27",
           "--rho-cm", "13.5", "--m-gamma-inv-cm", "3.72e13"]
    square = "[[1,-1,0],[1,1,0],[-1,1,0],[-1,-1,0],[1,-1,0]]"
    for field in ('{"kind": "uniform_q", "params": {"q": [1, 2, 3]}}',
                  '{"kind": "fresnel_flow", "params": {"omega_rad_s": 3e15, "n": 1.5, '
                  '"u_mps": [10, 0, 0]}}',
                  '{"kind": "solenoid", "params": {"flux_wb": 2.067e-15}}'):
        yield ["abphase", "--field", field, "--path", square]
    # the line runs along z: a line along -z is this one on the reversed path
    yield ["abphase", "--field", '{"kind": "solenoid", "params": {"flux_wb": 2.067e-15, '
           '"coupling": 1e15, "center_m": [0.5, 0, 0]}}',
           "--path", "[[1,-1,0],[-1,-1,0],[-1,1,0],[1,1,0],[1,-1,0]]"]
    # a bore shorter than d: its coarse level sums the kept share directly
    for geometry, levels in (('{"a_cm": 1, "B_gauss": 100, "d_cm": 3, "q_esu": 1, '
                              '"lambda_cm": 150, "grid": [4, 4, 8]}', "2"),
                             ('{"a_cm": 1, "B_gauss": 100, "d_cm": 1.0001, "q_esu": 1}',
                              "5"),
                             ('{"a_cm":1,"B_gauss":100,"d_cm":3,"q_esu":1,"lambda_cm":2}', "2")):
        yield ["pmomentum", "--geometry", geometry, "--levels", levels]


def _fringe(rng, steps, u):
    n1 = rng.uniform(1.0001, 1.5)
    n2 = rng.uniform(1.0, n1 - 1e-5)
    if rng.random() < 0.5:
        n1, n2 = n2, n1
    ef = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.999)
    return ["--profile", rng.choice(PROFILES), "fringe", "--L-m", _f(_loguniform(rng, 0.1, 10)),
            "--n1", _f(n1), "--n2", _f(n2), f"--u-mps={_f(u)}",
            "--lambda-nm", _f(rng.uniform(400, 1000)), "--ef", _f(ef),
            "--composition", rng.choice(("einstein", "tangherlini")), "--steps", str(steps)]


def _draws(rng):
    """Requests shaped like the benchmark's cold passes, at small sizes."""
    def sign():
        return rng.choice((-1.0, 1.0))

    for _ in range(28):
        yield _fringe(rng, rng.randint(2, 64), sign() * _loguniform(rng, 1e-3, 1e5))
    for _ in range(4):  # drifts up to two thirds of c
        yield _fringe(rng, rng.randint(2, 64), sign() * _loguniform(rng, 1e5, 2e8))
    for _ in range(12):
        R_cm = _loguniform(rng, 1.0, 30.0)
        yield ["proca", "potential", "--V-volts", _f(_loguniform(rng, 1e3, 1e7)),
               "--R-cm", _f(R_cm), "--m-gamma-inv-cm", _f(R_cm / _loguniform(rng, 1e-3, 50)),
               "--steps", str(rng.randint(2, 50)),
               "--variant", rng.choice(("quarter", "half"))]
    for _ in range(12):
        yield ["speed", "--mode", rng.choice(("fresnel", "effective", "einstein", "tangherlini")),
               "--n", _f(rng.uniform(1.0, 2.0)), "--u-mps", _f(sign() * _loguniform(rng, 1, 1e5)),
               "--ef", _f(rng.uniform(0.0, 1.0))]
    for _ in range(6):
        yield ["sensitivity", "--L-m", _f(_loguniform(rng, 0.1, 10)),
               "--n1", _f(rng.uniform(1.0001, 1.5)), "--n2", _f(rng.uniform(1.0, 1.0001)),
               "--u-mps", _f(_loguniform(rng, 1, 1e5)), "--lambda-nm", _f(rng.uniform(400, 1000)),
               "--resolution", _f(_loguniform(rng, 1e-4, 1e-2)), "--ef", _f(rng.uniform(0, 0.9))]
    for _ in range(8):
        R_cm = _loguniform(rng, 1.0, 100.0)
        yield ["--profile", rng.choice(PROFILES), "proca", "bound",
               "--V-volts", _f(_loguniform(rng, 1e3, 1e8)),
               "--tau-s", _f(_loguniform(rng, 1e-3, 1.0)), "--R-cm", _f(R_cm),
               "--epsilon", _f(_loguniform(rng, 1e-6, 1e-2))]
        yield ["--profile", rng.choice(PROFILES), "proca", "phase",
               "--V-volts", _f(_loguniform(rng, 1e3, 1e8)),
               "--tau-s", _f(_loguniform(rng, 1e-3, 1.0)), "--R-cm", _f(R_cm),
               "--rho-cm", _f(rng.uniform(0.0, 0.9) * R_cm),
               "--m-gamma-inv-cm", _f(_loguniform(rng, 1e6, 1e14))]
    for _ in range(4):
        path = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(rng.randint(2, 12))]
        fields = [{"kind": "uniform_q",
                   "params": {"q": [sign() * _loguniform(rng, 1, 1e6) for _ in range(3)]}},
                  {"kind": "fresnel_flow",
                   "params": {"omega_rad_s": _loguniform(rng, 1e14, 5e15),
                              "n": rng.uniform(1.0, 2.0),
                              "u_mps": [rng.uniform(-100, 100) for _ in range(3)]}},
                  {"kind": "solenoid",
                   "params": {"flux_wb": _loguniform(rng, 1e-16, 1e-13),
                              "center_m": [rng.uniform(-1, 1) for _ in range(3)]}}]
        for field in fields:
            yield ["--profile", rng.choice(PROFILES), "abphase", "--field", json.dumps(field),
                   "--path", json.dumps(path)]
    for _ in range(6):
        a = rng.uniform(0.5, 2.0)
        geometry = {"a_cm": a, "B_gauss": _loguniform(rng, 1, 1e4),
                    "d_cm": a * rng.uniform(1.2, 5.0), "q_esu": _loguniform(rng, 0.1, 10)}
        yield ["pmomentum", "--geometry", json.dumps(geometry)]


def _errors():
    # exit 1: usage errors
    yield []
    yield ["nosuch"]
    yield ["proca"]
    yield ["speed", "--mode", "nope", "--n", "1.5"]
    yield ["speed", "--mode", "einstein", "--n", "1.5", "-3e4"]
    yield ["fringe", "--lam", "633"]
    yield ["fringe", "--steps", "2.5"]
    yield ["fringe", "--L-m", "1", "--n1", "1.0006", "--u-mps", "1e3", "--lambda-nm", "633"]
    # the device comes from flags alone
    yield ["fringe", "--config", "f.json"]
    # a flag has one name, which carries its unit: a wavelength is required
    # in nanometers, and --lambda (meters) and the short names are unknown
    base = ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
            "--lambda-nm", "633"]
    yield base[:-2]
    yield [*base, "--lambda", "6.33e-7"]
    yield ["speed", "--mode", "einstein", "--n", "1.5", "--u", "1e3"]
    # exit 2: one JSON line on stderr
    for steps in ("0", "1", "-3", "10000001"):
        yield [*base, "--steps", steps]
    yield [*base, "--composition", "einstein", "--ef", "1.5"]
    yield ["fringe", "--L-m", "1", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "nan",
           "--lambda-nm", "633", "--steps", "8"]
    for u in ("199861638.66666666", "2.5e8"):  # the drift reaches the light in arm 1
        yield ["fringe", "--L-m", "1", "--n1", "1.5", "--n2", "1.0", "--u-mps", u,
               "--lambda-nm", "633"]
    yield ["fringe", "--L-m", "1e300", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1e3",
           "--lambda-nm", "1e-300", "--steps", "32"]
    # a scan of more than one block is checked before any of it is written
    yield ["fringe", "--L-m", "1e308", "--n1", "1.5", "--n2", "1.0", "--u-mps", "1e3",
           "--lambda-nm", "633", "--steps", "5000"]
    # c/n1 at half an ulp of u_eff: a lab speed rounds to 0 at some angles
    yield ["fringe", "--L-m", "1", "--n1", _f(C * 2.0 ** 30), "--n2", "1", "--ef", "1",
           "--u-mps", _f(2.0 ** 24 - 2.0 ** -29), "--lambda-nm", "589", "--steps", "8"]
    yield ["speed", "--mode", "einstein", "--n", "nan", "--u-mps", "10"]
    yield ["speed", "--mode", "einstein", "--n", "0.5"]
    yield ["sensitivity", "--L-m", "0", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "1000",
           "--lambda-nm", "633", "--resolution", "1e-3"]
    yield ["sensitivity", "--L-m", "1", "--n1", "1.0003", "--n2", "1.0003", "--u-mps", "1000",
           "--lambda-nm", "633", "--resolution", "1e-3"]
    yield ["proca", "potential", "--V-volts", "1e7", "--R-cm", "10",
           "--m-gamma-inv-cm", "0", "--steps", "5"]
    yield ["proca", "potential", "--V-volts", "1e7", "--R-cm", "1e300",
           "--m-gamma-inv-cm", "1e-300", "--steps", "5"]
    yield ["proca", "bound", "--V-volts", "nan", "--tau-s", "0.05", "--R-cm", "27",
           "--epsilon", "1e-4"]
    # epsilon above kappa V tau = 1.5e-3 rad, the largest phase any photon mass gives
    yield ["proca", "bound", "--V-volts", "1e-12", "--tau-s", "1e-6", "--R-cm", "27",
           "--epsilon", "1"]
    yield ["pmomentum", "--geometry",
           '{"a_cm": 1.0, "B_gauss": 100.0, "d_cm": 3.0, "q_esu": 1.0, "grid": [2, 2, 2]}']
    yield ["pmomentum", "--geometry", '{"a_cm": 1, "B_gauss": 100, "d_cm": 3}']
    yield ["pmomentum", "--geometry", '{"a_cm": 1,']
    yield ["abphase", "--field", '{"kind": "uniform_q", "params": {"q": [1.0, 2.0, 3.0]}}',
           "--path", "[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]"]
    yield ["abphase", "--field", '{"kind": "nosuch"}', "--path", "[[0, 0, 0], [1, 1, 1]]"]
    # a payload that is no JSON object, and a key no field kind takes
    yield ["pmomentum", "--geometry", "[1]"]
    yield ["abphase", "--field", "[1]", "--path", "[[0, 0, 0], [1, 1, 1]]"]
    yield ["abphase", "--field", '{"kind": "uniform_q", "params": [1]}',
           "--path", "[[0, 0, 0], [1, 1, 1]]"]
    yield ["abphase", "--field", '{"kind": "solenoid", "params": {"flux_wb": 2.067e-15, '
           '"axis": [0, 0, -1]}}', "--path", "[[1,-1,0],[1,1,0],[-1,1,0]]"]
    # JSON nested deeper than the decoder's recursion limit
    yield ["abphase", "--field", "[" * 5000 + "]" * 5000, "--path", "[[0, 0, 0], [1, 1, 1]]"]


def _parse_forms():
    """The argv forms the flag table's parse reads: both forms of a value,
    a repeated flag, a value that starts with "-", and "--" as a value."""
    yield ["speed", "--mode", "einstein", "--n", "1.5", "--u-mps=-3e4"]
    yield ["--profile=modern", "constants"]
    # the flags whose unit is a second word, in the --flag=value form
    yield ["speed", "--mode", "fresnel", "--n", "1.33", "--u-mps=-1E3"]
    yield ["fringe", "--L-m=2", "--n1", "1.0006", "--n2", "1.0001", "--u-mps", "3e4",
           "--lambda-nm=633", "--steps", "4"]
    yield ["proca", "bound", "--V-volts=1e7", "--tau-s=5e-2", "--R-cm", "27", "--epsilon", "1e-4"]
    # exit 2: the flag parses, and the finiteness check refuses it
    yield ["speed", "--mode", "einstein", "--n", "1.5", "--u-mps", "-inf"]
    # a repeated flag keeps its last value
    yield ["speed", "--mode", "einstein", "--n", "1.5", "--u-mps", "1e3", "--u-mps", "2e3"]
    # exit 1: a value that starts with "-" and is no number
    yield ["speed", "--mode", "einstein", "--n", "-abc"]
    # "--flag=--" gives the flag the value "--": a number refuses it (exit 1),
    # and a payload flag reads it as a file name (exit 2)
    yield ["proca", "bound", "--V-volts", "1e7", "--tau-s", "0.05", "--R-cm", "27",
           "--epsilon=--"]
    yield ["abphase", "--field=--", "--path=[[0, 0, 0], [1, 1, 1]]"]
    # "--" where a subcommand is expected is read as its word, unless it is
    # the last token: then the subcommand is missing
    yield ["--", "speed", "--mode", "einstein", "--n", "1.5"]
    yield ["proca", "--"]


def requests() -> list:
    seen, unique = set(), []
    for argv in [*WARM_CASES, *_subcommands(), *_draws(random.Random("cli-corpus")),
                 *_errors(), *_parse_forms()]:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            unique.append(argv)
    return unique


def _dump(entries) -> str:
    """JSON with one line per argv and per output line, so that a diff of
    two corpora shows the lines that changed."""
    def text(value):
        return json.dumps(value, ensure_ascii=False)

    blocks = []
    for entry in entries:
        fields = [f'"argv": {text(entry["argv"])}', f'"exit": {entry["exit"]}']
        for name in STREAMS:
            lines = ",\n  ".join(map(text, entry[name]))
            fields.append(f'"{name}": [\n  {lines}]')
        blocks.append("{" + ",\n ".join(fields) + "}")
    return "[\n" + ",\n".join(blocks) + "\n]\n"


def _lines(stream) -> int:
    """The number of lines of a stream recorded as str.split("\n") gives it."""
    return len("\n".join(stream).splitlines())


def _changes(old, new):
    """One line per entry added, removed or changed from old to new."""
    before = {tuple(entry["argv"]): entry for entry in old}
    after = {tuple(entry["argv"]): entry for entry in new}
    for argv, entry in after.items():
        if argv not in before:
            counts = ", ".join(f"{name} {_lines(entry[name])}" for name in STREAMS)
            yield f"added: {shlex.join(argv)}  exit {entry['exit']}, lines: {counts}"
            continue
        was = before[argv]
        parts = [] if was["exit"] == entry["exit"] else [f"exit {was['exit']} -> {entry['exit']}"]
        for name in STREAMS:
            opcodes = difflib.SequenceMatcher(None, was[name], entry[name]).get_opcodes()
            removed = sum(i2 - i1 for tag, i1, i2, _, _ in opcodes if tag != "equal")
            added = sum(j2 - j1 for tag, _, _, j1, j2 in opcodes if tag != "equal")
            if removed or added:
                parts.append(f"{name} -{removed} +{added}")
        if parts:
            yield f"changed: {shlex.join(argv)}  {', '.join(parts)}"
    for argv in before:
        if argv not in after:
            yield f"removed: {shlex.join(argv)}"


def main():
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    new = [record(argv) for argv in requests()]
    CORPUS.write_text(_dump(new), encoding="utf-8")
    changes = list(_changes(old, new))
    for line in changes:
        print(line, file=sys.stderr)
    print(f"{len(changes)} entries added, removed or changed; {len(new)} entries, "
          f"{len(old)} before", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Parsing of CLI output into the shape the oracle compares against.

Standard library only.
"""

from __future__ import annotations

import json
import math
import re

TABLE_HEADER = ["source", "m_gamma_inv_cm", "m_ph_g"]


def parse_output(fmt: str, text: str, sample=()):
    """Parse stdout of a request; raises ValueError when it does not parse.

    JSON must be exactly one line of finite numbers.  The ``bounds`` text
    table parses to the rows of its JSON form.  CSV is summarised: header,
    row count, rows that do not hold one finite float per column, and the
    rows whose indices are in ``sample``."""
    if fmt == "json":
        if not text.endswith("\n") or text.count("\n") != 1:
            raise ValueError("JSON output is not exactly one line")
        return json.loads(text, parse_constant=_reject_constant)
    if fmt == "text":
        lines = text.splitlines()
        if not lines or re.split(r"\s{2,}", lines[0].strip()) != TABLE_HEADER:
            raise ValueError("unexpected table header")
        rows = []
        for line in lines[1:]:
            cells = re.split(r"\s{2,}", line.strip())
            if len(cells) != 3:
                raise ValueError(f"table row {line!r} does not have 3 columns")
            rows.append({"source": cells[0], "m_gamma_inv_cm": _float(cells[1]),
                         "m_ph_g": _float(cells[2])})
        return rows
    return summarize_csv(text, sample)


def summarize_csv(text: str, sample) -> dict:
    """Every row must hold one number per column, in plain float syntax:
    digits, sign, point and exponent only (so no nan or inf), which the
    program's .17g formatting always gives.  Only the sampled rows are
    converted to floats."""
    if not text.endswith("\n"):
        raise ValueError("CSV output does not end with a newline")
    head, _, body = text.partition("\n")
    header = head.split(",")
    lines = body.split("\n")
    lines.pop()
    commas = len(header) - 1
    numeric = _NUMERIC.fullmatch(body) is not None
    bad = {i for i, line in enumerate(lines)
           if line.count(",") != commas or not (numeric or _NUMERIC.fullmatch(line))}
    rows = {}
    for i in sample:
        if i < len(lines) and i not in bad:
            try:
                rows[i] = [_float(c) for c in lines[i].split(",")]
            except ValueError:
                bad.add(i)
    return {"header": header, "n_rows": len(lines), "bad_rows": len(bad), "rows": rows}


_NUMERIC = re.compile(r"[0-9eE+\-.,\n]*")


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")

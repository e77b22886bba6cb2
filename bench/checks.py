"""Output checks for the benchmark's operations.

Every check returns a list of problems; an empty list means the output is
correct.  The checks rest on facts that hold for every correct answer:

* nu(e) satisfies  p*nu(e) <= nu(e+1) <= p*nu(e) + p - 1;
* the printed bracket is (max nu(e)/p^e, min (nu(e)+1)/p^e];
* the threshold, where the workload knows it, lies in that bracket, and a
  certified value equals it;
* the CSV and JSON reports of one scan agree row by row.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_NU_LINE = re.compile(r"^nu\((\d+)\) = (\d+)$", re.M)
_BRACKET_LINE = re.compile(r"^bracket: \((\S+), (\S+)\]$", re.M)


def nu_problems(p: int, nu: list[int]) -> list[str]:
    problems = []
    for e in range(len(nu) - 1):
        if not p * nu[e] <= nu[e + 1] <= p * nu[e] + p - 1:
            problems.append(f"p={p}: nu({e + 1})={nu[e]}, nu({e + 2})={nu[e + 1]} break p*nu <= nu' <= p*nu+p-1")
    return problems


def nu_bracket(p: int, nu: list[int]) -> tuple[Fraction, Fraction]:
    lo = max(Fraction(v, p ** (e + 1)) for e, v in enumerate(nu))
    hi = min(Fraction(v + 1, p ** (e + 1)) for e, v in enumerate(nu))
    return lo, hi


def check_row(p: int, row: dict, fpt: Fraction, e_max: int, certs: list[dict]) -> list[str]:
    """One non-error JSON row of a scan against the known threshold fpt."""
    nu = row.get("nu")
    if not nu or len(nu) != e_max:
        return [f"p={p}: expected {e_max} nu levels, got {nu}"]
    problems = nu_problems(p, nu)
    lo, hi = nu_bracket(p, nu)
    if (Fraction(row["bracket_low"]), Fraction(row["bracket_high"])) != (lo, hi):
        problems.append(f"p={p}: bracket {row['bracket_low']},{row['bracket_high']} does not follow from nu={nu}")
    if not lo < fpt <= hi:
        problems.append(f"p={p}: threshold {fpt} outside bracket ({lo}, {hi}]")
    claim = row["claim"]
    if claim == "CERTIFIED_EXACT":
        value = Fraction(row["value"])
        if value != fpt or not lo < value <= hi:
            problems.append(f"p={p}: certified value {value} is wrong (threshold {fpt}, bracket ({lo}, {hi}])")
        if not any(Fraction(c["lambda"]) == value and c["verified"] for c in certs):
            problems.append(f"p={p}: certified row without a matching certificate")
    elif claim == "LOWER_BOUND_ONLY":
        value = Fraction(row["value"])
        if value > fpt or value > hi:
            problems.append(f"p={p}: lower bound {value} exceeds threshold {fpt} or bracket end {hi}")
    elif claim != "BRACKET_ONLY":
        problems.append(f"p={p}: unexpected claim {claim}")
    return problems


def parse_csv(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "prime,kind,value_num,value_den,bracket_low,bracket_high,witness_flag":
        raise ValueError("bad CSV header")
    return [line.split(",") for line in lines[1:]]


def csv_problems(csv_text: str, doc: dict) -> list[str]:
    """The CSV report must say exactly what the JSON report says."""
    try:
        rows = parse_csv(csv_text)
    except ValueError as ex:
        return [str(ex)]
    if len(rows) != len(doc["rows"]):
        return [f"CSV has {len(rows)} rows, JSON {len(doc['rows'])}"]
    problems = []
    for fields, row in zip(rows, doc["rows"]):
        value = Fraction(row["value"]) if "value" in row else None
        expect = [
            str(row["prime"]),
            row["claim"],
            str(value.numerator) if value is not None else "",
            str(value.denominator) if value is not None else "",
            row.get("bracket_low", ""),
            row.get("bracket_high", ""),
            "true" if row.get("witness") else "false",
        ]
        if fields != expect:
            problems.append(f"CSV row {','.join(fields)} disagrees with JSON row {expect}")
    return problems


def check_scan(out, ctx: dict) -> list[str]:
    """A scan's reports: rows at exactly the requested primes,
    REDUCTION_ERROR exactly at ctx['bad'], every other row consistent with
    the threshold ctx['fpt'](p), and CSV equal to JSON."""
    if out.rc != 0:
        return [f"exit code {out.rc}: {out.stderr.strip()}"]
    try:
        doc = json.loads(out.files["scan.json"])
        csv_text = out.files["scan.csv"].decode()
    except (KeyError, ValueError) as ex:
        return [f"unreadable report: {ex}"]
    rows = {row["prime"]: row for row in doc["rows"]}
    if sorted(rows) != ctx["primes"]:
        return [f"scan rows cover primes {sorted(rows)}"]
    e_max = doc["config"]["e_max"]
    problems = []
    for p, row in rows.items():
        is_error = row["claim"] == "REDUCTION_ERROR"
        if is_error != (p in ctx["bad"]):
            problems.append(f"p={p}: claim {row['claim']}, coefficient primes {sorted(ctx['bad'])}")
        if is_error:
            continue
        certs = [c for c in doc["certificates"] if c["prime"] == p]
        problems += check_row(p, row, ctx["fpt"](p), e_max, certs)
    return problems + csv_problems(csv_text, doc)


def same_scan_output(first, second) -> list[str]:
    """--jobs must not change the reports (the JSON echoes the jobs value)."""
    if (first.rc, first.stdout) != (second.rc, second.stdout):
        return ["exit code or stdout differs between --jobs 1 and --jobs 2"]
    if first.files.get("scan.csv") != second.files.get("scan.csv"):
        return ["CSV differs between --jobs 1 and --jobs 2"]
    docs = []
    for out in (first, second):
        doc = json.loads(out.files["scan.json"])
        doc["config"].pop("jobs", None)
        docs.append(doc)
    if docs[0] != docs[1]:
        return ["JSON differs between --jobs 1 and --jobs 2"]
    return []


def bracket_nu(stdout: str) -> list[int]:
    return [int(v) for _, v in _NU_LINE.findall(stdout)]


def check_bracket(out, p: int, e: int, one: bool | None = None, exhausted: bool = False) -> list[str]:
    """`fptkit bracket` output.  one=True: the threshold is 1, so every
    nu(e) is p^e - 1; one=False: it is below 1.  exhausted: the budget must
    run out before level e, with exit code 5 and a note saying so."""
    want_rc = 5 if exhausted else 0
    if out.rc != want_rc:
        return [f"exit code {out.rc}, expected {want_rc}"]
    nu = bracket_nu(out.stdout)
    if [int(k) for k, _ in _NU_LINE.findall(out.stdout)] != list(range(1, len(nu) + 1)):
        return ["nu levels are not printed as 1, 2, ..."]
    if exhausted:
        if not 1 <= len(nu) < e or "note: term budget exhausted" not in out.stdout:
            return [f"expected the budget to run out before level {e}, got nu={nu}"]
    elif len(nu) != e:
        return [f"expected {e} nu levels, got {nu}"]
    problems = nu_problems(p, nu)
    lo, hi = nu_bracket(p, nu)
    match = _BRACKET_LINE.search(out.stdout)
    if match is None or (Fraction(match[1]), Fraction(match[2])) != (lo, hi):
        problems.append(f"printed bracket does not follow from nu={nu}")
    if one is True and nu != [p ** (k + 1) - 1 for k in range(len(nu))]:
        problems.append(f"threshold 1 expected, got nu={nu}")
    if one is False and hi >= 1:
        problems.append(f"threshold below 1 expected, bracket ends at {hi}")
    return problems


def _line_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key):
            return line[len(key):].strip()
    return None


def same_geometry(alpha_out, lct_out, newton_out) -> list[str]:
    """alpha (simplex), lct (vertex enumeration) and newton must agree on
    the threshold; alpha and newton on the minimal face."""
    if alpha_out is None or lct_out is None:
        return ["alpha or lct output missing"]
    values = {
        "alpha": _line_value(alpha_out.stdout, "alpha = "),
        "lct": _line_value(lct_out.stdout, "lct = "),
        "newton": _line_value(newton_out.stdout, "alpha = "),
    }
    if None in values.values() or len({Fraction(v) for v in values.values()}) != 1:
        return [f"thresholds disagree: {values}"]
    problems = []
    for key in ("diagonal position: ", "minimal face members"):
        if _line_value(alpha_out.stdout, key) != _line_value(newton_out.stdout, key):
            problems.append(f"alpha and newton disagree on '{key.strip(': ')}'")
    return problems

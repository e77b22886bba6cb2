"""Command-line surface.

Subcommands: alpha, lct, newton, nu, bracket, certify, theta, scan, primes.
Exit codes: 0 success, 2 parse error, 3 invalid monomial set, 4 failed
precondition (integrality, reduction, inapplicable hypothesis, a level whose
values could not be printed), 5 term budget exhausted, 6 I/O error.
Rationals print as reduced a/b, never as decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import charp, exactnum, parsing, polygeo, thresholds
from .charp import TermBudget
from .errors import (
    BudgetExceededError,
    FptError,
    IntegralityError,
    InvalidMonomialSetError,
    NotApplicableError,
    ParseError,
    ReductionError,
    SearchExhaustedError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_MONOMIALS = 3
EXIT_PRECONDITION = 4
EXIT_BUDGET = 5
EXIT_IO = 6

_fmt = exactnum.format_rational


def _point_text(point) -> str:
    return "(" + ", ".join(_fmt(x) for x in point) + ")"


def _print_minimal_face(ms: polygeo.MonomialSet) -> None:
    analysis = polygeo.newton_analysis(ms)
    members = ", ".join(
        parsing.monomial_text(ms.monomials[i], ms.num_vars)
        for i in analysis.lambda_members
    )
    print(f"diagonal position: {'yes' if analysis.diagonal_position else 'no'}")
    print(f"minimal face members ({len(analysis.lambda_members)}): {members}")


def cmd_alpha(args) -> int:
    ms = parsing.parse_monomials(args.monomials, num_vars=args.vars or None)
    mp = polygeo.maximal_points(ms)
    print(f"alpha = {_fmt(mp.threshold)}")
    print(f"unique maximal point: {'yes' if mp.unique else 'no'}")
    if mp.unique:
        print(f"maximal point: {_point_text(mp.point)}")
    _print_minimal_face(ms)
    return EXIT_OK


def cmd_lct(args) -> int:
    ms = parsing.parse_monomials(args.monomials, num_vars=args.vars or None)
    print(f"lct = {_fmt(polygeo.newton_threshold(ms))}")
    return EXIT_OK


def cmd_newton(args) -> int:
    ms = parsing.parse_monomials(args.monomials, num_vars=args.vars or None)
    if args.contains is not None:  # answered first, so a bad point prints nothing
        try:
            point = [exactnum.parse_rational(part) for part in args.contains.split(",")]
            inside = polygeo.newton_contains(ms, point)
        except ValueError as ex:
            raise ValueError(f"--contains: {ex}") from None
    print(f"alpha = {_fmt(polygeo.splitting_threshold(ms))}")
    _print_minimal_face(ms)
    if args.contains is not None:
        print(f"contains {_point_text(point)}: {'yes' if inside else 'no'}")
    return EXIT_OK


def _level_input(args) -> tuple[charp.FpPoly, TermBudget]:
    """The reduced polynomial and a fresh budget of a command at level -e;
    a level whose values could not be printed is refused first."""
    f = parsing.parse_polynomial(args.polynomial, num_vars=args.vars or None)
    fp = charp.reduce_mod_p(f, args.prime, preserve_support=not args.drop_support)
    exactnum.check_printable_level(args.prime, args.e, "-e")
    return fp, TermBudget(args.budget)


def cmd_nu(args) -> int:
    fp, budget = _level_input(args)
    if args.table:
        for e, v in enumerate(charp.nu_table(fp, args.e, budget), start=1):
            print(f"nu({e}) = {v}")
    else:
        print(charp.nu(fp, args.e, budget))
    return EXIT_OK


def cmd_bracket(args) -> int:
    fp, budget = _level_input(args)
    report = charp.bracket(fp, args.e, budget)
    for e, v in enumerate(report.nu_values, start=1):
        print(f"nu({e}) = {v}")
    if report.bracket is not None:
        lo, hi = report.bracket
        print(f"bracket: ({_fmt(lo)}, {_fmt(hi)}]")
    for note in report.notes:
        print(f"note: {note}")
    if report.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_certify(args) -> int:
    fp, budget = _level_input(args)
    try:
        lam = exactnum.parse_rational(args.lam)
    except ValueError as ex:
        raise ValueError(f"--lambda: {ex}") from None
    ok = charp.certify_lower(fp, lam, args.e, budget)
    if ok:
        print(f"PROVED fpt >= {_fmt(lam)}")
    else:
        print(f"PROVED fpt < {_fmt(lam)}")
    return EXIT_OK


def cmd_theta(args) -> int:
    ms = parsing.parse_monomials(args.monomials, num_vars=args.vars or None)
    theta = thresholds.theta_polynomial(ms, args.prime, args.e)
    print(f"theta(p={args.prime}, e={args.e}) = {theta.format()}")
    names = ", ".join(
        f"t{j + 1} = coefficient of {parsing.monomial_text(ms.monomials[i], ms.num_vars)}"
        for j, i in enumerate(theta.indices)
    )
    print(names)
    return EXIT_OK


def cmd_primes(args) -> int:
    ps = exactnum.primes_in_progression(args.modulus, args.count, args.ceiling)
    print(" ".join(str(p) for p in ps))
    return EXIT_OK


_CONFIG_KEYS = (
    "primes", "progression", "prime_range", "e_max", "budget", "csv", "json",
    "jobs", "preserve_support",
)


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected key=value", lineno, 1)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} on line {lineno}")
            values[key] = value.strip()
    return values


def _integers(name: str, value: str, count: int = 0) -> list[int]:
    """value as comma-separated integers, exactly count of them unless count
    is 0; anything else is a ValueError naming the flag or key."""
    try:
        out = [int(x) for x in value.split(",")]
    except ValueError:
        out = []
    if not out or count and len(out) != count:
        raise ValueError(f"invalid {name}: {value!r}")
    return out


def _scan_primes(args, config: dict) -> list[int]:
    # each prime spec's config key is also its flag's attribute name
    sources = [(k, getattr(args, k) or config.get(k)) for k in ("primes", "progression", "prime_range")]
    given = [(k, v) for k, v in sources if v]
    if len(given) != 1:
        raise ValueError(
            "exactly one of --primes, --progression, --prime-range is required"
        )
    kind, value = given[0]
    name = "--" + kind.replace("_", "-") if getattr(args, kind) else kind
    if kind == "primes":
        ps = _integers(name, value)
        bad = [p for p in ps if not exactnum.is_prime(p)]
        if bad:
            raise ValueError(f"not prime: {bad}")
        return ps
    if kind == "progression":
        d, count = _integers(name, value, 2)
        return exactnum.primes_in_progression(d, count)
    lo, hi = _integers(name, value, 2)
    return exactnum.primes_in_range(lo, hi)


def _setting(flag_value: int | None, config: dict, key: str, default: int) -> int:
    if flag_value is None and key in config:
        return _integers(key, config[key], 1)[0]
    return default if flag_value is None else flag_value


def cmd_scan(args) -> int:
    config = _load_config(args.config) if args.config else {}
    e_max = _setting(args.e_max, config, "e_max", 3)
    budget = _setting(args.budget, config, "budget", charp.DEFAULT_TERM_BUDGET)
    jobs = _setting(args.jobs, config, "jobs", 1)
    csv_path = args.csv or config.get("csv")
    json_path = args.json or config.get("json")
    keep = config.get("preserve_support", "true").lower()
    if keep not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(
            f"preserve_support must be true/false/yes/no/1/0, got {config['preserve_support']!r}"
        )
    preserve = not args.drop_support and keep in ("true", "yes", "1")
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max}")
    if budget < 10**4:
        raise ValueError(f"budget must be at least 10^4, got {budget}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    primes = _scan_primes(args, config)
    if primes:
        flag = "--e-max" if args.e_max is not None else "e_max"
        exactnum.check_printable_level(max(primes), e_max, flag)

    f = parsing.parse_polynomial(args.polynomial, num_vars=args.vars or None)
    rows = thresholds.dense_fpurity_scan(
        f,
        primes,
        e_max=e_max,
        budget_limit=budget,
        preserve_support=preserve,
        jobs=jobs,
    )
    csv_text = thresholds.scan_csv_text(rows)
    try:
        if csv_path:
            with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
        if json_path:
            config_echo = {
                "primes": sorted(set(primes)),
                "e_max": e_max,
                "budget": budget,
                "preserve_support": preserve,
                "jobs": jobs,
            }
            doc = thresholds.scan_json_document(args.polynomial, config_echo, rows)
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_IO
    if not csv_path and not json_path:
        sys.stdout.write(csv_text)
    return EXIT_OK


@functools.cache  # on the first main call, not at import; every later call reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptkit",
        description="Exact F-pure thresholds of polynomials over finite fields "
        "and log canonical thresholds of monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_vars(p):
        p.add_argument(
            "--vars",
            type=int,
            default=0,
            help="number of ambient variables (default: inferred from the input)",
        )

    p = sub.add_parser("alpha", help="threshold of a monomial ideal via the splitting polytope")
    p.add_argument("monomials")
    add_vars(p)

    p = sub.add_parser("lct", help="log canonical threshold via the Newton polyhedron")
    p.add_argument("monomials")
    add_vars(p)

    p = sub.add_parser("newton", help="minimal face and diagonal-position analysis")
    p.add_argument("monomials")
    add_vars(p)
    p.add_argument("--contains", help="rational point 'a,b,...' to test for membership "
                   "(a leading minus needs '=', as in --contains=-1,5)")

    def add_poly_opts(p):
        p.add_argument("polynomial")
        p.add_argument("-p", "--prime", type=int, required=True)
        add_vars(p)
        p.add_argument("--budget", type=int, default=charp.DEFAULT_TERM_BUDGET)
        p.add_argument(
            "--drop-support",
            action="store_true",
            help="drop terms whose coefficients vanish mod p instead of failing",
        )

    p = sub.add_parser("nu", help="largest power of f outside the level-e Frobenius power")
    add_poly_opts(p)
    p.add_argument("-e", type=int, required=True)
    p.add_argument("--table", action="store_true", help="print all levels up to e")

    p = sub.add_parser("bracket", help="two-sided threshold bracket up to a level")
    add_poly_opts(p)
    p.add_argument("-e", type=int, required=True, help="largest level to compute")

    p = sub.add_parser("certify", help="prove fpt >= lambda or fpt < lambda at a level")
    add_poly_opts(p)
    p.add_argument("--lambda", dest="lam", required=True, help="rational a/b in [0,1]")
    p.add_argument("-e", type=int, required=True)

    p = sub.add_parser("theta", help="leading coefficient polynomial on the minimal face")
    p.add_argument("monomials")
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("-e", type=int, required=True)
    add_vars(p)

    p = sub.add_parser("scan", help="per-prime threshold reports with certificates")
    p.add_argument("polynomial")
    add_vars(p)
    p.add_argument("--primes", help="explicit comma-separated primes")
    p.add_argument("--progression", help="d,count: smallest count primes = 1 mod d")
    p.add_argument("--prime-range", help="lo,hi: all primes in [lo, hi]")
    p.add_argument("--e-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--csv", help="write CSV report here")
    p.add_argument("--json", help="write JSON report here")
    p.add_argument("--jobs", type=int, default=None, help="worker pool size")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--drop-support", action="store_true")

    p = sub.add_parser("primes", help="smallest primes congruent to 1 mod d")
    p.add_argument("-d", "--modulus", type=int, required=True)
    p.add_argument("-k", "--count", type=int, required=True)
    p.add_argument("--ceiling", type=int, default=exactnum.PRIME_SEARCH_CEILING)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so a cmd_* replaced after the parser was built runs
    commands = {
        "alpha": cmd_alpha, "lct": cmd_lct, "newton": cmd_newton, "nu": cmd_nu,
        "bracket": cmd_bracket, "certify": cmd_certify, "theta": cmd_theta,
        "scan": cmd_scan, "primes": cmd_primes,
    }
    try:
        return commands[args.command](args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidMonomialSetError as ex:
        print(f"invalid monomial set: {ex}", file=sys.stderr)
        return EXIT_BAD_MONOMIALS
    except (IntegralityError, NotApplicableError, ReductionError) as ex:
        print(f"not applicable: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as ex:
        print(f"budget exhausted: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except SearchExhaustedError as ex:
        print(f"search exhausted: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, FptError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line behaviour: outputs, exit codes, files, config handling."""

import hashlib
import json
import os
import pathlib
import re
import shlex
import time

import pytest

from fptkit import cli
from fptkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlphaLctNewton:
    def test_alpha_cusp(self, capsys):
        code, out, _ = run(capsys, "alpha", "x^2, y^3")
        assert code == 0
        assert "alpha = 5/6" in out
        assert "maximal point: (1/2, 1/3)" in out
        assert "diagonal position: yes" in out

    def test_alpha_conic(self, capsys):
        code, out, _ = run(capsys, "alpha", "x^2, y^2, x*y")
        assert code == 0
        assert "alpha = 1" in out
        assert "unique maximal point: no" in out

    def test_alpha_single(self, capsys):
        code, out, _ = run(capsys, "alpha", "x")
        assert code == 0 and "alpha = 1" in out

    def test_lct_matches_alpha(self, capsys):
        code, out, _ = run(capsys, "lct", "x^2, y^3")
        assert code == 0 and "lct = 5/6" in out

    def test_oversized_lct_exit_4(self, capsys):
        # 12 variables, 24 monomials: C(36, 12) - 1 vertex systems
        monomials = [f"x{i}^2" for i in range(1, 13)]
        monomials += [f"x{i}*x{i % 12 + 1}" for i in range(1, 13)]
        start = time.perf_counter()
        code, out, err = run(capsys, "lct", ", ".join(monomials))
        assert code == 4 and out == ""
        assert "would solve 1251677699 systems, over the cap of 200000" in err
        assert "alpha" in err
        assert time.perf_counter() - start < 5

    def test_newton_membership_query(self, capsys):
        code, out, _ = run(capsys, "newton", "x^2, y^3", "--contains", "6/5,6/5")
        assert code == 0 and "contains (6/5, 6/5): yes" in out

    def test_newton_negative_coordinate_is_outside(self, capsys):
        code, out, _ = run(capsys, "newton", "x^2, y^3", "--contains=-1,5")
        assert code == 0 and out.endswith("contains (-1, 5): no\n")

    def test_newton_with_declared_vars(self, capsys):
        code, out, _ = run(capsys, "newton", "x", "--vars", "2")
        assert code == 0 and "diagonal position: no" in out

    @pytest.mark.parametrize(
        "point, message",
        [
            ("1/0,1", "zero denominator"),
            ("1", "point has 1 coordinates, expected 2"),
            ("", "Invalid literal for Fraction: ''"),  # --contains= is not ignored
        ],
    )
    def test_newton_bad_point_exit_4_prints_nothing(self, capsys, point, message):
        code, out, err = run(capsys, "newton", "x^2, y^3", f"--contains={point}")
        assert code == 4 and out == ""
        assert message in err

    def test_bad_contains_names_its_flag(self, capsys):
        code, out, err = run(capsys, "newton", "x^2, y^3", "--contains=")
        assert code == 4 and out == ""
        assert err == "error: --contains: Invalid literal for Fraction: ''\n"

    def test_invalid_monomials_exit_3(self, capsys):
        code, _, err = run(capsys, "alpha", "x^2, x^2")
        assert code == 3 and "duplicate" in err


def _readme_command_block():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


_ARROW = re.compile(r"fptkit (.*?)\s+# -> (.*)")


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "line", [line for line in _readme_command_block() if _ARROW.match(line)]
    )
    def test_arrow_line(self, capsys, line):
        argv, expected = _ARROW.match(line).groups()
        code, out, _ = run(capsys, *shlex.split(argv))
        # the documented text is a whole output line or the value ending one
        assert code == 0
        assert any(got == expected or got.endswith(" " + expected) for got in out.splitlines())

    def test_every_arrow_line_is_collected(self):
        assert sum(bool(_ARROW.match(line)) for line in _readme_command_block()) == 6

    def test_alpha_block(self, capsys):
        lines = _readme_command_block()
        start = next(i for i, line in enumerate(lines) if line.startswith("fptkit alpha "))
        documented = []
        for line in lines[start + 1 :]:
            if not line.startswith("#   "):
                break
            documented.append(line[4:])
        code, out, _ = run(capsys, *shlex.split(lines[start])[1:])
        assert code == 0 and len(documented) == 5
        assert out.splitlines() == documented


class TestNuBracketCertify:
    def test_nu_value(self, capsys):
        code, out, _ = run(capsys, "nu", "x^2+y^3", "-p", "5", "-e", "1")
        assert code == 0 and out.strip() == "3"

    def test_nu_table(self, capsys):
        code, out, _ = run(capsys, "nu", "x^2+y^3", "-p", "5", "-e", "2", "--table")
        assert code == 0
        assert out.splitlines() == ["nu(1) = 3", "nu(2) = 19"]

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", "x^2+y^3", "-p", "5", "-e", "3")
        assert code == 0
        assert "bracket: (99/125, 4/5]" in out

    def test_certify_positive(self, capsys):
        code, out, _ = run(
            capsys, "certify", "x^2+y^3", "-p", "7", "--lambda", "5/6", "-e", "1"
        )
        assert code == 0 and "PROVED fpt >= 5/6" in out

    def test_certify_negative(self, capsys):
        code, out, _ = run(
            capsys, "certify", "x^2+y^3", "-p", "7", "--lambda", "1", "-e", "1"
        )
        assert code == 0 and "PROVED fpt < 1" in out

    def test_certify_trivial(self, capsys):
        code, out, _ = run(capsys, "certify", "x", "-p", "3", "--lambda", "1", "-e", "1")
        assert code == 0 and "PROVED fpt >= 1" in out

    def test_integrality_exit_4(self, capsys):
        code, _, err = run(
            capsys, "certify", "x^2+y^3", "-p", "5", "--lambda", "5/6", "-e", "1"
        )
        assert code == 4 and "not an integer" in err

    @pytest.mark.parametrize(
        "command, prime", [("nu", "4"), ("bracket", "0"), ("bracket", "1")]
    )
    def test_non_prime_exit_4(self, capsys, command, prime):
        code, out, err = run(capsys, command, "x^2+y^3", "-p", prime, "-e", "1")
        assert code == 4 and out == ""
        assert f"base must be prime, got {prime}" in err

    def test_mersenne_prime_runs_to_the_budget(self, capsys):
        # p = 2^61 - 1 is decided by Miller-Rabin; the term budget then ends nu
        start = time.perf_counter()
        code, out, err = run(
            capsys, "nu", "x+y", "-p", str(2**61 - 1), "-e", "1", "--budget", "10000"
        )
        assert code == 5 and out == "" and "budget" in err
        assert time.perf_counter() - start < 5

    def test_readme_exhaustion_line(self, capsys):
        # the budget paragraph of README quotes this line word for word
        line = (
            "budget exhausted: term budget exhausted (5000293 > 5000000)"
            " at p=2, level e=15, exponent a=16383"
        )
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        assert line in " ".join(readme.read_text(encoding="utf-8").split())
        start = time.perf_counter()
        code, out, err = run(capsys, "nu", "x^2+y^3", "-p", "2", "-e", "5000")
        assert code == 5 and out == "" and err == line + "\n"
        assert time.perf_counter() - start < 10

    def test_prime_past_primality_limit_exit_4(self, capsys):
        code, out, err = run(
            capsys, "nu", "x+y", "-p", "318665857834031151167461", "-e", "1"
        )
        assert code == 4 and out == ""
        assert "decided exactly only below 318665857834031151167461" in err

    def test_zero_denominator_lambda_exit_4(self, capsys):
        code, out, err = run(
            capsys, "certify", "x^2+y^3", "-p", "7", "--lambda", "1/0", "-e", "1"
        )
        assert code == 4 and out == ""
        assert "zero denominator" in err

    def test_bad_lambda_names_its_flag(self, capsys):
        code, out, err = run(
            capsys, "certify", "x^2+y^3", "-p", "7", "--lambda", "abc", "-e", "1"
        )
        assert code == 4 and out == ""
        assert err == "error: --lambda: Invalid literal for Fraction: 'abc'\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("newton", "x^2, y^3", "--contains=1e30000000,1"), "--contains"),
            (("certify", "x^2+y^3", "-p", "7", "--lambda", "1e-30000000", "-e", "1"), "--lambda"),
        ],
    )
    def test_exponent_notation_exit_4_at_once(self, capsys, argv, flag):
        # a rational is a/b or an integer: reading 1e30000000 as a number
        # would build a 30-million-digit integer before any check
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert err.startswith(f"error: {flag}: Invalid literal for Fraction: ")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("newton", "x^2, y^3", "--contains=" + "1" * 5000 + ",1"), "--contains"),
            (("certify", "x^2+y^3", "-p", "7", "--lambda", "1/" + "1" * 5000, "-e", "1"), "--lambda"),
        ],
    )
    def test_rational_past_4300_digits_exit_4(self, capsys, argv, flag):
        # refused in fptkit's words, not with CPython's hint to raise its limit
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith(f"error: {flag}: ") and "at most 4300" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("text", ["x^²+y", "x²+y"])
    def test_superscript_digit_exit_2(self, capsys, text):
        code, out, err = run(capsys, "nu", text, "-p", "5", "-e", "1")
        assert code == 2 and out == ""
        assert "parse error" in err and "(line 1, column" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "nu", "x^2+", "-p", "5", "-e", "1")
        assert code == 2 and "parse error" in err

    def test_budget_exit_5(self, capsys):
        code, _, err = run(
            capsys, "nu", "x^2+y^3", "-p", "13", "-e", "3", "--budget", "100"
        )
        assert code == 5 and "budget" in err

    def test_huge_level_budget_by_key_size_exit_5(self, capsys):
        # at level 5000 each key holds two 5002-bit fields, 157 words a term,
        # so the budget runs out after some 32000 terms, not 5 million
        start = time.perf_counter()
        code, out, err = run(capsys, "nu", "x^2+y^3", "-p", "2", "-e", "5000")
        assert code == 5 and out == "" and "budget" in err
        # the message says where the work stopped: f^16383 at level 15
        assert err.endswith(") at p=2, level e=15, exponent a=16383\n")
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["nu", "x", "-p", "2", "-e", "100000"], "-e 100000 at p=2"),
            (["nu", "x", "-p", "2", "-e", "14285"], "-e 14285 at p=2"),
            (["bracket", "x+y", "-p", "2", "-e", "15000"], "-e 15000 at p=2"),
            (["scan", "x+y", "--primes", "3,2", "--e-max", "9100"], "--e-max 9100 at p=3"),
            # refused before theta computes p^e
            (["theta", "x^2", "-p", "7", "-e", "30000000"], "theta level 30000000 at p=7"),
            (["theta", "x^2", "-p", "7", "-e", "100000000"], "theta level 100000000 at p=7"),
        ],
    )
    def test_unprintable_level_exit_4_before_work(self, capsys, argv, named):
        # p^e past 10^4300: its values would pass the 4300-digit int-to-str limit
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert f"error: {named}: p^e passes 10^4300" in err
        assert time.perf_counter() - start < 3

    def test_last_printable_level_prints(self, capsys):
        # 2^14284 has 4300 digits, the most that still print
        code, out, _ = run(capsys, "nu", "x", "-p", "2", "-e", "14284")
        assert code == 0 and out == str(2**14284 - 1) + "\n"

    def test_bracket_partial_on_budget(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "x^2+y^3", "-p", "13", "-e", "3", "--budget", "60"
        )
        assert code == 5
        assert "nu(1) = 10" in out  # completed level still reported


class TestTheta:
    def test_theta_cusp(self, capsys):
        code, out, _ = run(capsys, "theta", "x^2, y^3", "-p", "7", "-e", "1")
        assert code == 0
        assert "theta(p=7, e=1) = 10*t1^3*t2^2" in out

    def test_theta_not_applicable_exit_4(self, capsys):
        code, _, err = run(capsys, "theta", "x^2, y^3", "-p", "2", "-e", "1")
        assert code == 4 and "not an integer" in err

    @pytest.mark.parametrize("prime,level", [("101", "2"), ("7", "6")])
    def test_unprintable_coefficients_exit_4_before_work(self, capsys, prime, level):
        # 3 members: 3^10200 at p=101, and a total of 117648 at p=7
        start = time.perf_counter()
        code, out, err = run(capsys, "theta", "x^2, y^2, x*y", "-p", prime, "-e", level)
        assert code == 4 and out == ""
        assert f"theta at p={prime}, e={level}:" in err and "could pass 10^4300" in err
        assert time.perf_counter() - start < 5

    def test_large_conic_theta_is_fast_and_unchanged(self, capsys):
        # 4001 points; the exact lattice search solves its last two columns in
        # closed form (about 1 s on a 2-CPU x86-64 VM, 5.6 s by the loop)
        start = time.perf_counter()
        code, out, _ = run(capsys, "theta", "x^2, y^2, x*y", "-p", "4001", "-e", "1")
        assert time.perf_counter() - start < 3
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "254799c0677114c925d80f4aa6ae9819af673553381e2f491b0784a6de9c071b"
        )

    def test_single_member_is_never_refused(self, capsys):
        code, out, _ = run(capsys, "theta", "x", "-p", "7", "-e", "6")
        assert code == 0 and out.startswith("theta(p=7, e=6) = t1^117648\n")


class TestParserReuse:
    ARGV = ("alpha", "x^2, y^3, x*y*z")

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_call_is_byte_identical(self, capsys):
        first = run(capsys, *self.ARGV)
        with pytest.raises(SystemExit) as usage:
            main(["alpha"])  # missing positional
        assert usage.value.code == 2
        capsys.readouterr()
        assert run(capsys, "theta", "x^2, y^3", "-p", "2", "-e", "1")[0] == 4
        assert run(capsys, *self.ARGV) == first
        assert first[0] == 0 and first[1].startswith("alpha = ")

    def test_command_replaced_after_build_is_the_one_run(self, capsys, monkeypatch):
        cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_alpha", lambda args: seen.append(args.monomials) or 7)
        assert run(capsys, *self.ARGV) == (7, "", "")
        assert seen == ["x^2, y^3, x*y*z"]


class TestPrimes:
    def test_progression(self, capsys):
        code, out, _ = run(capsys, "primes", "-d", "6", "-k", "3")
        assert code == 0 and out.strip() == "7 13 19"


class TestScanCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(
            capsys, "scan", "x^2+y^3", "--primes", "2,3,5,7,11,13", "--e-max", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("prime,kind,")
        assert lines[4] == "7,CERTIFIED_EXACT,5,6,285/343,286/343,true"

    def test_files_and_replayable_certificates(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        code, out, _ = run(
            capsys,
            "scan",
            "x^2+y^3",
            "--primes",
            "5,7",
            "--e-max",
            "2",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        )
        assert code == 0 and out == ""
        assert csv_path.read_text().startswith("prime,kind,")
        doc = json.loads(json_path.read_text())
        assert doc["input"] == "x^2+y^3"
        for cert in doc["certificates"]:
            replay_code, replay_out, _ = run(
                capsys,
                "certify",
                "x^2+y^3",
                "-p",
                str(cert["prime"]),
                "--lambda",
                cert["lambda"],
                "-e",
                str(cert["e"]),
            )
            assert replay_code == 0
            assert f"PROVED fpt >= {cert['lambda']}" in replay_out

    def test_byte_stability_across_jobs(self, capsys):
        args = ["scan", "x^2+y^3", "--primes", "2,3,5,7", "--e-max", "2"]
        _, first, _ = run(capsys, *args, "--jobs", "1")
        _, second, _ = run(capsys, *args, "--jobs", "4")
        assert first == second

    def test_forked_scan_files_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        files = {}
        for jobs in ("1", "2"):
            csv_path, json_path = tmp_path / f"scan{jobs}.csv", tmp_path / f"scan{jobs}.json"
            code, out, err = run(
                capsys, "scan", "x^2+y^3+x*y", "--prime-range", "2,60", "--e-max", "2",
                "--jobs", jobs, "--csv", str(csv_path), "--json", str(json_path),
            )
            assert (code, out, err) == (0, "", "")
            files[jobs] = csv_path.read_bytes(), json_path.read_bytes()
        assert b'"jobs": 2\n' in files["2"][1]
        # the JSON echoes the jobs value; every other byte is the same
        assert files["2"][0] == files["1"][0]
        assert files["2"][1].replace(b'"jobs": 2\n', b'"jobs": 1\n') == files["1"][1]

    def test_progression_spec(self, capsys):
        code, out, _ = run(
            capsys, "scan", "x^2+y^3", "--progression", "6,2", "--e-max", "1"
        )
        assert code == 0
        primes = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert primes == ["7", "13"]

    def test_prime_range_spec(self, capsys):
        code, out, _ = run(
            capsys, "scan", "x+y", "--prime-range", "2,7", "--e-max", "1"
        )
        assert code == 0
        primes = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert primes == ["2", "3", "5", "7"]

    def test_wide_prime_range_exit_4(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", "x^2+y^3", "--prime-range", "2,100000000")
        assert code == 4 and out == ""
        assert "holds more than 1000000 integers" in err
        assert time.perf_counter() - start < 5

    def test_unprintable_config_level_names_its_key(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("primes=2\ne_max=15000\n")
        code, out, err = run(capsys, "scan", "x+y", "--config", str(cfg))
        assert code == 4 and out == ""
        assert "error: e_max 15000 at p=2: p^e passes 10^4300" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("primes=2,3\ne_max=1\n# comment\nbudget=20000\n")
        code, out, _ = run(
            capsys, "scan", "x^2+y^3", "--config", str(cfg), "--e-max", "2"
        )
        assert code == 0
        body = out.strip().split("\n")[1:]
        assert [line.split(",")[0] for line in body] == ["2", "3"]
        # e_max override visible through the bracket denominator 3^2
        assert body[1].split(",")[5] == "2/3"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_4(self, capsys, tmp_path, source, jobs):
        args = ["scan", "x^2+y^3", "--primes", "2,3", "--e-max", "1"]
        if source == "flag":
            args += ["--jobs", jobs]
        else:
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(f"jobs={jobs}\n")
            args += ["--config", str(cfg)]
        code, out, err = run(capsys, *args)
        assert code == 4 and out == ""
        assert f"jobs must be >= 1, got {jobs}" in err

    @pytest.mark.parametrize("line", ["e-max=1", "jbos=2"])
    def test_unknown_config_key_exit_4(self, capsys, tmp_path, line):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"primes=2,3\n{line}\n")
        code, out, err = run(capsys, "scan", "x^2+y^3", "--config", str(cfg))
        assert code == 4 and out == ""
        assert f"unknown config key {line.split('=')[0]!r}" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("e_max", "abc"),
            ("budget", "1e6"),
            ("jobs", "2.5"),
            ("primes", "2,x"),
            ("progression", "6"),
            ("prime_range", "2,50,7"),
            ("--primes", "2,,3"),
            ("--progression", "6,a"),
            ("--prime-range", "50"),
        ],
    )
    def test_non_integer_setting_names_its_key(self, capsys, tmp_path, key, value):
        args = ["scan", "x^2+y^3"]
        if key.startswith("--"):
            args += [key, value]
        else:
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
            if key in ("e_max", "budget", "jobs"):
                args += ["--primes", "2,3"]
        code, out, err = run(capsys, *args)
        assert code == 4 and out == ""
        assert f"invalid {key}: {value!r}" in err

    @pytest.mark.parametrize(
        "value, kept",
        [("true", True), ("Yes", True), ("1", True), ("FALSE", False), ("no", False), ("0", False)],
    )
    def test_preserve_support_values(self, capsys, tmp_path, value, kept):
        # 7*x vanishes mod 7: keeping the support makes the row a reduction error
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"primes=7\ne_max=1\npreserve_support={value}\n")
        code, out, _ = run(capsys, "scan", "7*x+y", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[1].startswith("7,REDUCTION_ERROR") == kept

    @pytest.mark.parametrize("value", ["flase", "on", ""])
    def test_bad_preserve_support_exit_4(self, capsys, tmp_path, value):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"primes=7\ne_max=1\npreserve_support={value}\n")
        code, out, err = run(capsys, "scan", "7*x+y", "--config", str(cfg))
        assert code == 4 and out == ""
        assert "preserve_support" in err and repr(value) in err

    def test_requires_exactly_one_prime_spec(self, capsys):
        code, _, err = run(capsys, "scan", "x^2+y^3")
        assert code == 4 and "exactly one" in err

    def test_reduction_error_row_keeps_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "scan", "1/2*x^2+y^3", "--primes", "2,3", "--e-max", "1"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("2,REDUCTION_ERROR")

    def test_io_error_exit_6(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "scan",
            "x+y",
            "--primes",
            "2",
            "--e-max",
            "1",
            "--csv",
            str(tmp_path / "missing_dir" / "out.csv"),
        )
        assert code == 6 and "error" in err

"""Command-line surface: golden outputs, exit codes, determinism and the
round-trip of JSON outputs through the input grammars."""

from __future__ import annotations

import argparse
import contextlib
import decimal
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc import cli
from equiloc.algebra import parse_polynomial, zvar
from equiloc.cli import main
from equiloc.residue import ResidueForm, iterated_residue
from equiloc.thom import QTable
from oracles import thom_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Raw(str):
    """JSON text written as it is: ``json.dumps`` cannot repeat a key."""


def write_json(path, data):
    path.write_text(data if isinstance(data, Raw) else json.dumps(data))


class TestGoldenCommands:
    def test_thom_porteous(self, capsys):
        code, out, _ = run(capsys, "thom", "--k", "1", "--codim", "0")
        assert code == 0
        assert out == "c1\n"

    def test_grass_integrate(self, capsys):
        code, out, _ = run(capsys, "grass-integrate", "--n", "4", "--k", "2",
                           "--class", "c1^2*c2")
        assert code == 0
        assert out == "2\n"

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "theta", "--n", "2")
        assert (code, out) == (0, "12\n")

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "--n", "1", "--d", "4")
        assert code == 0
        assert out == "4*m - 2\n"

    def test_gg_with_values(self, capsys):
        code, out, _ = run(capsys, "gg", "--n", "1", "--delta", "0",
                           "--d", "5")
        assert code == 0
        assert out == "2\n"

    @pytest.mark.parametrize("argv,digest", [
        (("--n", "2"), "d2bbff872b45da4e65e9d0cdc709a8d8"
                       "4c88727159a83f58ce7bbd6af871f77a"),
        (("--n", "3"), "4550f70216c35a56006a4a485f503c34"
                       "81984c7eda559f3521dbd5b425e04251"),
        (("--n", "3", "--d", "9"), "7ec7f616c7d5ba3f3e71dcdf3841ecbc"
                                   "0aa9ef0971a19428c42bad00316a528a"),
    ], ids=["n2", "n3", "n3-d9"])
    def test_euler_output_sha256(self, capsys, argv, digest):
        code, out, _ = run(capsys, "euler", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # stdout of the tower commands that no other pin covers, as the
    # single-residue tower route printed it
    TOWER_DIGESTS = {
        "euler --n 1":
            "dfe5198c7bf713d2c0fcc182c89e069b006e0cfc83b21af40d371195c87004f4",
        "euler --n 2 --d 0":
            "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "euler --n 2 --d 7/2 --format json":
            "f43ebd7ab16e80d986f232e94fe05cd7a01955322ac0efc40a66009031d31b0b",
        "gg --n 1":
            "1eed47ac4a480b43c8ac0eff25a10c56088cf978c301a24630c5d6a749ae44ba",
        "gg --n 2":
            "51afc6e3cd347a7f968b0b8f5318f81f8b997af0ae42e3ca244ceddd9841c1ed",
        "gg --n 3":
            "fe5dc872480fe1db21f9600a642acf41f6b6552758dc9efbb78071887a4c8395",
        "gg --n 1 --delta 1/24 --d 100 --format json":
            "aaac103275fe4faa2b5fc1972d5ccf506ed5d7bf9451f16c350b13b31d7d7e3b",
        "gg --n 2 --delta 1/24 --d 100 --format json":
            "804b2aa1f87eeec44fdeddb9309eb748125d3c6b859c525354eb4c4cf898eeec",
        "gg --n 3 --delta 1/24 --d 100 --format json":
            "1206caf7610e0cc6b261d5e62f9edcf6c882bb35be87d86e8327e4fe4141ee7a",
        "theta --n 1":
            "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "theta --n 2":
            "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164",
        "theta --n 3":
            "bf5d96566cdb3815387d579e6ce39a72fafbfda3f7f9e1d2e9e33f94259dbd54",
        "theta --n 4":
            "8e7713c64daf13b3172e16f6d9f76e809751bb0fd9bb00638410dc49fecd14b1",
        # n = 4, as the route of one residue per tower part printed it
        "gg --n 4":
            "6293254acb85bb3511e6cb462994af3109a8876628f42134a48243c6f2de60e1",
        "euler --n 4":
            "a5002cf5c0d375c50781e3f4a92661451c6ea6c7045ecaea5d36848d17748687",
        "euler --n 4 --d 9":
            "8c73d547b81e93a3e2c99b04ca2f795732eab8beb1e81804b4aa4bff5e8386c6",
    }

    @pytest.mark.parametrize("argv", list(TOWER_DIGESTS), ids=lambda argv:
                             argv.replace(" --", "-").replace(" ", ""))
    def test_tower_output_sha256(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.TOWER_DIGESTS[argv]


    # stdout of thom-scan, which no perfbench pin covers, as the scan of
    # one residue per (k, codim) printed it; {q5} is the q-file
    # {"5": "z1^2*z5"}, whose negative terms print as monomial=coefficient
    # pairs
    THOM_SCAN_DIGESTS = {
        "--kmax 4 --lmax 2":
            "70b6230edaa717b16eb0600a1ef8232d8aec34a71fa24f573b9c7b293abeb460",
        "--kmax 3 --lmax 5 --check-positivity":
            "48025a67648fb7bfdd218f1445749ac6a547fa71eaea8378c96245ac8e875f36",
        "--kmax 2 --lmax 29 --format json --check-positivity":
            "fa70900433e97da0a14125d4748fd2c352cc3aac25fe6f495aa587fa43e25f06",
        "--kmax 5 --lmax 0 --check-positivity --q-file {q5}":
            "91b8316c484f6874b3da30bb8ade91fbbc356663159f54a4be5c152810746594",
    }

    @pytest.mark.parametrize("argv", list(THOM_SCAN_DIGESTS), ids=lambda argv:
                             argv.replace(" --", "-").replace(" ", ""))
    def test_thom_scan_output_sha256(self, capsys, tmp_path, argv):
        qfile = tmp_path / "q5.json"
        qfile.write_text(json.dumps({"5": "z1^2*z5"}))
        args = [str(qfile) if a == "{q5}" else a for a in argv.split()]
        code, out, _ = run(capsys, "thom-scan", *args)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.THOM_SCAN_DIGESTS[argv]


    # stdout of `equiloc --help` and of each `equiloc <command> --help` at
    # 80 columns, as printed while cli imported every module up front
    HELP_DIGESTS = {
        "": "42c50f105a392cfe3cc91972426196aa6ef4bfe4d3ff3f2a06af5f67ad7a7c12",
        "residue":
            "e4cd7ac2f35128c5d6b75ca7fd96659c29d17ceca0776be91f44483719a59072",
        "grass-integrate":
            "cf2e67eb9101baefd1b9291d23c40210320db190dfaa80837d7da51259ff1cac",
        "flag-check":
            "f53b84bf9bc8c28d8a798ad4b702b9b9a642bbb259a46b5ecd3f8cf15a45e238",
        "thom":
            "e79ac0311294d73d8d90a538ff0d6d801f4bed1ce76b2f9790bee07e99572cd7",
        "thom-scan":
            "5e2a9054ba4ad8fc122dceecb5887d2d9cf241fa9948e99ffbe05fb5d1b1d787",
        "gg": "e8a29eab876f7c0f91e3d254a57981ff2d4868fe7740e5840dfcf75f09365dd5",
        "theta":
            "4d4da21772d56b90c25407230ac7ec148a46892195fe926c64452a7c6219b726",
        "euler":
            "dbcf89cc459979c6f1d0aab3c8178dd77105a0e16d5dfced18382c0157b7d8c3",
        "rho": "50e1fc2aaf99d15f29e2833b743d5377235473a494694e4e0b2566732982cfc0",
        "minors":
            "4c450214389c8235f7b42952541190634069ccc6db86ac4d319db056fc94d079",
    }

    @pytest.mark.parametrize("command", list(HELP_DIGESTS),
                             ids=lambda command: command or "equiloc")
    def test_help_output_sha256(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.HELP_DIGESTS[command]


#: Invocations that exit 2 with a ``parse-error``: usage errors and
#: values an option or a computing command refuses before any work.
ARGUMENT_ERRORS = [
    ("thom", "--k", "abc"),
    ("frobnicate", "--k", "1"),
    (),
    ("thom", "--k", "1", "--format", "xml"),
    ("gg", "--n", "1", "--d", "1e30000000"),
    ("gg", "--n", "4", "--delta", "0.5"),
    ("euler", "--n", "1", "--d", " 4"),
    ("thom-scan", "--kmax", "0", "--lmax", "0"),
    ("thom-scan", "--kmax", "2", "--lmax", "-1"),
    ("gg", "--n", "0"),
    ("theta", "--n", "-2"),
    ("euler", "--n", "0"),
    ("gg", "--n", "1", "--delta", "1/0"),
    ("grass-integrate", "--n", "3", "--k", "3", "--class", "1"),
    ("grass-integrate", "--n", "3", "--k", "0", "--class", "1"),
    # int() reads each of these: 2, 10, 2 and 1; an integer option
    # takes ASCII digits with an optional minus sign only
    ("thom", "--k", "\u0662"),
    ("thom", "--k", "1_0"),
    ("thom", "--k", " 2"),
    ("thom", "--k", "2", "--codim", "+1"),
]


class TestErrors:
    def test_missing_job_file_exits_2(self, capsys):
        code, out, err = run(capsys, "residue", "--job", "missing.json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "parse-error"

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run(capsys, "grass-integrate", "--n", "4", "--k", "2",
                           "--class", "c1")
        assert code == 1
        assert json.loads(err)["error"] == "degree-mismatch"

    def test_bad_class_text_exits_2(self, capsys):
        code, _, err = run(capsys, "grass-integrate", "--n", "4", "--k", "2",
                           "--class", "c1^^")
        assert code == 2

    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "thom")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("argv", ARGUMENT_ERRORS)
    def test_argument_errors_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("command", ["gg", "theta", "euler"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_order_below_one_names_n(self, capsys, command, n):
        code, out, err = run(capsys, command, "--n", n)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == f"need n >= 1, got n={n}"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thom", "--help"])
        assert exc.value.code == 0
        assert "--k" in capsys.readouterr().out

    def test_unreadable_job_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for path in (tmp_path, bad, deep):
            code, out, err = run(capsys, "residue", "--job", str(path))
            assert (code, out) == (2, ""), path
            assert json.loads(err)["error"] == "parse-error"


class TestOneSubparser:
    """``main`` builds the subparser of the command it runs and no other;
    every other invocation gets the full parser, with the same text."""

    COMMANDS = ("residue", "grass-integrate", "flag-check", "thom",
                "thom-scan", "gg", "theta", "euler", "rho", "minors")

    @staticmethod
    def choices(parser) -> list:
        return [name for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
                for name in action.choices]

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        """The ``only`` of each ``build_parser`` call from now on."""
        calls, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda only=None: calls.append(only)
                            or build(only))
        return calls

    def test_the_ten_commands(self):
        assert self.choices(cli.build_parser()) == list(self.COMMANDS)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_a_command_builds_its_own_subparser(self, capsys, built, name):
        # every command has a required option: a usage error, no work
        assert run(capsys, name)[0] == 2
        assert built == [name]

    @pytest.mark.parametrize("argv", [(), ("-h",), ("--help",),
                                      ("frobnicate", "--k", "1")])
    def test_other_invocations_build_the_full_parser(self, capsys, built,
                                                     argv):
        with contextlib.suppress(SystemExit):
            main(list(argv))
        capsys.readouterr()
        assert built == [None]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_one_subparser_choice(self, name):
        assert self.choices(cli.build_parser(name)) == [name]

    @pytest.mark.parametrize("argv", ARGUMENT_ERRORS)
    def test_errors_as_on_the_full_parser(self, capsys, monkeypatch, argv):
        own = run(capsys, *argv)
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda only=None: build(None))
        assert run(capsys, *argv) == own

    def test_one_call_leaves_little_cyclic_garbage(self, capsys, tmp_path):
        # a parser tree is cyclic: only the collector frees it.  One call
        # built ten subparsers and left 390 such objects
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"coefficients": [
            [1, 2], [3, -1], ["1/2", 5], [7, 0]]}))
        argv = ("minors", "--n", "2", "--k", "4", "--jet", str(jet))
        assert run(capsys, *argv)[0] == 0  # imports and caches filled
        gc.collect()
        before = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(capsys, *argv)[0] == 0
            gc.collect()
            garbage = len(gc.garbage) - before
        finally:
            gc.set_debug(0)
            del gc.garbage[before:]
        assert garbage < 200


class TestResidueJobs:
    def test_job_file(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "numerator": "1",
            "denominators": ["z1", "z2"],
            "order": ["z1", "z2"],
        }))
        code, out, _ = run(capsys, "residue", "--job", str(job))
        assert (code, out) == (0, "1\n")
        code, out, _ = run(capsys, "residue", "--job", str(job),
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"residue": "1"}


    @pytest.mark.parametrize("job", [
        {"numerator": "1", "denominators": ["z1"], "order": ["z1", "z1"]},
        {"numerator": "1", "denominators": "z1", "order": ["z1"]},
        {"numerator": 5, "denominators": ["z1"], "order": ["z1"]},
        {"numerator": "1", "denominators": [1], "order": ["z1"]},
        {"numerator": "1", "denominators": ["z1"], "order": "z1"},
        ["1", ["z1"], ["z1"]],
        {"numerator": "1", "denominators": ["z1^2"], "order": ["z1"]},
        # trailing input
        {"numerator": "z1 z2", "denominators": ["z1"], "order": ["z1"]},
        {"numerator": "z1)", "denominators": ["z1"], "order": ["z1"]},
        # a repeated key, at the top or inside, has no one reading
        pytest.param(Raw('{"numerator": "z1", "numerator": "1", '
                         '"denominators": ["l1 - z1"], "order": ["z1"]}'),
                     id="repeated-key"),
        pytest.param(Raw('{"numerator": "1", "denominators": ["z1"], '
                         '"order": ["z1"], "extra": {"a": 1, "a": 2}}'),
                     id="repeated-inner-key"),
    ])
    def test_malformed_job_exits_2(self, capsys, tmp_path, job):
        path = tmp_path / "job.json"
        write_json(path, job)
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("denominators,expected", [
        ([], (0, "3\n", "")),
        (["l1"], (1, "", "no-dominant-variable")),
    ])
    def test_empty_order(self, capsys, tmp_path, denominators, expected):
        # no variable to peel: the numerator is its own residue, and a
        # denominator is a pure parameter factor
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "3", "denominators": denominators, "order": []}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out, err and json.loads(err)["error"]) == expected

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "(" * 3000 + "z1" + ")" * 3000,
            "denominators": ["z1"], "order": ["z1"]}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"

    def test_pure_parameter_denominator_exits_1(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "1", "denominators": ["z1", "l1 + 1"],
            "order": ["z1"]}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "no-dominant-variable"

    def test_expansion_overflow_names_the_variable(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "z2^300", "denominators": ["z2 - l1"],
            "order": ["z2"]}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "window-overflow"
        assert payload["message"] == \
            "expansion order 300 in z2 exceeds the limit 256"

    @pytest.mark.parametrize("numerator,denominators,expected", [
        ("z1^300", ["z1"], "0"),
        ("z1^300 + 5*z1^2", ["z1", "z1", "z1"], "-5"),
        ("z1^400*l1 + 3*z1", ["2*z1", "z1"], "-3/2"),
    ])
    def test_factors_without_a_rest_expand_to_order_0(
            self, capsys, tmp_path, numerator, denominators, expected):
        # 1/(a z)^s has no terms past order 0, so a high numerator power
        # asks for no expansion and is not refused
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": numerator, "denominators": denominators,
            "order": ["z1"]}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out, err) == (0, expected + "\n", "")

    def test_many_variables_exit_1_before_work(self, capsys, tmp_path):
        # every term of a text is a key of one slot per variable: a sum of
        # 20,000 names would need 4 x 10^8 slots
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": " + ".join(f"v{i}" for i in range(20_000)),
            "denominators": ["z1"], "order": ["z1"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "size-limit"
        assert payload["message"] == ("a text of 20000 variables exceeds "
                                      "the limit of 1000 variables")

    def test_slice_that_cannot_reach_the_residue_is_not_expanded(
            self, capsys, tmp_path):
        # the z2 peel of z2^300 leaves z1-degree 0, but the three poles in
        # z1 need z1^2, and l1 - z2 holds no z1 to lift it: the order-300
        # slice is dropped before the window check
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "z2^300",
            "denominators": ["l1 - z2", "l1 - z1", "l2 - z1", "l3 - z1"],
            "order": ["z1", "z2"]}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("numerator", [
        "*".join(f"(a{i}+b{i})" for i in range(16)),
        "(1+z1)^3000",
        "(1+z1+z2+z3)^60",
        "3^30000000",
        "*".join(["3^40000"] * 30),
    ])
    def test_costly_products_exit_1_before_work(self, capsys, tmp_path,
                                                numerator):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": numerator, "denominators": ["z1"], "order": ["z1"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "size-limit"

    @pytest.mark.parametrize("numerator,limit", [
        # the last product is checked and not formed: 99,999 bits times
        # the height of z2 + 1 (1 bit) is admitted, of z2 + 2 (2 bits) not
        ("2^99999*z1*(z2 + 1)", None), ("2^99999*z1*(z2 + 2)", "bits"),
        # a fold of one-term operands: 99,999 + 1 bits, 99,999 + 2 bits
        ("2^99999*2*z1", None), ("2^99999*4*z1", "bits"),
        # 400 x 250 and 401 x 250 pairs in a two-variable text, at the
        # last product only
        (f"2*z1*({' + '.join(f'l1^{i}' for i in range(400))})"
         f"*({' + '.join(f'l1^{i}' for i in range(250))})", None),
        (f"2*z1*({' + '.join(f'l1^{i}' for i in range(401))})"
         f"*({' + '.join(f'l1^{i}' for i in range(250))})", "100250 term"),
    ], ids=["bits-last-in", "bits-last-out", "bits-fold-in",
            "bits-fold-out", "work-last-in", "work-last-out"])
    def test_unformed_last_product_keeps_the_limits(self, capsys, tmp_path,
                                                    numerator, limit):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": numerator, "denominators": ["z1", "z1", "z2"],
            "order": ["z1", "z2"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--job", str(path))
        if limit is None:
            assert (code, err) == (0, "")
            whole = parse_polynomial(numerator)
            assert out == str(whole.coefficient(zvar(1), 1).coefficient(
                zvar(2), 0)) + "\n"
            return
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "size-limit"
        assert limit in payload["message"]

    def test_expansion_coefficient_bits_exit_1_before_work(self, capsys,
                                                           tmp_path):
        # tails of 1/(3^40000 z1 - 1) up to order 250 would reach ~32
        # million bits; the bound is checked before any tail is built
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "z1^250", "denominators": ["3^40000*z1 - 1"],
            "order": ["z1"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "size-limit"
        assert " in z1 " in payload["message"]

    def test_long_coefficient_prints(self, capsys, tmp_path):
        # 3^10000 has 4,772 digits, past the int-to-str limit of 4,300
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "3^10000", "denominators": ["z1"], "order": ["z1"]}))
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert (code, err) == (0, "")
        assert len(out) == 4_774
        assert decimal.Decimal(out) == decimal.Decimal(-(3 ** 10000))

    def test_large_power_exits_1_before_expanding(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "numerator": "(1+z1)^100000",
            "denominators": ["z1"], "order": ["z1"]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "residue", "--job", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "size-limit"


class TestArgumentGuards:
    @pytest.mark.parametrize("extra", [
        ("--n", "3", "--d", "5"),
        ("--n", "3", "--d", "3"),
        ("--n", "3", "--d", "0"),
        ("--n", "3", "--d", "1", "--trials", "0"),
        ("--n", "3", "--d", "1", "--cap", "-5"),
    ])
    def test_flag_check_rejects_bad_arguments(self, capsys, extra):
        code, out, err = run(capsys, "flag-check", *extra)
        assert code == 2
        assert "all_match" not in out
        assert json.loads(err)["error"] == "parse-error"

    def test_size_limits_exit_1_before_work(self, capsys, tmp_path):
        argvs = [("grass-integrate", "--n", "20", "--k", "10",
                  "--class", "c10^10"),
                 ("grass-integrate", "--n", "1000000000", "--k",
                  "500000000", "--class", "c1"),
                 ("flag-check", "--n", "300", "--d", "3"),
                 ("flag-check", "--n", "3000000", "--d", "1"),
                 ("thom", "--k", "2", "--codim", "200"),
                 ("thom", "--k", "1", "--codim", "1000000000"),
                 ("thom-scan", "--kmax", "4", "--lmax", "6")]
        # orders past the built-in table, supplied by a q-file
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"5": "1", "6": "1", "7": "1"}))
        for argv in (("gg", "--n", "5"), ("euler", "--n", "5", "--d", "9"),
                     ("theta", "--n", "6"), ("thom", "--k", "7")):
            argvs.append(argv + ("--q-file", str(qfile)))
        for size in (6, 8):
            jet = tmp_path / f"jet{size}.json"
            jet.write_text(json.dumps({"coefficients": [
                ["1" if (i, j) == (0, 0) else "0" for j in range(size)]
                for i in range(size)]}))
            argvs.append(("minors", "--n", str(size), "--k", str(size),
                          "--jet", str(jet)))
        for n, k in ((60, 6), (1, 1000)):
            jet = tmp_path / f"jet{n}x{k}.json"
            jet.write_text(json.dumps({"coefficients": [["1"] * n] * k}))
            argvs.append(("rho", "--n", str(n), "--k", str(k),
                          "--jet", str(jet)))
        for argv in argvs:
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (1, ""), argv
            assert json.loads(err)["error"] == "size-limit"

    @pytest.mark.parametrize("argv", [
        # 10^8 trials: refused before the first
        ("flag-check", "--n", "3", "--d", "1", "--trials", "100000000"),
        # 2,000 fixed points, but 2000·1999·C(2000, 2) units of sum work
        ("flag-check", "--n", "2000", "--d", "1", "--trials", "1"),
        ("flag-check", "--n", "179", "--d", "1", "--trials", "1"),
        ("grass-integrate", "--n", "2000", "--k", "1", "--class", "c1^1999"),
    ])
    def test_trial_and_sum_work_limits_exit_1(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "size-limit"

    def test_tower_orders_far_past_the_limit_exit_1(self, capsys, tmp_path):
        # the term count is not formed from binomials of this size
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"100000": "1", "10000000": "1"}))
        for command in ("gg", "theta", "euler"):
            for n in ("100000", "10000000"):
                start = time.perf_counter()
                code, out, err = run(capsys, command, "--n", n,
                                     "--q-file", str(qfile))
                assert time.perf_counter() - start < 1, (command, n)
                assert (code, out) == (1, ""), (command, n)
                assert json.loads(err)["error"] == "size-limit"

    SUBCOMMANDS = {
        "residue": ("--job", "job.json"),
        "grass-integrate": ("--n", "4", "--k", "2", "--class", "c1^2*c2"),
        "flag-check": ("--n", "3", "--d", "1", "--trials", "1"),
        "thom": ("--k", "1"),
        "thom-scan": ("--kmax", "1", "--lmax", "0"),
        "gg": ("--n", "1"),
        "theta": ("--n", "1"),
        "euler": ("--n", "1", "--d", "4"),
        "rho": ("--n", "1", "--k", "1", "--jet", "jet.json"),
        "minors": ("--n", "1", "--k", "1", "--jet", "jet.json"),
    }

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_seed_only_where_read_and_no_cap(self, capsys, command):
        argv = (command,) + self.SUBCOMMANDS[command]
        extras = [("--cap", "256")]
        if command not in ("grass-integrate", "flag-check"):
            extras.append(("--seed", "1"))
        for extra in extras:
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, ""), extra
            payload = json.loads(err)
            assert payload["error"] == "parse-error"
            assert f"unrecognized arguments: {extra[0]}" in payload["message"]

    def test_varying_draws_exit_1(self, capsys, monkeypatch):
        from equiloc import localization
        draws = iter(range(1, 100))
        # each draw's sum, on the one reading of the class
        monkeypatch.setattr(localization, "_grass_sum",
                            lambda *args: next(draws))
        code, out, err = run(capsys, "grass-integrate", "--n", "4", "--k",
                             "2", "--class", "c1^2*c2")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "inconsistent-draws"


class TestDeterminism:
    def test_flag_check_repeats_byte_identically(self, capsys):
        args = ("flag-check", "--n", "3", "--d", "2", "--trials", "3",
                "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert "all_match=True" in first

    def test_seed_changes_draws_not_value(self, capsys):
        _, a, _ = run(capsys, "grass-integrate", "--n", "3", "--k", "1",
                      "--class", "c1^2", "--seed", "1")
        _, b, _ = run(capsys, "grass-integrate", "--n", "3", "--k", "1",
                      "--class", "c1^2", "--seed", "2")
        assert a == b == "1\n"


    def test_stdout_independent_of_hash_seed(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"coefficients": [
            ["1", "-1/2"], ["2/3", "0"], ["-5/4", "3/7"]]}))
        commands = [
            ("thom", "--k", "3", "--codim", "1"),
            ("gg", "--n", "2", "--delta", "1/24", "--d", "100"),
            ("euler", "--n", "2", "--d", "50"),
            ("flag-check", "--n", "4", "--d", "2", "--trials", "3"),
            ("minors", "--n", "2", "--k", "3", "--jet", str(jet)),
        ]
        for argv in commands:
            outputs = set()
            for hash_seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                           PYTHONPATH=os.pathsep.join(
                               filter(None, [src,
                                             os.environ.get("PYTHONPATH")])))
                proc = subprocess.run(
                    [sys.executable, "-m", "equiloc.cli", *argv], env=env,
                    capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                outputs.add(proc.stdout)
            assert len(outputs) == 1, argv


class TestJsonRoundTrip:
    def test_thom_json_reparses(self, capsys):
        code, out, _ = run(capsys, "thom", "--k", "3", "--codim", "0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        poly = parse_polynomial(payload["polynomial"])
        assert poly == parse_polynomial("c1^3 + 3*c1*c2 + 2*c3")
        rebuilt = sum((parse_polynomial(f"({c})*{m}") for m, c in
                       payload["terms"]), parse_polynomial("0"))
        assert rebuilt == poly

    def test_gg_json_reparses(self, capsys):
        code, out, _ = run(capsys, "gg", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        poly = parse_polynomial(payload["polynomial"])
        assert parse_polynomial(payload["leading"]) == \
            poly.coefficient(parse_polynomial("d").variables().pop(), 2)

    def test_flag_check_json(self, capsys):
        code, out, _ = run(capsys, "flag-check", "--n", "3", "--d", "1",
                           "--trials", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_match"] is True
        assert len(payload["results"]) == 2

    @pytest.mark.parametrize("argv,builder", [
        (("thom", "--k", "3"), "_thom_json"),
        (("thom-scan", "--kmax", "2", "--lmax", "1", "--check-positivity"),
         "_thom_json"),
        (("rho", "--n", "2", "--k", "2"), "_basis_labels")])
    def test_only_json_builds_the_json_value(self, capsys, monkeypatch,
                                             tmp_path, argv, builder):
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"coefficients": [[1, 0], [2, 3]]}))
        argv = (*argv, "--jet", str(jet)) if argv[0] == "rho" else argv
        calls, build = [], getattr(cli, builder)
        monkeypatch.setattr(cli, builder,
                            lambda *a: calls.append(a) or build(*a))
        assert run(capsys, *argv)[0] == 0
        assert calls == []
        assert run(capsys, *argv, "--format", "json")[0] == 0
        assert calls


class TestScanAndUserTables:
    def test_thom_scan_with_positivity(self, capsys):
        code, out, _ = run(capsys, "thom-scan", "--kmax", "2", "--lmax", "1",
                           "--check-positivity")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "k=1 codim=0: c1  [all coefficients nonnegative]"
        assert "c1^2 + c2" in lines[2]

    def test_thom_scan_prints_negative_terms_as_json_does(self, capsys,
                                                          tmp_path):
        # the text format names each negative term as the JSON format does,
        # monomial and exact coefficient, with no Python repr
        qfile = tmp_path / "q5.json"
        qfile.write_text(json.dumps({"5": "z1^2*z5"}))
        argv = ["thom-scan", "--kmax", "5", "--lmax", "0",
                "--check-positivity", "--q-file", str(qfile)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == (
            "k=5 codim=0: -c1^2*c3 - 3*c1*c4 - 2*c5  "
            "[NEGATIVE: c1*c4=-3, c1^2*c3=-1, c5=-2]")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)[-1]["negative_terms"] == [
            ["c1*c4", "-3"], ["c1^2*c3", "-1"], ["c5", "-2"]]

    @pytest.mark.parametrize("entry", ["z1 + z2^2 + z1*z5^2",
                                       "z1 + z2^2 - z3*z4*z5 + 2*z2^3",
                                       "z1^2*z5 - 3*z2*z3 + z4 + 2"])
    def test_non_homogeneous_q_entry(self, capsys, tmp_path, entry):
        # z1 + z2^2 gives the prefactor's z5-slices terms of several degrees
        # in z1..z4, and only the degree-3 part reaches the residue; the
        # output must be the residue of the multiplied-out form, with the
        # Chern classes in the body (codim 1 is over MAX_TAIL_TERMS at k = 5)
        qfile = tmp_path / "q5.json"
        qfile.write_text(json.dumps({"5": entry}))
        table = QTable.builtin().with_entry(5, parse_polynomial(entry))
        form = thom_form(5, 0, table)
        whole = ResidueForm(form.prefactor * form.numerator,
                            form.denominators, form.order)
        expected = iterated_residue(whole)
        assert not expected.is_zero
        code, out, _ = run(capsys, "thom", "--k", "5", "--codim", "0",
                           "--q-file", str(qfile))
        assert code == 0
        assert out == f"{expected}\n"

    def test_user_q_file(self, capsys, tmp_path):
        # any homogeneous degree-3 entry exercises the k=5 plumbing; the
        # resulting polynomial is unverified but must be weighted degree 5
        qfile = tmp_path / "q5.json"
        qfile.write_text(json.dumps({"5": "z1*z5^2"}))
        code, out, _ = run(capsys, "thom", "--k", "5", "--codim", "0",
                           "--q-file", str(qfile), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        poly = parse_polynomial(payload["polynomial"])
        assert not poly.is_zero
        degrees = poly.weighted_degrees(
            lambda v: v.index if v.name.startswith("c") else 0)
        assert degrees == {5}

    @pytest.mark.parametrize("table", [
        {"5": 7}, ["z1"], {"5": None}, {"0": "1"},
        # two keys that name one order
        {"05": "z1", "5": "z2"},
        {"x": "z1"}, {"1e3": "z1"},
        # int() reads each of these as an order: 10, 5, 5 and 5
        {"1_0": "z1"}, {" 5": "z1"}, {"+5": "z1"}, {"\u0665": "z1"},
        pytest.param(Raw('{"5": "z1", "5": "z2"}'), id="repeated-key"),
    ])
    def test_bad_q_file_exits_2(self, capsys, tmp_path, table):
        qfile = tmp_path / "q.json"
        write_json(qfile, table)
        code, out, err = run(capsys, "thom", "--k", "2", "--q-file",
                             str(qfile))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "parse-error"

    def test_missing_q_exits_1(self, capsys):
        code, _, err = run(capsys, "thom", "--k", "5", "--codim", "0")
        assert code == 1
        assert json.loads(err)["error"] == "missing-q"

    @pytest.mark.parametrize("kmax,lmax", [("1", "1998"), ("2", "29")])
    def test_largest_accepted_scans_finish(self, capsys, kmax, lmax):
        # the largest codims the tail limit accepts for k = 1, 2
        start = time.perf_counter()
        code, out, _ = run(capsys, "thom-scan", "--kmax", kmax,
                           "--lmax", lmax)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert len(out.splitlines()) == int(kmax) * (int(lmax) + 1)

    def test_scan_looks_up_its_largest_order_first(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "thom-scan", "--kmax", "5", "--lmax", "2")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "missing-q"


class TestJetCommands:
    @pytest.fixture
    def jet_file(self, tmp_path):
        path = tmp_path / "jet.json"
        path.write_text(json.dumps({
            "coefficients": [["1", "0"], ["1/2", "1"], ["0", "2/3"]],
        }))
        return str(path)

    def test_rho(self, capsys, jet_file):
        code, out, _ = run(capsys, "rho", "--n", "2", "--k", "3",
                           "--jet", jet_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["matrix"]) == 3
        assert len(payload["matrix"][0]) == len(payload["basis"]) == 9
        assert payload["matrix"][0][:2] == ["1", "0"]

    def test_minors(self, capsys, jet_file):
        code, out, _ = run(capsys, "minors", "--n", "2", "--k", "3",
                           "--jet", jet_file)
        assert code == 0
        import math
        assert len(out.splitlines()) == math.comb(9, 3)

    def test_many_dimensions_first_order(self, capsys, tmp_path):
        # the basis is built degree by degree, not filtered from all
        # (k + 1)^n exponent vectors
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"coefficients": [
            [str(j) for j in range(1, 27)]]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "minors", "--n", "26", "--k", "1",
                           "--jet", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.split() == [str(j) for j in range(1, 27)]

    def test_shape_mismatch(self, capsys, jet_file):
        code, _, err = run(capsys, "rho", "--n", "2", "--k", "4",
                           "--jet", jet_file)
        assert code == 2
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("data,n,k", [
        ("coefficients", 2, 1),
        (5, 2, 1),
        ({"coefficients": ["12"]}, 2, 1),
        ({"coefficients": 7}, 2, 1),
        ({"coefficients": []}, 0, 0),
        ({"coefficients": [[]]}, 0, 1),
        ({"coefficients": [[1, 2]], "derivatives": [[3, 4]]}, 2, 1),
        ({"coefficients": [["1/0", 1]]}, 2, 1),
        ({"coefficients": [[True, 1]]}, 2, 1),
        ({"coefficients": [[None, 1]]}, 2, 1),
        pytest.param(Raw('{"coefficients": [[1, 2]], '
                         '"coefficients": [[3, 4]]}'), 2, 1,
                     id="repeated-key"),
        # the entry grammar is a or a/b: a decimal would pass through a
        # float (this one is not 12345678901234567890123/10^23, and 1e-400
        # is 0), and an exponent string would be expanded before any check
        pytest.param(Raw('{"coefficients": [[0.12345678901234567890123, 1]]}'),
                     2, 1, id="json-decimal"),
        pytest.param(Raw('{"coefficients": [[1e-400, 1]]}'), 2, 1,
                     id="json-exponent"),
        pytest.param({"coefficients": [["1e100000000", 1]]}, 2, 1,
                     id="exponent-string"),
    ])
    def test_bad_jet_file_exits_2(self, capsys, tmp_path, data, n, k):
        path = tmp_path / "jet.json"
        write_json(path, data)
        for command in ("rho", "minors"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--n", str(n), "--k",
                                 str(k), "--jet", str(path))
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "parse-error"

    def test_derivative_input(self, capsys, tmp_path):
        path = tmp_path / "jet2.json"
        path.write_text(json.dumps({"derivatives": [[1, 2], [3, 0]]}))
        code, out, _ = run(capsys, "rho", "--n", "2", "--k", "2",
                           "--jet", str(path), "--format", "json")
        assert code == 0
        row2 = json.loads(out)["matrix"][1]
        assert row2[:2] == ["3/2", "0"]


class TestReadmeExamples:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def block(self, heading: str, lang: str) -> str:
        """The first ``lang`` code block after ``heading`` in the README."""
        text = self.README.read_text(encoding="utf-8")
        after = text[text.index(heading):]
        return after.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    def test_every_command_runs(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "job.json").write_text(self.block("### Residue jobs",
                                                      "json"))
        (tmp_path / "jet.json").write_text(self.block("### Jet files",
                                                      "json"))
        monkeypatch.chdir(tmp_path)
        commands = [shlex.split(line, comments=True)
                    for line in self.block("## Command line", "sh")
                    .splitlines()]
        assert len(commands) == 10
        for argv in commands:
            assert argv[0] == "equiloc"
            code, out, err = run(capsys, *argv[1:])
            assert (code, err) == (0, ""), argv
        answer = re.search(r'the\s+answer\s+is\s+`(.*?)`',
                           self.README.read_text(encoding="utf-8"))
        assert answer.group(1) == '{"residue": "-l1 - l2"}'
        code, out, _ = run(capsys, "residue", "--job", "job.json",
                           "--format", "json")
        assert (code, json.loads(out)) == (0, json.loads(answer.group(1)))


# -- every argument list ends in exit 0, 1 or 2 ------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.text(max_size=4))
_TEXT = st.lists(st.sampled_from(
    ["z1", "z2", "l1", "h", "c1", "c2", "0", "2", "7", "1/2", "+", "-", "*",
     "^", "(", ")", "3^10000", "3^30000000"]), max_size=10).map(" ".join)
_JOB = st.fixed_dictionaries({
    "numerator": st.one_of(_TEXT, _JUNK),
    "denominators": st.one_of(
        _JUNK, st.lists(st.one_of(_TEXT, _JUNK), max_size=3)),
    "order": st.one_of(_JUNK, st.lists(
        st.sampled_from(["z1", "z2", "z3", "l1", "z", 1]), max_size=3))})
_JET_ROWS = st.lists(st.one_of(_JUNK, st.lists(
    st.one_of(_JUNK, st.sampled_from(["1", "-1/2", "1/0", "x"])),
    max_size=3)), max_size=3)
_Q_TABLE = st.dictionaries(st.sampled_from(["1", "4", "5", "6", "-1", "x"]),
                           st.one_of(_TEXT, _JUNK), max_size=3)
_VALUE = {
    "int": st.one_of(st.integers(-2, 2).map(str),
                     st.sampled_from(["", "abc", "1/0", "3/2", "-", "0x1"])),
    "rational": st.sampled_from(["0", "-1", "+5", "1/24", "x", "1/0", "",
                                 "0.5", "1e30000000"]),
    "size": st.one_of(st.integers(-2, 2).map(str),
                      st.sampled_from(["7", "200", "1000000000"])),
    "text": st.one_of(_TEXT, st.text(max_size=4)),
    "format": st.sampled_from(["text", "json", "xml"]),
    "job": st.one_of(_JUNK, st.lists(_JUNK, max_size=3), _JOB),
    "jet": st.one_of(_JUNK, st.dictionaries(
        st.sampled_from(["coefficients", "derivatives", "x"]),
        st.one_of(_JUNK, _JET_ROWS), max_size=2)),
    "q": st.one_of(_JUNK, st.lists(_TEXT, max_size=2), _Q_TABLE),
}
_FILE_KINDS = ("job", "jet", "q")
_FLAGS = {
    "residue": {"--job": "job"},
    "grass-integrate": {"--n": "int", "--k": "int", "--class": "text",
                        "--seed": "int"},
    "flag-check": {"--n": "int", "--d": "int", "--trials": "int",
                   "--seed": "int"},
    "thom": {"--k": "int", "--codim": "size", "--q-file": "q"},
    "thom-scan": {"--kmax": "size", "--lmax": "size", "--q-file": "q",
                  "--check-positivity": None},
    "gg": {"--n": "int", "--delta": "rational", "--d": "rational",
           "--q-file": "q"},
    "theta": {"--n": "int", "--q-file": "q"},
    "euler": {"--n": "int", "--d": "rational", "--q-file": "q"},
    "rho": {"--n": "int", "--k": "int", "--jet": "jet"},
    "minors": {"--n": "int", "--k": "int", "--jet": "jet"},
}
_UNKNOWN = {"--cap": "int", "--seed": "int", "--bogus": "int",
            "--format": "format"}


@st.composite
def _invocations(draw):
    """An argv over the known flags of a subcommand, some left out and some
    unknown added, with the JSON each file flag points to."""
    command = draw(st.sampled_from(sorted(_FLAGS) + ["frobnicate"]))
    known = _FLAGS.get(command, {})
    flags = [f for f in sorted(known) if draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(sorted(_UNKNOWN)), max_size=2))
    argv, files = [command], {}
    for flag in flags:
        kind = known.get(flag, _UNKNOWN.get(flag))
        argv.append(flag)
        if kind in _FILE_KINDS:
            files[len(argv)] = draw(_VALUE[kind])
            argv.append(None)
        elif kind is not None:
            argv.append(draw(_VALUE[kind]))
    return argv, files


class TestEveryInvocationEndsCleanly:
    @given(_invocations())
    @settings(max_examples=400, deadline=None)
    def test_exit_code_and_json_error(self, invocation):
        argv, files = invocation
        with tempfile.TemporaryDirectory() as tmp:
            for slot, data in files.items():
                argv[slot] = os.path.join(tmp, f"{slot}.json")
                with open(argv[slot], "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        if code:
            payload = json.loads(err.getvalue())
            assert isinstance(payload, dict)
            assert set(payload) == {"error", "message"}
            assert out.getvalue() == "" or argv[0] == "flag-check"
        else:
            assert err.getvalue() == ""

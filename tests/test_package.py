"""The package's public names and what a process loads to run the CLI.

The package resolves its public names on first access, and each CLI
handler imports its computing modules when it runs, so a subcommand pays
only for the modules it uses.  The import footprint is read in a fresh
interpreter, since this one has loaded every module already."""

from __future__ import annotations

import copy
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import equiloc
from equiloc.algebra import parse_polynomial, svar, wvar, zvar
from equiloc.errors import InputError, SingularLinearPart

#: The names ``equiloc`` exported while its ``__init__`` imported them,
#: and the module of each.
EXPORTS = {
    "algebra": ["Monomial", "Polynomial", "Var", "cvar", "parse_polynomial",
                "svar", "term_list", "wvar", "zvar"],
    "hyperbolicity": ["EulerResult", "GGResult", "euler_characteristic",
                      "intersection_polynomial", "leading_constant",
                      "positivity_threshold"],
    "jets": ["JetCurve", "ReparamJet", "compose", "gk_matrix",
             "invariant_minors", "rho"],
    "localization": ["flag_fixed_sum", "flag_residue", "grass_integrate",
                     "run_flag_trials"],
    "residue": ["ResidueForm", "iterated_residue", "residue_job"],
    "thom": ["QTable", "ThomResult", "positivity_check", "ratio_check",
             "thom_polynomial"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestPublicNames:
    def test_all_lists_exactly_the_exported_names(self):
        assert len(NAMES) == 33
        assert sorted(equiloc.__all__) == NAMES

    @pytest.mark.parametrize("module,name", [
        (module, name) for module, names in EXPORTS.items()
        for name in names])
    def test_each_name_is_the_object_of_its_module(self, module, name):
        owner = importlib.import_module(f"equiloc.{module}")
        assert getattr(equiloc, name) is getattr(owner, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from equiloc import *", namespace)
        assert {name: namespace[name] for name in NAMES} == {
            name: getattr(equiloc, name) for name in NAMES}

    @pytest.mark.parametrize("module", [*EXPORTS, "errors"])
    def test_submodules_stay_attributes(self, module):
        assert getattr(equiloc, module) is importlib.import_module(
            f"equiloc.{module}")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="frobnicate"):
            equiloc.frobnicate
        with pytest.raises(ImportError):
            exec("from equiloc import frobnicate", {})


def _form(*order, prefactor=None):
    return equiloc.ResidueForm(parse_polynomial("z1 + l1"), (
        parse_polynomial("l1 - z1"), parse_polynomial("z2 - z1")), order,
        prefactor=prefactor)


#: Each value type, with a function that builds one from fixed inputs.
VALUES = {
    "ResidueForm": lambda: _form(zvar(1), zvar(2)),
    "QTable": lambda: equiloc.QTable.builtin().with_entry(
        5, parse_polynomial("z1^2*z5")),
    "ThomResult": lambda: equiloc.thom_polynomial(2, 1),
    "PositivityReport": lambda: equiloc.positivity_check(
        equiloc.thom_polynomial(2, 1)),
    "RatioReport": lambda: equiloc.ratio_check(2, depth=1),
    "GGResult": lambda: equiloc.intersection_polynomial(1),
    "EulerResult": lambda: equiloc.euler_characteristic(1, 3),
    "ReparamJet": lambda: equiloc.ReparamJet((1, Fraction(1, 2))),
    "JetCurve": lambda: equiloc.JetCurve([[1, 2], [Fraction(3, 2), 0]]),
}


class TestValueTypes:
    """Every value is immutable after construction, as README states."""

    @pytest.mark.parametrize("name", list(VALUES))
    def test_immutable_with_equality_by_fields(self, name):
        value, twin = VALUES[name](), VALUES[name]()
        assert type(value).__name__ == name
        assert value is not twin and value == twin == copy.copy(value)
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = None
        if name == "QTable":  # its entries are a read-only mapping
            with pytest.raises(TypeError):
                value.entries[1] = None
        else:
            assert hash(value) == hash(twin)

    def test_residue_form_defaults_and_collects_its_variables(self):
        form = _form(zvar(1), zvar(2))
        assert form.prefactor == equiloc.Polynomial.one()
        assert form.variables == {zvar(1), zvar(2), wvar(1)}
        assert form == _form(zvar(1), zvar(2),
                             prefactor=equiloc.Polynomial.one())

    @pytest.mark.parametrize("order, message", [
        ((svar("h"), zvar(1), zvar(2)),
         "order entries must be residue variables, got h"),
        ((zvar(1), zvar(1), zvar(2)),
         "repeated residue variable in the order: z1, z1, z2"),
        ((zvar(1),), "residue variables not in the order: z2")])
    def test_residue_form_validates(self, order, message):
        with pytest.raises(InputError) as exc:
            _form(*order)
        assert str(exc.value) == message

    def test_jets_validate(self):
        with pytest.raises(SingularLinearPart):
            equiloc.ReparamJet((0, 1))
        with pytest.raises(SingularLinearPart):
            equiloc.ReparamJet(())
        with pytest.raises(ValueError, match="rows must all have length n"):
            equiloc.JetCurve([[1, 2], [3]])
        assert equiloc.JetCurve([[1], [2]], n=1).n == 1


#: Runs ``cli.main`` on its arguments (none: only the import) and prints,
#: last, its exit code and the package modules loaded before and after,
#: with, after, each of ``dataclasses`` and ``inspect`` that the run loaded
#: (the interpreter's own start-up may have loaded them already).
FOOTPRINT = """
import sys
preloaded = set(sys.modules)
import json
import equiloc.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m == "equiloc" or m.startswith("equiloc.")
                  or m in ("dataclasses", "inspect") and m not in preloaded)
before = loaded()
code = equiloc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, before, loaded()]))
"""

CLI_ONLY = ["equiloc", "equiloc.cli", "equiloc.errors"]


def footprint(*argv) -> tuple[int, list[str], set[str]]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert before == CLI_ONLY
    return code, set(after)


class TestImportFootprint:
    def test_cli_import_loads_no_computing_module(self):
        assert footprint() == (0, set(CLI_ONLY))

    def test_usage_error_loads_no_computing_module(self):
        assert footprint("thom") == (2, set(CLI_ONLY))

    def test_minors_loads_only_jets_and_algebra(self, tmp_path):
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"coefficients": [
            ["1", "-1/2"], ["2/3", "0"], ["-5/4", "3/7"], ["1", "2"]]}))
        code, loaded = footprint("minors", "--n", "2", "--k", "4",
                                 "--jet", str(jet))
        assert code == 0
        assert {"equiloc.jets", "equiloc.algebra"} <= loaded
        assert not loaded & {"equiloc.thom", "equiloc.residue",
                             "equiloc.localization", "equiloc.hyperbolicity"}

    def test_residue_job_loads_only_residue_and_algebra(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"numerator": "z1 + l1",
                                   "denominators": ["l1 - z1", "z2 - z1"],
                                   "order": ["z1", "z2"]}))
        code, loaded = footprint("residue", "--job", str(job))
        assert code == 0
        assert {"equiloc.residue", "equiloc.algebra"} <= loaded
        assert not loaded & {"equiloc.jets", "equiloc.thom",
                             "equiloc.hyperbolicity", "equiloc.localization"}

    @pytest.mark.parametrize("argv", [
        "residue --job {job}", "minors --n 2 --k 4 --jet {jet}",
        "thom --k 4 --codim 2", "gg --n 3", "flag-check --n 3 --d 1 --trials 2",
        "grass-integrate --n 4 --k 2 --class c1^2*c2"],
        ids=lambda argv: argv.split()[0])
    def test_computing_commands_load_no_dataclasses_or_inspect(self, tmp_path,
                                                               argv):
        # the value types are namedtuples, so no module imports dataclasses,
        # and with it inspect
        files = {"job": {"numerator": "z1 + l1",
                         "denominators": ["l1 - z1", "z2 - z1"],
                         "order": ["z1", "z2"]},
                 "jet": {"coefficients": [["1", "-1/2"], ["2/3", "0"],
                                          ["-5/4", "3/7"], ["1", "2"]]}}
        for name, content in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        code, loaded = footprint(*argv.format(job=tmp_path / "job.json",
                                              jet=tmp_path / "jet.json")
                                 .split())
        assert code == 0
        assert "equiloc.algebra" in loaded
        assert not loaded & {"dataclasses", "inspect"}

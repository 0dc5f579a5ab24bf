"""The package's public names and what a process loads to run the CLI.

The package resolves its public names on first access, and each CLI
handler imports its computing modules when it runs, so a subcommand pays
only for the modules it uses.  The import footprint is read in a fresh
interpreter, since this one has loaded every module already."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiloc

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


#: Runs ``cli.main`` on its arguments (none: only the import) and prints,
#: last, its exit code and the package modules loaded before and after.
FOOTPRINT = """
import json, sys
import equiloc.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m == "equiloc" or m.startswith("equiloc."))
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

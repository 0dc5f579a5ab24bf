"""The stage timer ``tools/stages.py``: it runs a real command, prints a
row per stage that ran, passes the command's exit code on, fails loudly
on a stage that no longer exists and leaves no wrapper behind."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from equiloc.algebra import Polynomial
from equiloc.residue import ResidueForm

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stages.py"


@pytest.fixture
def stages():
    spec = importlib.util.spec_from_file_location("stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every attribute of every loaded equiloc module, and of the two
    classes whose methods are stages, by owner."""
    owners = {name: m for name, m in sys.modules.items()
              if name.startswith("equiloc")}
    owners.update(Polynomial=Polynomial, ResidueForm=ResidueForm)
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def test_rows_of_a_thom_run_and_nothing_left_wrapped(stages, capsys):
    for module in ("cli", "hyperbolicity", "jets", "localization", "thom"):
        importlib.import_module(f"equiloc.{module}")
    before = bindings()
    assert stages.main(["--repeat", "1", "--", "thom", "--k", "2"]) == 0
    after = bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        assert all(after[owner][a] is v for a, v in attrs.items()), owner
    out, err = capsys.readouterr()
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert err == ""
    assert rows["thom.residue_form"][0] == "1"
    assert rows["residue.iterated_residue"][0] == "1"
    assert rows["thom.read_codims"][0] == "1"
    assert "cli.main" in rows


def test_a_failing_command_passes_its_exit_code_on(stages, capsys):
    assert stages.main(["--repeat", "1", "--", "thom", "--k", "0"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("cli.main")
    assert err == ""  # the command's JSON error is captured


def test_a_missing_stage_exits_1(stages, capsys, monkeypatch):
    monkeypatch.setitem(stages.STAGES, "thom.no_such_stage", None)
    assert stages.main(["--", "thom", "--k", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "thom.no_such_stage" in err


def test_a_run_that_differs_exits_1(stages, capsys, monkeypatch):
    # a command whose output changes from run to run
    runs = iter(range(10))
    monkeypatch.setattr(stages.cli, "main",
                        lambda argv: print(next(runs)) or 0)
    assert stages.main(["--repeat", "2", "--", "theta", "--n", "2"]) == 1
    assert "differs" in capsys.readouterr().err

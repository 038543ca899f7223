"""Smoke tests: every shipped example must run end to end."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    load("quickstart").main()
    out = capsys.readouterr().out
    assert "JCT" in out and "RUBiS mean latency" in out


def test_profiling_and_placement_runs(capsys):
    load("profiling_and_placement").main()
    out = capsys.readouterr().out
    assert "placement decisions" in out
    assert "physical" in out and "virtual" in out


def test_sla_protection_runs(capsys):
    load("sla_protection").main()
    out = capsys.readouterr().out
    assert "SLA violated" in out  # the breach window is visible
    assert "SLA met" in out  # and the ending is healthy


@pytest.mark.slow
def test_capacity_planning_runs(capsys):
    # half the example's 8-server budget: the same sweep, a fifth the time
    load("capacity_planning").main(budget_pms=4)
    out = capsys.readouterr().out
    assert "recommendation" in out

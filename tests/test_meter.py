"""The work meter, and the boundary it draws: every budget of work is
charged in the library, where its work is done, so the CLI holds no cost
model of its own."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import nufact
from nufact import CapExceeded, Meter

CLI = Path(nufact.__file__).resolve().parent / "cli.py"


def test_meter_refuses_past_its_budget_with_progress_read_at_refusal():
    found = []
    meter = Meter(5, lambda m: f"used {m.used} of {m.budget}, found {len(found)}")
    meter.charge(2)
    found.append("a")
    meter.charge(3)  # lands exactly on the budget
    assert meter.used == 5
    found.append("b")
    with pytest.raises(CapExceeded, match="^used 6 of 5, found 2$"):
        meter.charge()  # one unit by default


def cli_budget_sites(source: str) -> list[str]:
    """Every name CapExceeded and every read of a *_BUDGET or *_CAP
    attribute in the source, with its line."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "CapExceeded":
            sites.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name == "CapExceeded":
            sites.append(f"import {node.name}")
        elif isinstance(node, ast.Attribute) and (
                node.attr == "CapExceeded" or node.attr.endswith(("_BUDGET", "_CAP"))):
            sites.append(f"{node.lineno}: .{node.attr}")
    return sites


def test_cli_holds_no_cost_model():
    assert cli_budget_sites(CLI.read_text(encoding="utf-8")) == []


def test_cli_budget_sites_finds_a_cost_model():
    # negative control: the CLI's charge before div compose, as it was
    # written before the library took it over
    source = """
from . import CapExceeded, divcalc

def cmd_div_compose(args):
    budget = 9 * divcalc.WORD_SEARCH_BUDGET
    if len(args.divisors) > budget:
        raise CapExceeded("over budget")
"""
    assert cli_budget_sites(source) == [
        "import CapExceeded", "5: .WORD_SEARCH_BUDGET", "7: CapExceeded"]

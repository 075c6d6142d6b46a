"""tests/reference.py is the per-n specification the fast routes are
checked against, so it must not use any of them."""

import ast
from pathlib import Path

import pytest

FAST_MODULES = {"sequences", "intervals", "cli"}
FAST_PREFIXES = ("partition_", "check_", "scan", "chain_links")


def fast_routes(source):
    """Every name that source imports, or reads as an attribute, that is
    a fast route: a module of FAST_MODULES or a name with a FAST_PREFIXES
    prefix."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."), *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [name for name in names if name in FAST_MODULES or name.startswith(FAST_PREFIXES)]
    return found


def test_reference_uses_no_fast_route():
    source = (Path(__file__).resolve().parent / "reference.py").read_text()
    assert fast_routes(source) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from ineqscan.sequences import scan", ["sequences", "scan"]),
        ("import ineqscan.intervals", ["intervals"]),
        ("from ineqscan import cli, verifier", ["cli"]),
        ("from ineqscan.verifier import partition_y", ["partition_y"]),
        ("verifier.check_gap(5000)", ["check_gap"]),
        ("sequences.chain_links(1, 9)", ["chain_links"]),
        ("from ineqscan import analytic, verifier\nverifier.make_report", []),
    ],
)
def test_each_kind_of_fast_route_is_found(source, found):
    assert fast_routes(source) == found

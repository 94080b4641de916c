"""Structure checks on the package source."""

import ast
from pathlib import Path

import pytest

import vpdamp

MODULES = sorted(Path(vpdamp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # A helper another module needs is part of its module's public surface.
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from .{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_direct_convolution(path):
    # O(N^2) np.convolve has an O(N log N) replacement in spectral.fft_convolve.
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "convolve"]
    assert not calls, f"{path.name} uses np.convolve: {calls}"

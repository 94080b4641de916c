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


def test_norms_use_batched_eta_tables():
    # to_eta and eta_derivative check the whole state's boundary on every call;
    # the norms build each snapshot's tables once, through spectral.eta_tables.
    path = Path(vpdamp.__file__).parent / "norms.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    calls = [f"line {n}: {name}" for n, name in names if name in ("to_eta", "eta_derivative")]
    assert not calls, f"norms.py transforms mode by mode: {calls}"

"""Structure checks on the package source."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import vpdamp
from vpdamp import cli

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
    # the norms build each snapshot's transform mass once, through spectral.eta_mass.
    path = Path(vpdamp.__file__).parent / "norms.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    calls = [f"line {n}: {name}" for n, name in names if name in ("to_eta", "eta_derivative")]
    assert not calls, f"norms.py transforms mode by mode: {calls}"


def _is_step_limit(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float) and node.value == 10**7
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 10
            and isinstance(node.right, ast.Constant) and node.right.value == 7)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_step_limit_lives_in_spectral(path):
    # spectral.time_steps owns the step limit; a second copy would drift from it
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}" for node in ast.walk(tree) if _is_step_limit(node)]
    if path.name == "spectral.py":
        assert found, "spectral.py has lost its step limit"
    else:
        assert not found, f"{path.name} repeats the 1e7 step limit: {found}"


def _keyed_by_id(node, names):
    """The name of a dict in names that node indexes, or calls a method of, with id(...)."""
    if isinstance(node, ast.Subscript):
        owner, key = node.value, node.slice
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
        owner, key = node.func.value, node.args[0]
    else:
        return None
    name = getattr(owner, "id", None)
    keyed = isinstance(key, ast.Call) and getattr(key.func, "id", None) == "id"
    return name if keyed and name in names else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_certification_cache(path):
    # penrose.strip_width keeps each Equilibrium object's certified strip; a second
    # private cache (weak references, or a module-level dict keyed by id(...), which
    # a freed object's id can reuse) could serve a width certified for another object.
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names = {target.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in getattr(node, "targets", [getattr(node, "target", None)])
                    if isinstance(target, ast.Name)}
    found = [f"line {node.lineno}: {_keyed_by_id(node, module_names)}[id(...)]"
             for node in ast.walk(tree) if _keyed_by_id(node, module_names)]
    if path.name != "penrose.py":
        found += [f"line {node.lineno}: imports weakref" for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(a.name == "weakref" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "weakref"]
    assert not found, f"{path.name} keeps a private certification cache: {found}"


def _parse_documented(block: str):
    return cli.parse(re.sub(r"\s*[;#].*", "", block))


def test_documented_config_blocks_are_the_defaults():
    # README's ini block, the one copy of the config documentation, shows every default
    defaults = cli.parse("[equilibrium]\nname = gaussian\n")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert _parse_documented(readme.split("```ini\n", 1)[1].split("```", 1)[0]) == defaults


# ExperimentConfig fields whose rules Grid, spectral.check_strides and nonlinear.check_modes own
_OWNED = {"k_max", "V", "N_v", "trace_stride", "snapshot_stride", "k"}


def _mentions_owned(node) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _OWNED:
            return True
        if isinstance(sub, ast.Constant) and sub.value in _OWNED:  # v["k_max"]
            return True
    return False


def test_parse_restates_no_owned_rule():
    # cli.parse collects the grid, stride and mode violations from their owners
    # through its check helper; a comparison or finiteness test of its own on
    # one of those values would be a second copy of the rule.
    path = Path(vpdamp.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    parse = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse")
    found = [f"line {node.lineno}" for node in ast.walk(parse)
             if (isinstance(node, ast.Compare)
                 or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "isfinite")
             and _mentions_owned(node)]
    assert not found, f"cli.parse restates a grid, stride or mode rule: {found}"


def test_traced_bindings_resolve():
    # perfbench/tracing.py wraps each (module, attribute) of PATCHES where its
    # callers look it up; a binding a refactor drops would crash a traced run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    patches = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "PATCHES" for t in node.targets))
    pairs = [(row.elts[0].value, row.elts[1].value) for row in patches.elts]
    assert len(pairs) >= 10
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"traced names no longer bound: {missing}"


def _scoped(tree, match) -> list:
    """Enclosing def, dotted, of each node for which match(node) holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _takes_l_over_range(node) -> bool:
    """A loop or comprehension taking l over a range of modes."""
    loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
    for loop in loops:
        callee = getattr(loop.iter, "func", None)
        name = getattr(callee, "id", getattr(callee, "attr", None))
        if getattr(loop.target, "id", None) == "l" and name in ("range", "arange"):
            return True
    return False


def _calls(name):
    """A call of name, as a function or as a method."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_one_mode_convolution_kernel():
    # The coupling sum over l is one Toeplitz matrix product in _Coupling.product,
    # which the stepper's stage and the closure accumulator both call; no loop over l
    # is left (the Picard oracle's loop over the data modes is a different sum and
    # iterates no range).  The closure reads S0 from the phase rows it already
    # builds, not from a dense phase_sum.
    path = Path(vpdamp.__file__).parent / "nonlinear.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scoped(tree, _takes_l_over_range) == []
    assert _scoped(tree, _calls("matmul")) == ["_Coupling.product"]
    assert set(_scoped(tree, _calls("product"))) == {"_Engine._stage", "_Closure.add"}
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert "phase_sum" not in imported


def test_one_closure_path():
    # run accumulates every closure in its step loop; nothing builds a second
    # _Closure to replay stored snapshots through it.
    path = Path(vpdamp.__file__).parent / "nonlinear.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    built = _scoped(tree, lambda node: isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_Closure")
    assert built == ["run"]


def test_one_weighted_sum_in_norms():
    # Every G comes from _G_radii, over the folded (|k|, |eta|) layout: nothing in
    # norms.py mirrors weights onto the full grid, and no other function sums them.
    path = Path(vpdamp.__file__).parent / "norms.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scoped(tree, _calls("concatenate")) == []
    assert _scoped(tree, _calls("sum")) == ["_G_radii"]


def test_root_scan_is_one_product():
    # _dominant_root factors e^{-lambda t} on its 48 x 48 grid into one product over
    # the Gauss-Legendre nodes; a dense laplace_symbol or phase_sum batch would take
    # one complex exponential per grid point and node again.
    path = Path(vpdamp.__file__).parent / "penrose.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for name in ("laplace_symbol", "phase_sum"):
        scopes = _scoped(tree, _calls(name))
        assert scopes and "_dominant_root" not in scopes, (name, scopes)
    assert "_dominant_root" in _scoped(tree, _calls("_gauss_panels"))


def test_l1_primitives_know_no_wavenumber():
    # L(k, lambda) = L_1(lambda/|k|)/k^2: penrose's quadrature evaluates L_1 only, and
    # laplace_symbol alone forms a mode's symbol, so no k or |k| rule reaches these.
    path = Path(vpdamp.__file__).parent / "penrose.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_cutoff", "_symbol", "_gauss_panels", "symbol_on_line"):
        found = sorted({node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
                       & {"k", "ak"})
        found += [arg.arg for arg in defs[name].args.args if arg.arg in ("k", "ak")]
        assert not found, (name, found)


def test_one_fft_padding_rule():
    # spectral.fft_length sizes every zero-padded product: fft_convolve and the Volterra
    # march's splits pad alike, so the march's bit-identity oracle, which calls
    # fft_convolve, compares like with like.  A power-of-two rounding is a second rule.
    for module, name in (("spectral.py", "fft_convolve"), ("linear.py", "_solve_block")):
        path = Path(vpdamp.__file__).parent / module
        tree = ast.parse(path.read_text(), filename=str(path))
        assert name in _scoped(tree, _calls("fft_length")), (module, name)
        assert name not in _scoped(tree, _calls("bit_length")), (module, name)


def test_one_stream_construction():
    # gaussian is the stream pair at u = 0: the catalog builds an Equilibrium in the one
    # stream construction and in zero, so mu, mu', mu_hat and the envelope are written once.
    path = Path(vpdamp.__file__).parent / "equilibria.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_scoped(tree, _calls("Equilibrium"))) == ["_streams", "zero"]


def _used(tree, strings=False) -> set:
    """Names, attributes and imported names a tree mentions; with strings, its str constants."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _attributes(tree) -> Counter:
    """How often each attribute name is read or written in a tree."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_public_names_are_reached():
    # The public surface is what a command, the README's python or perfbench
    # reaches: a public top-level function or class must be used in its own
    # module outside its own def, imported by another module of the package,
    # named in a README python block, or named anywhere under perfbench/
    # (the tracer's PATCHES name their attributes as strings).  A public method or
    # property of a public class must be used as an attribute outside its own def
    # in the package, as an attribute in a README python block, or be named
    # anywhere under perfbench/.  Tests do not count.
    repo = Path(__file__).resolve().parent.parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    readme = [ast.parse(block) for block in
              re.findall(r"```python\n(.*?)```", (repo / "README.md").read_text(), re.S)]
    bench = set()
    for path in sorted((repo / "perfbench").glob("*.py")):
        bench |= _used(ast.parse(path.read_text(), filename=str(path)), strings=True)
    reached = {alias.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    reached |= bench.union(*(_used(block) for block in readme))
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in reached
        and not any(node.name in _used(other) for other in tree.body if other is not node)
    ]
    in_src = sum((_attributes(tree) for tree in trees.values()), Counter())
    outside = bench.union(*(_attributes(block) for block in readme))
    unreached += [
        f"{module}.{cls.name}.{fn.name}"
        for module, tree in trees.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and fn.name not in outside and in_src[fn.name] == _attributes(fn)[fn.name]
    ]
    assert not unreached, f"public names only tests reach: {unreached}"

"""Every public function and class of `src/wlab` is read by `src/wlab`.

A name that only tests call is code the library does not need: it belongs
in the tests' own oracles, or nowhere.  The allowlist names each
exception and its reason; when a reason goes away, so does the name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wlab"

ALLOWED_UNUSED = {
    # bound by name by the benchmark's span tracer (perfbench/spans.py)
    "cmink_inner": "span tracer binding",
    "codazzi_gauss_residuals": "span tracer binding",
    "diff_v": "span tracer binding",
    "normal_basis": "span tracer binding",
    "phase_laplacian_residual": "span tracer binding",
    "validate_chart": "span tracer binding",
    # the paper's evaluators, part of the library's surface
    "remark62_residual": "the flat-normal S^6 system of the paper's Remark 6.2",
    "remark_energy": "the closed-form Hopf-torus Willmore energy",
}


def module_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def public_definitions(tree: ast.Module) -> set[str]:
    """Top-level public functions and classes, and top-level aliases of them."""
    defs = {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    aliases = {target.id for node in tree.body if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Name) and node.value.id in defs
               for target in node.targets if isinstance(target, ast.Name)}
    return {name for name in defs | aliases if not name.startswith("_")}


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name read, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_public_name_is_read_by_the_library():
    trees = module_trees()
    loaded = set().union(*map(loaded_names, trees.values()))
    unused = {name for tree in trees.values() for name in public_definitions(tree)} - loaded
    assert unused == set(ALLOWED_UNUSED), sorted(unused ^ set(ALLOWED_UNUSED))


def test_the_scan_sees_a_test_only_name():
    tree = ast.parse("def used():\n    pass\n\ndef only_tests():\n    used()\n\nalias = used\n")
    assert public_definitions(tree) - loaded_names(tree) == {"only_tests", "alias"}


def test_all_exports_the_public_api_and_no_module():
    import types

    import wlab

    modules = [name for name in wlab.__all__ if isinstance(getattr(wlab, name), types.ModuleType)]
    assert not modules, modules
    assert {"analyze", "build_frame", "Chart", "mink_inner", "wirtinger"} <= set(wlab.__all__)
    assert all(hasattr(wlab, name) for name in wlab.__all__)

"""Every name a module imports is read somewhere in that module, every
public name the package defines is reached from outside the unit tests, the
package's modules import each other without a cycle and read none of each
other's underscore names, no module but the mesh reads cell serials, and
neither the package's start nor a run imports scipy or `numpy.ma`.

The AST of each file under ``src/`` and ``tests/`` is walked: a name bound
by an import and never loaded fails, unless the import's lines say
``# noqa: F401`` or the module lists the name in ``__all__``. Quoted
annotations count as reads of the names they hold.
"""
from __future__ import annotations

import ast
import graphlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mollifem.config import preset

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Imported names of `source` that it never reads, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("noqa: F401" in line for line in
                       lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            read |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    read |= exported(tree)
    return sorted((name for name in bound if name not in read), key=bound.get)


def exported(tree: ast.Module) -> set[str]:
    """The names a module's `__all__` lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_each_kind_of_read():
    source = (
        "import os, sys as system\n"
        "from typing import TYPE_CHECKING\n"
        "from a import b, c  # noqa: F401\n"
        "from d import (e,\n"
        "               f)\n"
        "if TYPE_CHECKING:\n"
        "    from g import H\n"
        "__all__ = ['e']\n"
        "def k(x: 'H') -> None:\n"
        "    return os.sep\n")
    assert unused_imports(source) == ["system", "f"]


def public_definitions(source: str) -> list[str]:
    """The public names that `source` defines at module level (by def,
    class or assignment, not by import), in line order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def names_read(source: str, strings: bool = False) -> set[str]:
    """The names `source` loads, bare or as attributes, or imports by name;
    with `strings`, its string constants too (perfbench/layers.py looks the
    traced callables up by name)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) \
                and not isinstance(node.ctx, ast.Store):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            read.add(node.value)
    return read


def unreached_names(root: Path) -> list[str]:
    """`module.name` for each public module-level name of src/mollifem that
    no file of src/ or perfbench/ and no acceptance check reads, and that
    `mollifem.__all__` does not list."""
    modules = sorted((root / "src/mollifem").glob("*.py"))
    read = set().union(
        *(names_read(p.read_text()) for p in modules),
        *(names_read(p.read_text(), strings=True)
          for p in sorted((root / "perfbench").glob("*.py"))),
        names_read((root / "tests/test_acceptance.py").read_text()))
    read |= exported(ast.parse((root / "src/mollifem/__init__.py").read_text()))
    return [f"{p.stem}.{name}" for p in modules
            for name in public_definitions(p.read_text()) if name not in read]


def test_every_public_name_is_reached():
    # no public name that only unit tests reach: the package, the CLI, the
    # benchmark or an acceptance check reads it, or the package exports it
    assert unreached_names(ROOT) == []


def package_imports(source: str) -> set[str]:
    """The modules of the package that `source`, one of its modules, imports
    anywhere: `TYPE_CHECKING` blocks and function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return found


def import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, over src/mollifem."""
    return {path.stem: package_imports(path.read_text())
            for path in sorted(ROOT.glob("src/mollifem/*.py"))}


def test_the_package_imports_form_no_cycle():
    graph = import_graph()
    assert {"mesh", "curves", "fem", "afem"} <= graph.keys()
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle {err.args[1]}")


def test_the_mesh_imports_no_curve_forcing_or_solver():
    # a mesh is cells and vertices; the curve's incidence with them, the
    # loads on them and the solves over them live in the modules above it
    assert not import_graph()["mesh"] & {"curves", "forcing", "fem", "afem"}


def test_the_layering_check_sees_each_kind_of_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "from . import quadrature as quadr\n"
        "from .geometry import cross2\n"
        "if TYPE_CHECKING:\n"
        "    from .curves import Curve\n"
        "def f():\n"
        "    from .fem import cg\n")
    assert package_imports(source) == {"quadrature", "geometry", "curves",
                                       "fem"}


def serial_reads(source: str) -> list[int]:
    """The lines of `source` that read an attribute named `serial`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "serial")


def test_only_the_mesh_reads_cell_serials():
    # a cache keyed by cell serial is a `mesh.CellCache`: no other module
    # reads a mesh's serials, so no second serial-keyed cache grows beside it
    assert serial_reads("a = m.serial\nm.serials\nb = f(x).serial[0]\n") \
        == [1, 3]
    found = [f"{path.name}:{line}"
             for path in sorted(ROOT.glob("src/mollifem/*.py"))
             if path.name != "mesh.py"
             for line in serial_reads(path.read_text())]
    assert found == []


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, `module.name`) for each underscore name of another package
    module that `source`, one of the package's modules, imports by name or
    reads as an attribute of a package module it imports, in line order.
    Dunder names are not private."""
    tree = ast.parse(source)
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if not node.module:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append((node.lineno, f"{node.module.split('.')[0]}"
                                               f".{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((node.lineno,
                          f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    # a decision two modules need, such as how far the clip may keep a
    # segment outside a cell, is stated once, in a public name
    found = [f"{path.name}:{line} {name}"
             for path in sorted(ROOT.glob("src/mollifem/*.py"))
             for line, name in private_reads(path.read_text())]
    assert found == []


def test_the_privacy_check_sees_each_kind_of_read():
    source = (
        "import numpy as np\n"
        "from . import quadrature as quadr, mesh\n"
        "from .geometry import _TOUCH, BinGrid\n"
        "from .fem import (cg,\n"
        "                  _stiffness)\n"
        "from . import __version__\n"
        "def f(x):\n"
        "    from .forcing import _radial_profile\n"
        "    return (quadr._points, quadr.batches, mesh.Mesh, np._x,\n"
        "            x._y, mesh.__name__)\n")
    assert private_reads(source) == [
        (3, "geometry._TOUCH"), (4, "fem._stiffness"),
        (8, "forcing._radial_profile"), (9, "quadrature._points")]


def cli_imports(modules: set[str], code: str = "") -> str:
    """Those of `modules` that `import mollifem.cli` and then `code` load, as
    a sorted list: the last line a fresh interpreter prints. A top-level
    name in `modules` stands for its whole package."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, mollifem.cli\n{code}\n"
         f"print(sorted(m for m in sys.modules if m in {modules!r} "
         f"or m.partition('.')[0] in {modules!r}))"],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip().splitlines()[-1]


def cli_run(tmp_path, cfg) -> str:
    """The code that runs the CLI on `cfg` into `tmp_path / "out"`."""
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return (f"assert mollifem.cli.main(['run', '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0")


def test_the_cli_imports_neither_scipy_integrate_nor_optimize():
    # scipy.integrate pulls in scipy.optimize: about 0.2 s of every start
    assert cli_imports({"scipy.integrate", "scipy.optimize"}) == "[]"


def plain_config():
    """A short `smooth` run: no curve, a plain density load."""
    base = preset("smooth")
    return replace(base, params=replace(base.params, tau0=0.5))


def curve_config():
    """A short `lshape` run: the mollified load of a 2,048-gon."""
    base = preset("lshape")
    return replace(base, curve_segments=2048,
                   params=replace(base.params, mu=0.8, tau0=0.7, j_max=0))


def test_the_cli_does_not_import_scipy_sparse_linalg(tmp_path):
    # the solver is the package's own CG loop on its own matrix: neither
    # the start nor a plain run loads any scipy module
    assert cli_imports({"scipy.sparse.linalg"}) == "[]"
    run = cli_run(tmp_path, plain_config())
    assert cli_imports({"scipy", "scipy.sparse.linalg"}, run) == "[]"
    assert (tmp_path / "out" / "run.csv").stat().st_size > 0


def test_a_curve_run_does_not_import_scipy_spatial(tmp_path):
    # the curve's proximity queries read the package's own bin grid, and
    # the run loads no other scipy module either
    run = cli_run(tmp_path, curve_config())
    assert cli_imports({"scipy", "scipy.spatial"}, run) == "[]"
    assert (tmp_path / "out" / "run.csv").stat().st_size > 0


@pytest.mark.parametrize("config", [plain_config, curve_config],
                         ids=["plain", "curve"])
def test_a_run_does_not_import_numpy_ma(tmp_path, config):
    # numpy 2.4's `np.unique` without return options reads
    # `np.ma.is_masked`, and its first call imports `numpy.ma` (8-22 ms);
    # the run's set operations are bincounts and sorts instead
    run = cli_run(tmp_path, config())
    assert cli_imports({"numpy.ma"}, run) == "[]"
    assert (tmp_path / "out" / "run.csv").stat().st_size > 0

"""The package's layering, read from its source with ``ast``: no module
reaches into the private names of the algebra or of the correlation
engines, and the algebra rests on the series layer alone."""

import ast
from pathlib import Path

import pytest

from voachain import voa
from voachain.complexes import Sphere, Trace

PACKAGE = Path(voa.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imports(path: Path):
    """(package module, names taken from it) for each import of the file
    from the package: the names are empty where the module itself is
    imported."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "voachain" and not module.startswith("voachain."):
                    continue
                module = module[len("voachain."):]
            if module:
                yield module, [alias.name for alias in node.names]
            else:
                for alias in node.names:
                    yield alias.name, []
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("voachain."):
                    yield alias.name[len("voachain."):], []


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_no_module_imports_a_private_name_of_the_algebra_or_the_engines(path):
    private = [(module, name) for module, names in _imports(path)
               if module in ("voa", "correlators") for name in names if name.startswith("_")]
    assert private == []


def test_the_algebra_imports_only_the_series_layer():
    assert {module for module, _ in _imports(PACKAGE / "voa.py")} == {"series"}


def test_every_value_takes_the_one_route_of_a_surface_record():
    # the sphere and the trace, with handles or without, share one
    # evaluate and one sew: complexes binds no bare-value function, no
    # record wraps a surface to sew handles onto it, and the one sum over
    # the handles is the surface's own, with no module-level twin
    taken = {name for module, names in _imports(PACKAGE / "complexes.py")
             if module == "correlators" for name in names}
    assert not taken & {"sphere_value", "torus_trace"}
    assert Sphere.evaluate is Trace.evaluate and Sphere.sew is Trace.sew
    nodes = [node for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))]
    assert "Sewn" not in {node.name for node in nodes if isinstance(node, ast.ClassDef)}
    assert "_genus_g_sum" not in {node.name for node in nodes if isinstance(node, ast.FunctionDef)}

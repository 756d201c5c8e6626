import ast
import pathlib

import longisurv

# each module may import only modules before it
ORDER = ["errors", "config", "survival", "synthcohort", "diffgraph", "encoders", "model",
         "losses", "metrics", "trainer", "reports", "svgplot", "cli"]
PACKAGE = pathlib.Path(longisurv.__file__).parent


def relative_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def private_names_used(path):
    """Underscore names of other package modules that a module imports or reads
    through a module it imported with ``from . import``."""
    tree = ast.parse(path.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield from (f"{node.module}.{a.name}" for a in node.names
                            if a.name.startswith("_"))
            else:
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def test_every_module_is_layered():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(ORDER)


def test_imports_point_down_the_layers():
    upward = [(name, dep) for i, name in enumerate(ORDER)
              for dep in relative_imports(PACKAGE / f"{name}.py")
              if dep not in ORDER[:i]]
    assert upward == []


def test_every_export_resolves():
    namespace = {}
    exec("from longisurv import *", namespace)       # a stale name raises AttributeError
    assert set(longisurv.__all__) <= set(namespace)


def test_no_module_uses_another_modules_private_names():
    used = [(name, private) for name in ORDER
            for private in private_names_used(PACKAGE / f"{name}.py")]
    assert used == []

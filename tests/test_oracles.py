"""The scalar oracles stay apart from the fast routes: ``oracles`` reads no
fast-route table, and no other module of the package imports ``oracles``.
The shared numerics stay a leaf: ``numerics`` imports no package module."""

import ast
from pathlib import Path

from clusterexp import oracles as O

PACKAGE = Path(O.__file__).parent

# the shared tables and kernels of the fast routes
FAST_TABLES = {"tree_table", "connected_masks", "connected_bits", "_components", "_prufer_decode", "penrose_added",
               "tree_paths", "kruskal_added", "exact_fsum", "_phi_table", "_grand_partition",
               "_independence", "_density_of_states", "Series"}


def test_oracles_name_no_fast_table():
    # an oracle that read a fast table would share that table's bugs
    named = set()
    for node in ast.walk(ast.parse((PACKAGE / "oracles.py").read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert sorted(named & FAST_TABLES) == []


def test_package_does_not_import_oracles():
    # only the tests import the oracles, so no route or command leans on one
    for path in PACKAGE.glob("*.py"):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            else:
                continue
            assert "oracles" not in names, (path.name, ast.dump(node))


def test_numerics_is_a_leaf():
    # every model imports numerics at the top, so it must load no model
    for node in ast.walk(ast.parse((PACKAGE / "numerics.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and (node.module or "").split(".")[0] != "clusterexp", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "clusterexp" for alias in node.names), ast.dump(node)

"""The package's public surface."""

import types

import gpdtools


def test_all_lists_every_public_name():
    # Every name the package imports for its users, and nothing else: a
    # name missing from __all__ is not bound by `from gpdtools import *`.
    public = {
        name
        for name, value in vars(gpdtools).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(gpdtools.__all__)) == len(gpdtools.__all__)
    assert set(gpdtools.__all__) == public


def test_package_imports_only_the_standard_library():
    # Every import in the package is relative, from __future__, or of a
    # standard-library module: the package has no third-party dependency.
    import ast
    import sys
    from pathlib import Path

    src = Path(gpdtools.__file__).parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name != "__future__"
                and name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_row_encoding_lives_in_groupoid():
    # Row compositions are encoded (itemgetter tuples or translated bytes)
    # by groupoid._compositions alone; every other module composes rows
    # through it.
    from pathlib import Path

    src = Path(gpdtools.__file__).parent
    users = {
        path.name
        for path in src.glob("*.py")
        for word in ("itemgetter", ".translate")
        if word in path.read_text()
    }
    assert users == {"groupoid.py"}

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


def test_each_public_name_is_declared_once_in_its_module():
    # Each public name is written once, in the __all__ of the module that
    # binds it, and the package's __all__ is those lists end to end, in
    # this module order.
    import importlib

    everything = []
    for name in (
        "clifford",
        "determination",
        "enumeration",
        "errors",
        "groupoid",
        "inverses",
        "mappings",
    ):
        module = importlib.import_module(f"gpdtools.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        everything += module.__all__
    assert len(everything) == len(set(everything)) == 74
    assert gpdtools.__all__ == everything


def test_readme_library_block_imports_public_names():
    # The README's Library section imports from gpdtools; every name it
    # shows has to be one the package publishes.
    import re
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    library = readme.read_text().split("## Library", 1)[1]
    block = re.search(r"from gpdtools import \((.*?)\)", library, re.S).group(1)
    names = re.sub(r"#.*", "", block).replace(",", " ").split()
    assert len(names) > 20
    assert sorted(set(names) - set(gpdtools.__all__)) == []


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


def test_every_private_name_is_read_in_the_package():
    # A module-level private name that no code in the package reads is
    # dead code, such as a helper that a refactor left behind.
    import ast
    from pathlib import Path

    src = Path(gpdtools.__file__).parent
    trees = [ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                single = isinstance(node, ast.AnnAssign)
                defined.update(
                    n.id
                    for target in ([node.target] if single else node.targets)
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {n for n in defined if n.startswith("_") and not n.endswith("__")}
    assert len(private) > 50
    assert sorted(private - read) == []


def test_caches_are_pinned():
    # The package memoises exactly these functions; a new cache has to be
    # argued for, because a cache holds its tables alive for the process.
    import ast
    from pathlib import Path

    src = Path(gpdtools.__file__).parent
    cached, uses = set(), 0
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                cached.update(
                    node.name
                    for d in node.decorator_list
                    for n in ast.walk(d)
                    if isinstance(n, ast.Name) and n.id == "lru_cache"
                )
            uses += isinstance(node, ast.Name) and node.id == "lru_cache"
            uses += isinstance(node, ast.Attribute) and node.attr == "lru_cache"
    assert cached == {
        "_meet_problems",
        "_block_problems",
        "_map_problems",
        "enumerate_semilattices",
        "enumerate_group_tables",
        "_group_homomorphisms",
        "_compatible_homs",
        "inverse_table",
        "involutions",
        "automorphisms",
        "involutive_automorphisms",
    }
    # No cache is made outside a decorator either.
    assert uses == len(cached)


def test_only_the_public_listings_list_the_isomorphism_search():
    # mappings._isomorphisms yields its maps lazily, so a caller that reads
    # part of the search never builds the rest, and a listing can be
    # factorial in size; only the three public listings materialise it.
    import ast
    from pathlib import Path

    def called(node):
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) or getattr(func, "attr", None)

    src = Path(gpdtools.__file__).parent
    listers = {
        fn.name
        for path in src.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if called(node) in {"tuple", "list", "sorted"}
        and any(called(arg) == "_isomorphisms" for arg in node.args)
    }
    assert listers == {
        "automorphisms",
        "involutive_automorphisms",
        "e_fixed_involutive_automorphisms",
    }


def test_import_leaves_out_multiprocessing():
    # Only a sweep that starts a worker pool imports multiprocessing, which
    # loads socket, pickle and selectors; no other command pays for them.
    # Nor does the library load the command line: its parser is built when
    # `gpdtools.cli` is imported.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(gpdtools.__file__).resolve().parents[1])
    code = (
        "import sys, gpdtools\n"
        "print(sorted({'argparse', 'gpdtools.cli'} & set(sys.modules)))\n"
        "import gpdtools.cli\n"
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nFalse\n", "")

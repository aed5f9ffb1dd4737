"""Rules on the source text, checked on its syntax trees.

Each file is parsed once. This module is not among the files whose names
count as references to the package's public names: its own names (tree_of,
references, ...) would otherwise hide a dead public name of the same
spelling.
"""

import ast
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "orthoposet").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# every file whose names count as references to the package's public names,
# but this one
READERS = sorted(f for d in ("src", "tests", "bench") for f in (ROOT / d).rglob("*.py")
                 if f != Path(__file__).resolve())


@functools.lru_cache(maxsize=None)
def tree_of(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def where(path, node):
    return "%s:%d" % (path.relative_to(ROOT), node.lineno)


def test_package_imports_public_numpy_and_stdlib_names_only():
    # every absolute import names numpy or a standard-library module, and
    # nothing names a private module or name: no dotted part of a module,
    # no imported name and no attribute of a chain rooted at np or numpy
    # (np.linalg._umath_linalg) starts with "_"
    bad = []
    for path in PACKAGE:
        for node in ast.walk(tree_of(path)):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (isinstance(root, ast.Name) and root.id in ("np", "numpy")
                        and node.attr.startswith("_")):
                    bad.append("%s uses the private %s" % (where(path, node), node.attr))
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                parts = [part for module in modules for part in module.split(".")]
            elif isinstance(node, ast.ImportFrom):
                modules = [] if node.level else [node.module]
                parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    bad.append("%s imports %s" % (where(path, node), module))
            bad += ["%s imports the private %s" % (where(path, node), part)
                    for part in parts if part.startswith("_")]
    assert not bad, bad


def test_every_top_level_import_is_used():
    # in the package and in the tests, each name imported at the top level
    # appears as a name in its module
    bad = []
    for path in PACKAGE + TESTS:
        tree = tree_of(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                bound = [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
            else:
                continue
            bad += ["%s imports %s, never used" % (where(path, node), name)
                    for name in bound if name not in used]
    assert not bad, bad


def test_every_open_names_an_encoding():
    # a call to open, or to an .open method, in the package passes
    # encoding=: without it the locale decides, ASCII under LC_ALL=C
    bad = []
    for path in PACKAGE:
        for node in ast.walk(tree_of(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "open" and not any(k.arg == "encoding" for k in node.keywords):
                bad.append("%s opens a file without an encoding" % where(path, node))
    assert not bad, bad


def references(nodes):
    "the names, attributes and imported name parts under nodes; a string is none"
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def test_every_public_top_level_name_is_referenced():
    # each public def, class or assigned name (a module constant) at the top
    # level of the package is named in another file of src, tests or bench,
    # or elsewhere in its own module
    named = {path: references(tree_of(path).body) for path in READERS}
    bad = []
    for path in PACKAGE:
        elsewhere = set().union(*(named[q] for q in READERS if q != path))
        body = tree_of(path).body
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for top in targets for t in ast.walk(top)
                           if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if (not name.startswith("_") and name not in elsewhere
                        and name not in references(n for n in body if n is not node)):
                    bad.append("%s defines %s, never referenced" % (where(path, node), name))
    assert not bad, bad


def test_no_function_calls_itself():
    # a function that calls itself, by its bare name or as self./cls.,
    # fails on deep enough input with RecursionError
    bad = []
    for path in PACKAGE:
        for node in ast.walk(tree_of(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = set()
            for sub in ast.walk(node):
                func = sub.func if isinstance(sub, ast.Call) else None
                if isinstance(func, ast.Name):
                    calls.add(func.id)
                elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                      and func.value.id in ("self", "cls")):
                    calls.add(func.attr)
            if node.name in calls:
                bad.append("%s %s calls itself" % (where(path, node), node.name))
    assert not bad, bad


def test_no_module_reads_a_private_attribute_of_another():
    # x._name, not a dunder and with x not self or cls, is read only in a
    # module that defines _name itself: as a def, a class, an assigned name
    # or an assigned attribute
    bad = []
    for path in PACKAGE:
        nodes = list(ast.walk(tree_of(path)))
        own = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        own |= {node.attr for node in nodes
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
        own |= {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        for node in nodes:
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            name, owner = node.attr, node.value
            if (name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                    and not (isinstance(owner, ast.Name) and owner.id in ("self", "cls"))
                    and name not in own):
                bad.append("%s reads %s, which its module does not define"
                           % (where(path, node), name))
    assert not bad, bad


def test_only_the_poset_core_reads_relations():
    # the closure's set of name pairs stays out of the solve, verify and
    # oracle paths: every other module reads the order from a poset's
    # relation_index, hasse pairs or masks
    bad = ["%s reads .relations" % where(path, node)
           for path in PACKAGE if path.name != "poset.py"
           for node in ast.walk(tree_of(path))
           if isinstance(node, ast.Attribute) and node.attr == "relations"]
    assert not bad, bad

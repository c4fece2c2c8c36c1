"""The library's imports, memos and domain errors: every name imported is
used, the modules import one way down a fixed order and only at module
level, importing the package and its CLI loads no heavy standard module,
only cosets.py reads a coset function's rep-keyed view or names the coset
table's memo, the library's memos, at any depth, are the seven listed, and
each domain-rule message is raised from one place.

Each ``src/constagalois/*.py`` except the package's ``__init__.py``
(whose imports are its re-exports) is parsed with ``ast``; an imported
name counts as used when it is read anywhere in the module, annotations
included.  ``from __future__`` imports are directives, not names.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "constagalois")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_guard_sees_an_unused_import():
    source = "import math\nfrom typing import List, Optional\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "math"), (2, "Optional")]


def test_library_modules_use_every_import():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            unused = unused_imports(fh.read())
        if unused:
            offenders[os.path.basename(path)] = unused
    assert offenders == {}


# the library's modules, bottom first: each imports only from modules
# before it.  The package __init__ loads every module, so a runtime import
# check could not see a cycle; this one reads the source.
LAYERS = ["numtheory", "packed", "gf", "polyring", "cosets", "codes", "duality",
          "existence", "oracle", "cli"]


def layering_faults(source: str, module: str):
    """(line, text) for each import of the module made inside a function or
    class, and each ``from .x import`` whose x is not a module before it
    in LAYERS."""
    tree = ast.parse(source)
    below = LAYERS[:LAYERS.index(module)]
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            faults += [(inner.lineno, "nested import") for inner in ast.walk(node)
                       if isinstance(inner, (ast.Import, ast.ImportFrom))]
        elif isinstance(node, ast.ImportFrom) and node.level and node.module not in below:
            faults.append((node.lineno, f"from .{node.module or ''} import"))
    return sorted(set(faults))


def test_guard_sees_a_nested_and_an_upward_import():
    source = ("from .numtheory import p_split\nfrom .polyring import Poly\n"
              "from . import cli\n"
              "def f():\n    from .packed import PackedRing\n"
              "class C:\n    import math\n")
    assert layering_faults(source, "gf") == [
        (2, "from .polyring import"), (3, "from . import"),
        (5, "nested import"), (7, "nested import")]


def test_library_modules_import_one_way_at_module_level():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module == "__init__":
            continue
        with open(path, encoding="utf-8") as fh:
            faults = layering_faults(fh.read(), module)
        if faults:
            offenders[module] = faults
    assert offenders == {}


def attribute_reads(source: str, attr: str):
    """Line numbers where the module reads ``<anything>.attr``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def test_guard_sees_an_attribute_read():
    source = "x = phi.assignment\nphi.assignment = {}\nassignment = 1\n"
    assert attribute_reads(source, "assignment") == [1]


def test_only_cosets_reads_a_coset_function_by_rep():
    # a coset function holds its values in coset order; the rep-keyed
    # ``assignment`` view is for output and for tests, and only cosets.py
    # builds or reads it
    offenders = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "cosets.py":
            continue
        with open(path, encoding="utf-8") as fh:
            lines = attribute_reads(fh.read(), "assignment")
        if lines:
            offenders[os.path.basename(path)] = lines
    assert offenders == {}


def name_lines(source: str, name: str):
    """Line numbers where the module names ``name``: as a variable, as an
    attribute, or in an import."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, (ast.Import, ast.ImportFrom))
                      and any(alias.name == name for alias in node.names)))


def test_guard_sees_each_naming():
    source = ("from .cosets import _coset_class\nx = cosets._coset_class\n"
              "y = _coset_class(1)\nz = coset_class\n")
    assert name_lines(source, "_coset_class") == [1, 2, 3]


def test_only_cosets_reads_the_coset_table():
    # the q-coset table of a class is read through CodeParams (cosets_on,
    # images, coset_of); no other module knows the memo or its layout
    offenders = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "cosets.py":
            continue
        with open(path, encoding="utf-8") as fh:
            lines = name_lines(fh.read(), "_coset_class")
        if lines:
            offenders[os.path.basename(path)] = lines
    assert offenders == {}


def memo_names(source: str, module: str):
    """The memos of a module at any depth, each named by its scope: the
    functions decorated with ``cache``, ``functools.cache`` or
    ``functools.lru_cache(...)``, and the names and attributes assigned
    such a call."""

    def is_memo(node):
        while isinstance(node, ast.Call):
            node = node.func
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in ("cache", "lru_cache")

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(map(is_memo, child.decorator_list)):
                found.append(".".join(scope + [child.name]))
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Call) \
                    and is_memo(child.value):
                found.extend(".".join(scope + [getattr(target, "id", None) or target.attr])
                             for target in child.targets
                             if isinstance(target, (ast.Name, ast.Attribute)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [module])
    return found


def test_guard_sees_each_memo_spelling():
    source = ("import functools\nfrom functools import cache\n"
              "@cache\ndef a(x): pass\n@functools.cache\ndef b(x): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef c(): pass\n"
              "d = functools.cache(dict)\n"
              "def f():\n    @functools.cache\n    def inner(t): pass\n"
              "class C:\n    def __init__(self):\n        self.e = cache(dict)\n"
              "@property\ndef g(self): pass\n")
    assert memo_names(source, "m") == ["m.a", "m.b", "m.c", "m.d", "m.f.inner",
                                       "m.C.__init__.e"]


# the library's memos; each is module-level and lives for the process
MEMOS = ["cli.build_parser", "codes.coset_poly", "cosets._coset_class",
         "cosets._interned_params", "existence.selfdual_families", "gf.make_field",
         "gf._interned_embedding"]


def test_library_memos_are_the_listed_seven():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += memo_names(fh.read(), os.path.basename(path)[:-3])
    assert sorted(found) == sorted(MEMOS)


# dataclasses pulls in inspect, and inspect ast, dis and tokenize; none of
# them is needed to run the library or its CLI
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_package_import_loads_no_heavy_module():
    # -S keeps site-packages start-up hooks (.pth files) out of the check
    script = (f"import sys; sys.path.insert(0, {os.path.dirname(SRC)!r}); "
              "import constagalois, constagalois.cli; "
              f"print(','.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", script], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def raised_messages(source: str, module: str):
    """{message: [qualified name of each function raising it]} for every
    ``raise Error("literal")`` in the module's source; an f-string's
    message is its literal text before the first placeholder, stripped."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            message = None
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and child.exc.args):
                message = child.exc.args[0]
                if isinstance(message, ast.JoinedStr) and message.values:
                    message = message.values[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                found.setdefault(message.value.strip(), []).append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [module])
    return found


def test_guard_sees_each_raise_of_a_message():
    source = ("def f(h):\n    raise ValueError('bad h')\n"
              "class C:\n    def g(self):\n        if 1:\n            raise ValueError('bad h')\n"
              "def k(h):\n    raise ValueError(f'bad h {h!r}')\n")
    assert raised_messages(source, "m") == {"bad h": ["m.f", "m.C.g", "m.k"]}


# one home per domain rule, and one for the CLI's formats; the oracle keeps
# its own coset check, as its independent reference
SINGLE_SOURCE = {
    "h must lie in [0, e]": ["duality._galois_h"],
    "s must be coprime to n'r": ["cosets.CodeParams.images", "cosets.q_cosets",
                                 "oracle.naive_cosets"],
    "enumeration too large": ["codes._check_enum_size"],
    "negative enumeration cap": ["codes._enum_cap"],
    "unknown format": ["cli._style"],
    "coset function belongs to different params": ["cosets.check_phi"],
    "coset belongs to different params": ["cosets.check_coset"],
}


def test_each_domain_rule_is_raised_from_one_place():
    raisers = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            for message, where in raised_messages(fh.read(), module).items():
                raisers.setdefault(message, []).extend(where)
    assert {message: raisers.get(message) for message in SINGLE_SOURCE} == SINGLE_SOURCE


def test_every_existence_witness_goes_through_one_check(monkeypatch):
    # _witness is the one place that checks t*phi = phibar for a witness
    from constagalois import CosetFunction, derive_params, galois_selfdual_exists
    from constagalois.existence import iso_selfdual_exists, selfdual_families

    cases = [derive_params(2, 1, 2, 1), derive_params(5, 1, 2, -1)]  # (i), (ii)
    selfdual_families.cache_clear()
    assert all(galois_selfdual_exists(params, 0) for params in cases)
    selfdual_families.cache_clear()
    for params in cases:  # each record built with the real predicate ...
        selfdual_families(params).iso
    monkeypatch.setattr(CosetFunction, "act_is_complement", lambda phi, t: False)
    for params in cases:
        # ... builds its Galois witnesses on first ask, so this reaches the
        # Galois path alone, under the broken predicate
        with pytest.raises(AssertionError, match="witness"):
            galois_selfdual_exists(params, 0)
    selfdual_families.cache_clear()  # every reader rebuilds the record
    for params in cases:
        with pytest.raises(AssertionError, match="witness"):
            iso_selfdual_exists(params)
        with pytest.raises(AssertionError, match="witness"):
            galois_selfdual_exists(params, 0)
        with pytest.raises(AssertionError, match="witness"):
            selfdual_families(params).iso

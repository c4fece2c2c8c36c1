"""The library's imports: every name imported is used, and importing
the package and its CLI loads no heavy standard module.

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

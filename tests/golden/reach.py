#!/usr/bin/env python3
"""List the library functions that the golden corpus and the demos never enter.

Replays every record of ``corpus.json`` (as ``regen.py`` does) and then
runs each ``demos/*.py`` script, all in this one interpreter under
``sys.setprofile``, and prints one line per ``def`` in
``src/constagalois`` that was never called, as ``module.Qual.name``
(nested functions keep their enclosing names), sorted.  A count goes to
stderr.

    python tests/golden/reach.py

Run it in a fresh interpreter: the library's ``functools`` memos, once
filled, answer without entering the functions behind them, so a process
that has already run other code under-reports.  Run from the repository
root (``src/`` is put on the path); standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import runpy
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LIBRARY = os.path.join(ROOT, "src", "constagalois")
DEMOS = os.path.join(ROOT, "demos")


def library_defs():
    """{(file, first line of its code object): qualified name} for every def
    of the library; a decorated def's code starts at its first decorator."""
    defs = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs[(path, first)] = ".".join(scope + [child.name])
                visit(child, path, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            else:
                visit(child, path, scope)

    for path in sorted(glob.glob(os.path.join(LIBRARY, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), path, [os.path.basename(path)[:-3]])
    return defs


def entered_codes():
    """The code objects entered while the corpus and the demos run."""
    from regen import load_corpus, run_case

    demos = sorted(glob.glob(os.path.join(DEMOS, "*.py")))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for record in load_corpus():
            run_case(record["argv"])
        for path in demos:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(path, run_name="__main__")
    finally:
        sys.setprofile(None)
    return entered


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    defs = library_defs()
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in entered_codes()}
    unreached = sorted(name for key, name in defs.items() if key not in reached)
    print("\n".join(unreached))
    print(f"{len(defs) - len(unreached)} of {len(defs)} library functions reached",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

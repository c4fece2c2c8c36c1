"""Byte-for-byte replay of the golden CLI corpus (tests/golden/corpus.json).

The corpus pins stdout and exit codes of every subcommand, so a change
of representation or algorithm that moves any canonical choice shows
here.  Rewrite it with ``python tests/golden/regen.py --write`` only when
an output change is intended.
"""

import pytest

from golden.regen import load_corpus, run_case

CORPUS = load_corpus()


@pytest.mark.parametrize("record", CORPUS, ids=[r["name"] for r in CORPUS])
def test_golden_cli_output(record):
    assert run_case(record["argv"]) == (record["exit"], record["stdout"])

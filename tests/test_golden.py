"""Byte-for-byte replay of the golden CLI corpus (tests/golden/corpus.json).

The corpus pins stdout and exit codes of every subcommand, so a change
of representation or algorithm that moves any canonical choice shows
here.  ``python tests/golden/regen.py --write`` records only the
``CASES`` entries not yet in the corpus; to re-record a case whose
output is meant to change, delete its entry first.
"""

import pytest

from golden.regen import CASES, load_corpus, run_case

CORPUS = load_corpus()


@pytest.mark.parametrize("record", CORPUS, ids=[r["name"] for r in CORPUS])
def test_golden_cli_output(record):
    assert run_case(record["argv"]) == (record["exit"], record["stdout"])


def test_every_case_recorded():
    recorded = {record["name"]: record["argv"] for record in CORPUS}
    assert {name: argv for name, argv in CASES} == recorded

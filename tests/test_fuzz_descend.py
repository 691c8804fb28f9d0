"""One edit to a committed descent datum never breaks ``descend``'s contract.

The property and its edits are those of ``tools/fuzz_descend.py``, which
runs many more examples: each edited datum of the ``point-1x2`` corpus data
or of ``chain-rep-and-lower`` at bound 2 goes through ``cli.main`` with
``--check``, ``--glue``, ``--covproj`` and ``--main1``; every exit code is
0, 1 or 2, exit 2 prints one ``error:`` line, nothing else escapes, and a
datum ``--check`` accepts has no repeated carrier element and passes
``--main1``.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("fuzz_descend", ROOT / "tools" / "fuzz_descend.py")
fuzz_descend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fuzz_descend)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fuzz_descend.edited_data())
def test_one_edit_to_a_datum_keeps_the_descend_contract(case):
    fuzz_descend.check(case)


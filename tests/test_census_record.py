"""The golden census record: which classes each size holds, not only how
many.

`EXPECTED` pins each size's totals; `census_record.json` pins, for every
n <= 7, each pairing's orientable and non-orientable kept counts and the
sha256 of the sorted orientable and non-orientable signatures (one per
line, each with its newline).  A change to the canonical form, or a class
moved between pairings, keeps every total but moves this record.  It
holds no nodes or prune counters, so changes to the filter depth or to
the kernel's search do not move it.

Regenerate an entry with `record_entry(census(n))` for each size, and
only with the reason stated in CHANGES.md.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from conftest import census
from linkcensus.search import CensusResult

RECORD = json.loads((Path(__file__).parent / "census_record.json").read_text())


def _digest(sigs) -> str:
    return hashlib.sha256("".join(f"{sig}\n" for sig in sorted(sigs))
                          .encode()).hexdigest()


def record_entry(result: CensusResult) -> dict:
    """The record's entry for one size: [index, orientable, non-orientable]
    kept per pairing, then the digests of each orientability's classes."""
    return {
        "pairings": [[r.index, len(r.orient_sigs), len(r.nonor_sigs)]
                     for r in result.rows],
        "orientable_sha256": _digest(s for r in result.rows for s in r.orient_sigs),
        "nonorientable_sha256": _digest(s for r in result.rows for s in r.nonor_sigs),
    }


nightly = pytest.mark.skipif(os.environ.get("LINKCENSUS_NIGHTLY") != "1",
                             reason="size-7 census takes ~3 minutes; "
                             "set LINKCENSUS_NIGHTLY=1")


@pytest.mark.parametrize("n", [*range(1, 7), pytest.param(7, marks=nightly)])
def test_census_matches_the_record(n):
    assert record_entry(census(n)) == RECORD[str(n)]

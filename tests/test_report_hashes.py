"""tools/report_hashes.py against a pinned report hash."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "report_hashes", ROOT / "tools" / "report_hashes.py")
report_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_hashes)


def test_report_hash_matches_the_golden_hash():
    # the same value as SEARCH_HASHES["2-1-3"] in test_golden_reports.py
    (name, pen, kwargs), = [s for s in report_hashes.SEARCHES
                            if s[0] == "2-1-3"]
    assert report_hashes.report_hash(pen, kwargs) == \
        "cdad3d29c4d22a6e0e741d51bb869f5b46705bc77874c1128c963bee36ce8aba"


def test_search_names_are_distinct():
    names = [name for name, _, _ in report_hashes.SEARCHES]
    assert len(names) == len(set(names)) == 31

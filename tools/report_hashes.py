"""Print the SHA-256 of fixed bucket_search reports and the club checks.

    python3 tools/report_hashes.py [--src DIR] > hashes.txt

Each line names one search and gives the SHA-256 of
json.dumps(report.to_json(), sort_keys=True), the hash that
tests/test_golden_reports.py pins; the last five lines give
verify_club_uniqueness.  The searches cover plain, modulo_twist, paranoid,
two-worker and sampled runs.  Run it on two trees (DIR is the tree's src
directory, by default this repository's) and compare the outputs with
diff: a change that keeps every report byte-identical prints the same
lines.  The whole list takes about a minute and a half (78 to 105 s on
one core of a 2-core x86-64 machine, Python 3.11), most of it the
paranoid search at (2,1,4) and the modulo_twist search at (2,1,5)
(15 s), the one search here outside paranoid that sends pairs to
_classify_core.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, (p, e, n), bucket_search keyword arguments)
SEARCHES = (
    ("2-1-3", (2, 1, 3), {}),
    ("3-1-3", (3, 1, 3), {}),
    ("2-2-2", (2, 2, 2), {}),
    ("2-1-1", (2, 1, 1), {}),
    ("3-1-1", (3, 1, 1), {}),
    ("2-1-2", (2, 1, 2), {}),
    ("2-2-1", (2, 2, 1), {}),
    ("2-1-4", (2, 1, 4), {}),
    ("2-2-3", (2, 2, 3), {}),
    ("2-1-4-twist", (2, 1, 4), {"modulo_twist": True}),
    ("2-1-4-paranoid", (2, 1, 4), {"paranoid": True}),
    ("2-1-4-workers2", (2, 1, 4), {"workers": 2}),
    ("3-1-3-paranoid-twist", (3, 1, 3),
     {"paranoid": True, "modulo_twist": True}),
    ("3-1-3-twist-workers2", (3, 1, 3), {"modulo_twist": True, "workers": 2}),
    ("5-1-3-twist", (5, 1, 3), {"budget": 5 ** 9, "modulo_twist": True}),
    ("2-1-5-twist", (2, 1, 5), {"budget": 2 ** 25, "modulo_twist": True}),
    ("2-2-3-twist", (2, 2, 3), {"modulo_twist": True}),
    ("2-1-3-paranoid", (2, 1, 3), {"paranoid": True}),
    ("2-2-2-paranoid", (2, 2, 2), {"paranoid": True}),
    ("2-1-3-twist-workers2", (2, 1, 3), {"modulo_twist": True, "workers": 2}),
    ("2-1-6-sample", (2, 1, 6), {"budget": 1000, "sample": 300}),
    ("2-1-4-sample", (2, 1, 4), {"sample": 2000}),
    ("3-1-3-sample", (3, 1, 3), {"sample": 3000}),
    ("2-1-5-twist-sample", (2, 1, 5), {"modulo_twist": True, "sample": 3000}),
    ("2-2-3-sample", (2, 2, 3), {"sample": 3000}),
    ("2-1-4-twist-sample", (2, 1, 4), {"modulo_twist": True, "sample": 20000}),
    ("5-1-3-sample", (5, 1, 3), {"sample": 2000}),
    ("2-1-7-sample", (2, 1, 7), {"sample": 300}),
    ("3-1-4-sample", (3, 1, 4), {"sample": 300}),
    ("2-1-6-twist-sample", (2, 1, 6), {"modulo_twist": True, "sample": 20000}),
    ("3-1-4-twist-sample", (3, 1, 4), {"modulo_twist": True, "sample": 20000}),
)
# ((p, e, n), verify_club_uniqueness keyword arguments)
CLUBS = (((2, 1, 3), {}), ((3, 1, 3), {}), ((2, 1, 4), {}), ((2, 2, 3), {}),
         ((5, 1, 3), {"budget": 5 ** 9}))


def report_hash(pen, kwargs) -> str:
    """SHA-256 of the sorted-key JSON of bucket_search(*pen, **kwargs)."""
    from linsetlab.classify import bucket_search
    report = bucket_search(*pen, **kwargs).to_json()
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def lines():
    """One 'name hash' line per search, then one per club check."""
    from linsetlab.classify import verify_club_uniqueness
    for name, pen, kwargs in SEARCHES:
        yield f"{name} {report_hash(pen, kwargs)}"
    for pen, kwargs in CLUBS:
        yield "verify-{}-{}-{} {}".format(
            *pen, verify_club_uniqueness(*pen, **kwargs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the linsetlab package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

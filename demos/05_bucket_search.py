"""
Exhaustive fingerprint-bucket searches
======================================

Scan every q-polynomial over a small field, bucket the graphs by their
exact principal-minor fingerprint (each bucket is named by the
fingerprint's 64-bit digest), classify every equal-set pair inside each
bucket, and confirm that no pair falls outside the expected cases.
"""

import json

from linsetlab import bucket_search, verify_club_uniqueness

# all 3^3 = 19683 coefficient vectors at (q, n) = (3, 3); pairs inside a
# bucket share a linear set and must classify as scalar or perp multiples
report = bucket_search(3, 1, 3)
print("ids visited:", report.params["visited"], "kept:", report.scanned)
print("buckets:", len(report.buckets))
print("case histogram:", dict(report.histogram))
print("anomalies:", report.anomalies)
print("theorem confirmed:", report.theorem_confirmed)
print(report.summary_csv())

# the search is deterministic: a parallel run merges chunks in submission
# order and reproduces the same report
again = bucket_search(3, 1, 3, workers=2)
print("parallel run identical:",
      json.dumps(again.to_json(), sort_keys=True)
      == json.dumps(report.to_json(), sort_keys=True))

# sampling mode covers fields whose full scan would be too large
sampled = bucket_search(2, 1, 6, sample=2000)
print("sampled", sampled.params["sample"], "ids at (2,6); anomalies:",
      len(sampled.anomalies))

# clubs admit only scalar partners: every bucket holding a club is a
# single twist class
print("club uniqueness at (2,4):", verify_club_uniqueness(2, 1, 4))

"""Check the output of perfbench/run.py runs.

    python3 .github/bench_check.py OUTPUT N

prints the correct, attempted and failed figures of each JSON report line
(the lines that start with '{"correct"') in the file OUTPUT, and exits 1
unless there are exactly N of them, each correct with no op failed.
"""

import json
import sys

path, want = sys.argv[1], int(sys.argv[2])
with open(path, encoding="utf-8") as fh:
    reports = [json.loads(line) for line in fh
               if line.startswith('{"correct"')]
for r in reports:
    print({k: r[k] for k in ("correct", "attempted", "failed")})
sys.exit(len(reports) != want
         or any(r["correct"] is not True or r["failed"] != 0 for r in reports))

"""Check the output of perfbench/run.py runs.

    python3 .github/bench_check.py OUTPUT N

prints the correct, attempted and failed figures of each JSON report line
(the lines that start with '{"correct"') in the file OUTPUT, and exits 1
unless there are exactly N of them, each correct with no op failed and each
carrying exactly the metric names of BENCHMARK.json: its end_to_end names
(an untraced run) or its per_layer names (a traced run).  A report with a
NaN or an infinity, which json.dumps prints but JSON does not allow, stops
the check with an error.
"""

import json
import sys
from pathlib import Path


def _refuse(token):
    raise ValueError(f"{token} in a report line is not JSON")


bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))
names = [{m["name"] for m in bench[key]} for key in ("end_to_end", "per_layer")]
path, want = sys.argv[1], int(sys.argv[2])
with open(path, encoding="utf-8") as fh:
    reports = [json.loads(line, parse_constant=_refuse) for line in fh
               if line.startswith('{"correct"')]
for r in reports:
    r["named"] = set(r["metrics"]) in names
    print({k: r[k] for k in ("correct", "attempted", "failed", "named")})
sys.exit(len(reports) != want
         or any(r["correct"] is not True or r["failed"] != 0 or not r["named"]
                for r in reports))

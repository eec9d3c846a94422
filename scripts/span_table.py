#!/usr/bin/env python3
"""Per-op layer table of one span in a chrome-trace JSON export.

Every instance of <span> counts as one op. For each name among its direct
children the table prints the median over ops of the time spent in that
child (0 in an op without it), then the median uncovered remainder (the
span minus all its direct children) and the median coverage share (the
children's part of the span). Times are in milliseconds.

Usage: scripts/span_table.py <trace.json> <span>
"""

import json
import statistics
import sys
from collections import defaultdict


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: span_table.py <trace.json> <span>", file=sys.stderr)
        return 2
    path, name = sys.argv[1], sys.argv[2]
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    begins, closed = {}, {}  # span id -> its B event; -> (name, parent, ms)
    for e in events:
        span = e["args"]["span"]
        if e["ph"] == "B":
            begins[span] = e
        elif e["ph"] == "E":
            b = begins.pop(span)
            closed[span] = (b["name"], b["args"]["parent"], (e["ts"] - b["ts"]) / 1e3)
    ops = {span: ms for span, (n, _, ms) in closed.items() if n == name}
    if not ops:
        print(f"span_table: no {name!r} span in {path}", file=sys.stderr)
        return 1
    per_op = defaultdict(lambda: defaultdict(float))  # op -> child -> ms
    for child, parent, ms in closed.values():
        if parent in ops:
            per_op[parent][child] += ms
    names = sorted({child for times in per_op.values() for child in times})
    print(f"{name}: {len(ops)} ops, median {statistics.median(ops.values()):.3f} ms")
    for child in names:
        median = statistics.median(per_op[op][child] for op in ops)
        print(f"  {child:<32} {median:9.3f} ms")
    covered = {op: sum(per_op[op].values()) for op in ops}
    remainder = statistics.median(ops[op] - covered[op] for op in ops)
    share = statistics.median(covered[op] / ops[op] for op in ops if ops[op] > 0)
    print(f"  {'(uncovered remainder)':<32} {remainder:9.3f} ms")
    print(f"  {'(coverage share)':<32} {100 * share:8.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())

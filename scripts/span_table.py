#!/usr/bin/env python3
"""Per-op layer table of one span in a chrome-trace JSON export.

Every instance of <span> counts as one op. For each name among its direct
children the table prints the median over ops of the time spent in that
child (0 in an op without it), then the median uncovered remainder (the
span minus all its direct children) and the median coverage share (the
children's part of the span). Times are in milliseconds.

Given a base trace as well, it prints both tables side by side: each row
holds the base median, the median of <trace> and their ratio (trace over
base), for every child either trace has, then both remainders and both
coverage shares.

Usage: scripts/span_table.py <trace.json> <span> [<base-trace.json>]
"""

import json
import statistics
import sys
from collections import defaultdict


def layer_table(path, name):
    """(ops, median op ms, {child: median ms}, remainder ms, share), or None
    when the trace has no <name> span."""
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
        return None
    per_op = defaultdict(lambda: defaultdict(float))  # op -> child -> ms
    for child, parent, ms in closed.values():
        if parent in ops:
            per_op[parent][child] += ms
    names = {child for times in per_op.values() for child in times}
    children = {c: statistics.median(per_op[op][c] for op in ops) for c in names}
    covered = {op: sum(per_op[op].values()) for op in ops}
    remainder = statistics.median(ops[op] - covered[op] for op in ops)
    share = statistics.median(covered[op] / ops[op] for op in ops if ops[op] > 0)
    return len(ops), statistics.median(ops.values()), children, remainder, share


def ratio(change, base):
    return f"{change / base:7.3f}x" if base > 0 else f"{'-':>8}"


def main() -> int:
    if len(sys.argv) not in (3, 4):
        print("usage: span_table.py <trace.json> <span> [<base-trace.json>]", file=sys.stderr)
        return 2
    name = sys.argv[2]
    table = layer_table(sys.argv[1], name)
    if table is None:
        return 1
    ops, median, children, remainder, share = table
    if len(sys.argv) == 3:
        print(f"{name}: {ops} ops, median {median:.3f} ms")
        for child in sorted(children):
            print(f"  {child:<32} {children[child]:9.3f} ms")
        print(f"  {'(uncovered remainder)':<32} {remainder:9.3f} ms")
        print(f"  {'(coverage share)':<32} {100 * share:8.1f} %")
        return 0
    base = layer_table(sys.argv[3], name)
    if base is None:
        return 1
    b_ops, b_median, b_children, b_remainder, b_share = base
    print(f"{name}: base {b_ops} ops, median {b_median:.3f} ms; "
          f"trace {ops} ops, median {median:.3f} ms ({ratio(median, b_median).strip()})")
    print(f"  {'':<32} {'base ms':>9} {'trace ms':>9} {'ratio':>8}")
    for child in sorted(children.keys() | b_children.keys()):
        was, now = b_children.get(child, 0.0), children.get(child, 0.0)
        print(f"  {child:<32} {was:9.3f} {now:9.3f} {ratio(now, was)}")
    print(f"  {'(uncovered remainder)':<32} {b_remainder:9.3f} {remainder:9.3f}")
    print(f"  {'(coverage share, %)':<32} {100 * b_share:9.1f} {100 * share:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

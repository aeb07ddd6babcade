#!/usr/bin/env python3
"""Per-superstep layer breakdown of a perfbench Chrome trace.

    python3 tools/trace_supersteps.py .bench_build/traces/<job>.trace.json
    python3 tools/trace_supersteps.py --selftest

Reads the trace-event JSON that `perfbench/run.py --trace 1` writes (one
process per rank, "superstep N" spans with the layer spans inside them,
times in microseconds) and prints one row per superstep: each layer's
milliseconds summed over ranks (rank-milliseconds), their sum, and the
superstep spans' own sum. A layer span that starts in no superstep span
is counted on a row named "outside". The last row totals every column.

No dependencies beyond the python3 standard library.
"""

import argparse
import bisect
import json
import sys

# perfbench's layer order (perfbench/README.md); a layer not listed here
# is printed after these, in name order.
LAYERS = ("compute", "serialize", "wire", "deliver", "control",
          "checkpoint", "other")
OUTSIDE = "outside"


def summarize(trace):
    """Return (rows, layers): rows maps superstep number (or OUTSIDE) to
    {"layers": {layer: ms summed over ranks}, "wall": ms}, and layers is
    the column order."""
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    steps = {}  # pid -> sorted [(start_us, end_us, superstep)]
    for e in events:
        if e.get("ph") == "X" and e.get("cat") == "superstep":
            step = int(e["name"].split()[-1])
            steps.setdefault(e["pid"], []).append(
                (float(e["ts"]), float(e["ts"]) + float(e["dur"]), step))
    starts = {}
    for pid, spans in steps.items():
        spans.sort()
        starts[pid] = [s[0] for s in spans]

    rows = {}
    seen = set()

    def row(key):
        return rows.setdefault(key, {"layers": {}, "wall": 0.0})

    for pid, spans in steps.items():
        for start, end, step in spans:
            row(step)["wall"] += (end - start) / 1000.0
    for e in events:
        if e.get("ph") != "X" or e.get("cat") != "layer":
            continue
        ts = float(e["ts"])
        spans = steps.get(e["pid"], [])
        i = bisect.bisect_right(starts.get(e["pid"], []), ts) - 1
        key = spans[i][2] if i >= 0 and ts < spans[i][1] else OUTSIDE
        layers = row(key)["layers"]
        layers[e["name"]] = layers.get(e["name"], 0.0) + float(e["dur"]) / 1000.0
        seen.add(e["name"])
    order = [l for l in LAYERS if l in seen] + sorted(seen - set(LAYERS))
    return rows, order


def render(rows, layers):
    keys = sorted((k for k in rows if k != OUTSIDE))
    if OUTSIDE in rows:
        keys.append(OUTSIDE)
    header = ["superstep"] + list(layers) + ["layers", "wall"]
    table = []
    totals = [0.0] * (len(layers) + 2)
    for k in keys:
        vals = [rows[k]["layers"].get(l, 0.0) for l in layers]
        vals += [sum(vals), rows[k]["wall"]]
        totals = [t + v for t, v in zip(totals, vals)]
        table.append([str(k)] + ["%.2f" % v for v in vals])
    table.append(["total"] + ["%.2f" % v for v in totals])
    widths = [max(len(r[c]) for r in [header] + table)
              for c in range(len(header))]
    lines = ["rank-milliseconds per superstep (summed over ranks)"]
    for r in [header] + table:
        lines.append("  ".join(r[c].rjust(widths[c]) for c in range(len(r))))
    return "\n".join(lines)


def selftest():
    """Two ranks, two supersteps, one stray span: check every sum."""
    def span(pid, cat, name, ts, dur):
        return {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 0,
                "ts": ts, "dur": dur}
    events = [{"name": "process_name", "ph": "M", "pid": 0,
               "args": {"name": "rank 0"}},
              {"name": "frontier", "ph": "C", "pid": 0, "ts": 0,
               "args": {"active": 1}}]
    for pid, scale in ((0, 1.0), (1, 2.0)):
        events += [
            span(pid, "superstep", "superstep 1", 0, 3000 * scale),
            span(pid, "layer", "compute", 0, 1000 * scale),
            span(pid, "layer", "serialize", 1000 * scale, 2000 * scale),
            span(pid, "superstep", "superstep 2", 3000 * scale, 500 * scale),
            span(pid, "layer", "wire", 3000 * scale, 250 * scale),
            span(pid, "layer", "control", 3250 * scale, 250 * scale),
        ]
    events.append(span(1, "layer", "other", 99000, 40))
    rows, layers = summarize({"traceEvents": events})
    want = {
        1: ({"compute": 3.0, "serialize": 6.0}, 9.0),
        2: ({"wire": 0.75, "control": 0.75}, 1.5),
        OUTSIDE: ({"other": 0.04}, 0.0),
    }
    ok = set(rows) == set(want)
    for key, (lay, wall) in want.items():
        got = rows.get(key, {"layers": {}, "wall": -1.0})
        ok &= set(got["layers"]) == set(lay)
        ok &= all(abs(got["layers"].get(l, -1.0) - v) < 1e-9
                  for l, v in lay.items())
        ok &= abs(got["wall"] - wall) < 1e-9
    ok &= layers == ["compute", "serialize", "wire", "control", "other"]
    text = render(rows, layers)
    ok &= text.splitlines()[-1].split() == [
        "total", "3.00", "6.00", "0.75", "0.75", "0.04", "10.54", "10.50"]
    print(text)
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?", help="Chrome trace-event JSON file")
    ap.add_argument("--selftest", action="store_true",
                    help="check the sums on a built-in two-rank trace")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.trace:
        ap.error("a trace file or --selftest is required")
    with open(args.trace, encoding="utf-8") as f:
        trace = json.load(f)
    rows, layers = summarize(trace)
    job = trace.get("otherData", {}).get("job") if isinstance(trace, dict) \
        else None
    if job:
        print(job)
    print(render(rows, layers))
    return 0


if __name__ == "__main__":
    sys.exit(main())

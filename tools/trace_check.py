#!/usr/bin/env python3
"""Structural validator for cubessd Chrome trace files.

Checks what `python3 -m json.tool` cannot: that the document has the
Chrome trace-event shape Perfetto expects and that span events obey
the format's pairing rules.

  - top level is an object with a `traceEvents` list,
  - every event has a `ph` phase and numeric `ts` (metadata excepted),
  - "B"/"E" events follow stack discipline per (pid, tid),
  - "b"/"e" async events balance per (cat, id),
  - "C" counter events carry a numeric args.value,
  - "X" complete events carry a non-negative `dur`.

A "B" span may still be open when the trace ends: a GC collection that
is running when the measured window closes has no "E" (Perfetto shows
it as "did not end"). Such spans are counted, not rejected.

A ring-buffer overflow legitimately drops the oldest events, which can
orphan "E"/"e" closers; orphans and unbalanced async spans are
therefore tolerated (with a warning) when otherData.dropped_events > 0,
and fatal otherwise.

Exit status 0 = valid, 1 = structural violation, 2 = unreadable input.
"""

import json
import sys
from collections import Counter, defaultdict


def fail(msg):
    print(f"trace_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <trace.json>", file=sys.stderr)
        sys.exit(2)

    try:
        with open(sys.argv[1]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_check: cannot read trace: {e}", file=sys.stderr)
        sys.exit(2)

    if not isinstance(doc, dict):
        fail("top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents list")
    dropped = doc.get("otherData", {}).get("dropped_events", 0)

    phases = Counter()
    span_stacks = defaultdict(list)  # (pid, tid) -> [name, ...]
    async_open = Counter()           # (cat, id) -> open count
    orphans = 0

    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"event {i} has no ph")
        ph = ev["ph"]
        phases[ph] += 1
        if ph == "M":
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            fail(f"event {i} ({ph}) has no numeric ts")

        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            span_stacks[key].append(ev.get("name"))
        elif ph == "E":
            if span_stacks[key]:
                span_stacks[key].pop()
            else:
                orphans += 1
        elif ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"event {i} (X) has bad dur: {dur!r}")
        elif ph == "b":
            async_open[(ev.get("cat"), ev.get("id"))] += 1
        elif ph == "e":
            k = (ev.get("cat"), ev.get("id"))
            if async_open[k] > 0:
                async_open[k] -= 1
            else:
                orphans += 1
        elif ph == "C":
            value = ev.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(f"event {i} (C) has non-numeric value: {value!r}")
        elif ph == "i":
            pass
        else:
            fail(f"event {i} has unknown ph {ph!r}")

    still_open = sum(len(s) for s in span_stacks.values())
    unclosed = sum(async_open.values())
    if orphans or unclosed:
        msg = (f"{orphans} orphaned closers, "
               f"{unclosed} never-closed async spans")
        if dropped > 0:
            print(f"trace_check: warning: {msg} "
                  f"(tolerated: ring dropped {dropped} events)")
        else:
            fail(f"{msg} with no dropped events")

    summary = ", ".join(f"{ph}:{n}" for ph, n in sorted(phases.items()))
    print(f"trace_check: OK: {len(events)} events ({summary}), "
          f"{dropped} dropped, {still_open} spans open at the end")


if __name__ == "__main__":
    main()

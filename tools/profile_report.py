#!/usr/bin/env python3
"""Validate or diff self-profiles produced by the prof:: subsystem.

A "profile" is the JSON object written by prof::writeJson: either the
`profile` key of a --metrics-out document, a standalone
{"profile": {...}} sidecar from --profile-out, or the bare object
itself. The slot schema is:

    {"ns_per_tick": ..., "wall_ns": ..., "coverage": ...,
     "slots": [{"name", "count", "total_ns", "self_ns",
                "ns_per_call", "self_ns_per_call"}, ...]}

Two modes:

    profile_report.py --check FILE
        Validate that FILE carries a well-formed profile: the section
        exists, the slots are non-empty and internally consistent
        (self <= total, counts positive), the load-bearing attribution
        slots (scheduler dispatch, BER eval, ISPP loop, FTL mapping)
        are present, and — when the profile records a wall time — the
        self-time coverage reaches the attribution floor (80%).
        Exit 0 on pass, 1 with a reason on stderr otherwise.

    profile_report.py A B
        Per-slot cost diff of two profiles (e.g. before/after an
        optimization): count, self ns/call, and self-time share side
        by side with the delta. Slots present in only one file are
        reported, not errors. Exit 0 always (a diff is a report, not
        a gate).

Counts are deterministic for a fixed simulation configuration; the ns
columns are host wall-clock and only comparable between runs on the
same machine.
"""

import argparse
import json
import sys

# Slots a real simulation profile must attribute separately (the
# acceptance floor of the self-profiling layer). Names match
# prof.cc's kSlotNames.
REQUIRED_SLOTS = (
    "sched.chip_op",
    "nand.read.ber_eval",
    "nand.read.decode",
    "nand.program.ispp",
    "ftl.mapping",
)

COVERAGE_FLOOR = 0.80


def load_profile(path):
    """Return the profile object inside `path`, whatever the wrapper."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"profile_report: cannot read {path}: {e}")
    if isinstance(doc, dict) and "profile" in doc:
        doc = doc["profile"]
    if not isinstance(doc, dict) or "slots" not in doc:
        sys.exit(
            f"profile_report: {path} carries no profile section "
            "(expected a 'profile' key or a bare prof::writeJson "
            "object with 'slots')"
        )
    return doc


def check(path):
    prof = load_profile(path)
    slots = prof.get("slots")
    if not isinstance(slots, list) or not slots:
        print(
            f"profile_report: {path}: profile has no slots — was the "
            "run made with --profile on a CUBESSD_PROFILING build?",
            file=sys.stderr,
        )
        return 1

    names = set()
    for slot in slots:
        name = slot.get("name", "<unnamed>")
        names.add(name)
        count = slot.get("count", 0)
        total = slot.get("total_ns", 0.0)
        self_ns = slot.get("self_ns", 0.0)
        if count <= 0:
            print(
                f"profile_report: {path}: slot '{name}' has "
                f"non-positive count {count}",
                file=sys.stderr,
            )
            return 1
        if self_ns > total * (1.0 + 1e-9):
            print(
                f"profile_report: {path}: slot '{name}' self time "
                f"{self_ns:.0f} ns exceeds total {total:.0f} ns",
                file=sys.stderr,
            )
            return 1

    missing = [s for s in REQUIRED_SLOTS if s not in names]
    if missing:
        print(
            f"profile_report: {path}: required attribution slots "
            f"missing: {', '.join(missing)} (present: "
            f"{', '.join(sorted(names))})",
            file=sys.stderr,
        )
        return 1

    wall_ns = float(prof.get("wall_ns", 0.0))
    coverage = float(prof.get("coverage", 0.0))
    if wall_ns > 0 and coverage < COVERAGE_FLOOR:
        print(
            f"profile_report: {path}: self-time coverage "
            f"{coverage:.1%} below the {COVERAGE_FLOOR:.0%} "
            "attribution floor — the scope sites no longer cover the "
            "hot path",
            file=sys.stderr,
        )
        return 1

    cov = f", coverage {coverage:.1%}" if wall_ns > 0 else ""
    print(
        f"profile_report: {path}: OK — {len(slots)} slots, "
        f"{sum(s['count'] for s in slots):,} scope hits{cov}"
    )
    return 0


def by_name(prof):
    return {s["name"]: s for s in prof.get("slots", [])}


def self_share(slot, total_self):
    return slot["self_ns"] / total_self if total_self > 0 else 0.0


def diff(path_a, path_b):
    a = by_name(load_profile(path_a))
    b = by_name(load_profile(path_b))
    total_a = sum(s["self_ns"] for s in a.values())
    total_b = sum(s["self_ns"] for s in b.values())

    rows = []
    for name in sorted(set(a) | set(b)):
        sa, sb = a.get(name), b.get(name)
        if sa is not None and sb is not None:
            delta = (
                (sb["self_ns_per_call"] / sa["self_ns_per_call"] - 1.0)
                if sa["self_ns_per_call"] > 0
                else float("inf")
            )
            rows.append(
                (
                    name,
                    f"{sa['count']:,}",
                    f"{sb['count']:,}",
                    f"{sa['self_ns_per_call']:.1f}",
                    f"{sb['self_ns_per_call']:.1f}",
                    f"{delta:+.1%}",
                    f"{self_share(sa, total_a):.1%}",
                    f"{self_share(sb, total_b):.1%}",
                )
            )
        elif sa is not None:
            rows.append(
                (
                    name,
                    f"{sa['count']:,}",
                    "-",
                    f"{sa['self_ns_per_call']:.1f}",
                    "-",
                    "only in A",
                    f"{self_share(sa, total_a):.1%}",
                    "-",
                )
            )
        else:
            rows.append(
                (
                    name,
                    "-",
                    f"{sb['count']:,}",
                    "-",
                    f"{sb['self_ns_per_call']:.1f}",
                    "only in B",
                    "-",
                    f"{self_share(sb, total_b):.1%}",
                )
            )

    header = (
        "slot",
        "count A",
        "count B",
        "self ns/call A",
        "self ns/call B",
        "delta",
        "share A",
        "share B",
    )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print(f"profile diff: A={path_a}  B={path_b}")
    print("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    print("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    for r in rows:
        print("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
    if total_a > 0 and total_b > 0:
        print(
            f"  total self time: {total_a / 1e6:.2f} ms -> "
            f"{total_b / 1e6:.2f} ms ({total_b / total_a - 1.0:+.1%})"
        )
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="one file with --check, two files to diff (A B)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate a single profile instead of diffing two",
    )
    args = parser.parse_args()

    if args.check:
        if len(args.files) != 1:
            parser.error("--check takes exactly one file")
        return check(args.files[0])
    if len(args.files) != 2:
        parser.error("diff mode takes exactly two files (A B)")
    return diff(args.files[0], args.files[1])


if __name__ == "__main__":
    sys.exit(main())

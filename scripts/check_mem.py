#!/usr/bin/env python3
"""Memory-footprint gate for the shared-plan registry (DESIGN.md §12).

Holds a fresh ``bench_mem`` run against the committed ``BENCH_mem.json``
reference.  The contract being enforced:

  * idle bytes per session at N=1000 must stay at least
    ``gate.min_idle_reduction_at_1000`` times below the committed
    pre-registry baseline (``before.idle_bytes_per_session``) — the
    headline "split immutable shared plans from the mutable workspace"
    win must not regress;
  * idle bytes per session must not exceed
    ``gate.max_idle_bytes_per_session_at_1000`` (absolute backstop, with
    a configurable slack for allocator jitter across toolchains);
  * per-session idle cost must be flat in session count (the marginal
    cost at N=1000 must not exceed N=100 by more than the slack), i.e.
    nothing per-session secretly scales with the fleet;
  * active bytes per session must not regress past the committed
    ``after`` reference by more than the slack;
  * the process-shared bytes (the plan registry's artifacts and
    per-thread scratch, which the registry keeps until ``clear()``)
    must not exceed the committed ``after.process_shared_bytes`` by more
    than the slack — the registry never evicts, so this measured bound
    is what keeps a key leak from going unnoticed.

Exit 0 when every check passes, 1 otherwise.

Usage:
  ./build/bench_mem > measured.json
  python3 scripts/check_mem.py measured.json --baseline BENCH_mem.json
"""
from __future__ import annotations

import argparse
import json
import sys

errors: list[str] = []


def fail(message: str) -> None:
    errors.append(message)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured", help="fresh bench_mem JSON output")
    parser.add_argument("--baseline", default="BENCH_mem.json",
                        help="committed reference (default: BENCH_mem.json)")
    parser.add_argument("--slack", type=float, default=1.25,
                        help="multiplicative tolerance on absolute byte "
                             "limits (allocator/toolchain jitter)")
    args = parser.parse_args()

    measured = load(args.measured)
    baseline = load(args.baseline)

    gate = baseline["gate"]
    before_idle = baseline["before"]["idle_bytes_per_session"]
    after_active = baseline["after"]["active_bytes_per_session"]

    idle = measured["idle_bytes_per_session"]
    active = measured["active_bytes_per_session"]

    # 1. The headline reduction holds against the pre-registry baseline.
    min_reduction = float(gate["min_idle_reduction_at_1000"])
    if idle["1000"] * min_reduction > before_idle["1000"]:
        fail(f"idle bytes/session at N=1000 is {idle['1000']}, which is not "
             f"{min_reduction:.1f}x below the pre-registry baseline of "
             f"{before_idle['1000']}")

    # 2. Absolute backstop (with slack for allocator differences).
    cap = float(gate["max_idle_bytes_per_session_at_1000"]) * args.slack
    if idle["1000"] > cap:
        fail(f"idle bytes/session at N=1000 is {idle['1000']}, above the "
             f"gate of {cap:.0f} ({gate['max_idle_bytes_per_session_at_1000']}"
             f" x slack {args.slack})")

    # 3. Marginal cost is flat in session count: nothing per-session may
    #    scale with the fleet.
    if idle["1000"] > idle["100"] * args.slack:
        fail(f"idle bytes/session grows with session count: "
             f"{idle['100']} at N=100 vs {idle['1000']} at N=1000")

    # 4. Active footprint must not regress past the committed reference.
    active_cap = float(after_active["1000"]) * args.slack
    if active["1000"] > active_cap:
        fail(f"active bytes/session at N=1000 is {active['1000']}, above "
             f"the committed reference {after_active['1000']} x slack "
             f"{args.slack} = {active_cap:.0f}")

    # 5. Process-shared bytes stay at the committed reference: a config
    #    value leaking into a plan key would grow the never-evicting table.
    after_shared = baseline["after"]["process_shared_bytes"]
    shared = measured["process_shared_bytes"]
    shared_cap = float(after_shared) * args.slack
    if shared > shared_cap:
        fail(f"process-shared bytes are {shared}, above the committed "
             f"reference {after_shared} x slack {args.slack} = "
             f"{shared_cap:.0f}")

    if errors:
        for e in errors:
            print(f"check_mem: FAIL: {e}", file=sys.stderr)
        return 1

    reduction = before_idle["1000"] / max(1, idle["1000"])
    print(f"check_mem: OK — idle {idle['1000']} B/session at N=1000 "
          f"({reduction:.1f}x below the pre-registry baseline), "
          f"active {active['1000']} B/session, "
          f"process-shared {shared} B")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by the obs layer.

Usage:
    check_trace.py TRACE.json [REQUESTS.jsonl] [--expect-faults]
                   [--breaker-window N]

--expect-faults makes an entirely fault-free trace a failure: use it on
runs that injected faults, so a silently ignored fault plan cannot pass.

--breaker-window N requires every breaker flip to land on a multiple of
N cycles: use it on telemetry-breaker runs with health window N, whose
monitors decide only at window-close edges.

Checks, in order:
  1. the file parses as JSON and has a "traceEvents" array;
  2. every event carries the required fields for its phase;
  3. per (pid, tid) track, B/E/i/C timestamps are non-decreasing
     (the exporter's monotone-clamp contract);
  4. B/E spans balance per track (never closing an unopened span,
     nothing left open at the end);
  5. X (complete) events have a non-negative duration;
  6. the stream contains at least one event beyond metadata.

If a REQUESTS.jsonl is given, each line must parse as JSON and carry a
consistent lifecycle: arrival <= admitted <= first_token <= finished
for every phase that was reached (-1 marks unreached phases). Fault
outcomes are checked too: finished/failed/shed/migrated are mutually
exclusive, failed/shed/migrated stamps never precede the arrival (or
the first token, when one was emitted), shed requests were never
admitted, and attempt counts are non-negative. Retry validation checks
lineage and causality across incarnations: an attempt > 0 incarnation
(a failover retry or a resilience migration handoff) must have a
lower-attempt incarnation of the same request on record, and must
arrive no earlier than its predecessor's failed or migrated stamp; and
every superseded incarnation must have ended failed or migrated. The
cluster decides each casualty once, in simulated-time order, so a
successor never precedes the failure that spawned it and a request
that finished or was shed is never retried.

Fault instants in the trace (fault.replica_down / fault.replica_up /
req.retry / req.failed / req.shed / req.migrated) must alternate sanely
per track: a replica_up only after a replica_down, and their totals are
reported so CI can assert a faulty run actually recorded faults.
Cluster decisions (breaker flips and autoscale.active steps) must sit
on the cluster track (tid 3), where the cluster stamps each once.
Breaker flips (breaker.open / breaker.half_open / breaker.closed) must
follow each replica's breaker state machine, starting closed:
closed -> open, open -> half_open, half_open -> closed or open. A flip
to the state the breaker is already in fails: a flip is stamped only
where the state changes. Other resilience decision instants
(req.capped) ride along under the generic instant checks.

Exit status 0 on success, 1 on any violation (with a message naming
the first offending event).
"""

import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


CLUSTER_TID = 3

BREAKER_FLIPS = {
    "closed": ("open",),
    "open": ("half_open",),
    "half_open": ("closed", "open"),
}


def check_trace(path, breaker_window=None):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: no traceEvents array")

    last_ts = defaultdict(lambda: None)
    depth = defaultdict(int)
    down = defaultdict(bool)
    breaker = defaultdict(lambda: "closed")
    flips = 0
    fault_counts = defaultdict(int)
    substantive = 0

    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None:
            fail(f"event {i} has no phase: {e}")
        if ph == "M":
            continue
        substantive += 1
        for field in ("name", "pid", "tid", "ts"):
            if field not in e:
                fail(f"event {i} ({ph}) missing '{field}': {e}")
        key = (e["pid"], e["tid"])
        ts = e["ts"]
        if ph in ("B", "E", "i", "C"):
            if last_ts[key] is not None and ts < last_ts[key]:
                fail(
                    f"event {i} ({ph} '{e['name']}') goes backwards on "
                    f"track {key}: {ts} < {last_ts[key]}"
                )
            last_ts[key] = ts
        if ph == "B":
            depth[key] += 1
        elif ph == "E":
            depth[key] -= 1
            if depth[key] < 0:
                fail(
                    f"event {i} (E '{e['name']}') closes an unopened "
                    f"span on track {key}"
                )
        elif ph == "X":
            if e.get("dur", -1) < 0:
                fail(f"event {i} (X '{e['name']}') has bad dur: {e}")
        elif ph == "i":
            name = e["name"]
            if name in (
                "fault.replica_down",
                "fault.replica_up",
                "req.retry",
                "req.failed",
                "req.shed",
                "req.migrated",
            ):
                fault_counts[name] += 1
            if (
                name.startswith("breaker.") or name == "autoscale.active"
            ) and e["tid"] != CLUSTER_TID:
                fail(
                    f"event {i}: '{name}' on track {key}, off the "
                    f"cluster track (tid {CLUSTER_TID})"
                )
            if name.startswith("breaker."):
                state = name[len("breaker."):]
                if state not in BREAKER_FLIPS:
                    fail(f"event {i}: unknown breaker state '{name}'")
                if breaker_window and ts % breaker_window != 0:
                    fail(
                        f"event {i}: replica {e['pid']} breaker flip "
                        f"'{name}' at {ts} is off the {breaker_window}-"
                        f"cycle window edges"
                    )
                was = breaker[e["pid"]]
                if state not in BREAKER_FLIPS[was]:
                    fail(
                        f"event {i}: replica {e['pid']} breaker "
                        f"flips {was} -> {state} at {ts}"
                    )
                breaker[e["pid"]] = state
                flips += 1
            if name == "fault.replica_down":
                if down[e["pid"]]:
                    fail(
                        f"event {i}: replica {e['pid']} goes down "
                        f"while already down"
                    )
                down[e["pid"]] = True
            elif name == "fault.replica_up":
                if not down[e["pid"]]:
                    fail(
                        f"event {i}: replica {e['pid']} comes up "
                        f"without a preceding down"
                    )
                down[e["pid"]] = False
        elif ph == "C":
            pass
        else:
            fail(f"event {i} has unknown phase '{ph}'")

    unbalanced = {k: d for k, d in depth.items() if d != 0}
    if unbalanced:
        fail(f"unbalanced B/E spans on tracks: {unbalanced}")
    if substantive == 0:
        fail(f"{path}: only metadata events")
    faults = sum(fault_counts.values())
    fault_note = (
        "; fault events: "
        + ", ".join(f"{k}={v}" for k, v in sorted(fault_counts.items()))
        if faults
        else ""
    )
    breaker_note = f"; {flips} breaker flips valid" if flips else ""
    print(
        f"check_trace: {path}: {substantive} events on "
        f"{len(last_ts)} tracks, spans balanced, timestamps monotone"
        f"{fault_note}{breaker_note}"
    )
    return faults


def check_jsonl(path):
    n = 0
    attempts_by_rid = defaultdict(list)
    incarnations = defaultdict(dict)  # rid -> attempt -> (lineno, record)
    retries = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                r = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: bad JSON: {e}")
            n += 1
            stamps = [
                r.get("arrival", -1),
                r.get("admitted", -1),
                r.get("first_token", -1),
                r.get("finished", -1),
            ]
            reached = [s for s in stamps if s != -1]
            if reached != sorted(reached):
                fail(f"{path}:{lineno}: lifecycle out of order: {r}")
            # Phases are reached in order: no later stamp without the
            # earlier ones. A failed/shed request legitimately stops
            # partway, so the gap rule applies to the happy path only.
            seen_gap = False
            for s in stamps:
                if s == -1:
                    seen_gap = True
                elif seen_gap:
                    fail(f"{path}:{lineno}: phase gap in lifecycle: {r}")
            # Fault outcomes: finished/failed/shed are exclusive
            # terminal states, stamped no earlier than anything the
            # request reached before dying.
            failed = r.get("failed", -1)
            shed = r.get("shed", -1)
            finished = r.get("finished", -1)
            migrated = r.get("migrated", -1)
            terminal = [
                s for s in (finished, failed, shed, migrated) if s != -1
            ]
            if len(terminal) > 1:
                fail(
                    f"{path}:{lineno}: more than one terminal state: {r}"
                )
            arrival = r.get("arrival", -1)
            for name, s in (
                ("failed", failed),
                ("shed", shed),
                ("migrated", migrated),
            ):
                if s == -1:
                    continue
                if arrival != -1 and s < arrival:
                    fail(
                        f"{path}:{lineno}: {name} stamp precedes "
                        f"arrival: {r}"
                    )
                first = r.get("first_token", -1)
                if first != -1 and s < first:
                    fail(
                        f"{path}:{lineno}: {name} stamp precedes "
                        f"first token: {r}"
                    )
            if shed != -1 and r.get("admitted", -1) != -1:
                fail(f"{path}:{lineno}: shed request was admitted: {r}")
            if r.get("attempt", 0) < 0:
                fail(f"{path}:{lineno}: negative attempt count: {r}")
            rid = r.get("id")
            if rid is not None:
                attempt = r.get("attempt", 0)
                attempts_by_rid[rid].append(attempt)
                incarnations[rid][attempt] = (lineno, r)
                if attempt > 0:
                    retries.append((lineno, rid, attempt))
    if n == 0:
        fail(f"{path}: no request records")
    # Lineage: a retry/migration incarnation exists only because some
    # lower-attempt incarnation of the same request ended early.
    for lineno, rid, attempt in retries:
        if not any(a < attempt for a in attempts_by_rid.get(rid, [])):
            fail(
                f"{path}:{lineno}: request {rid} incarnation with "
                f"attempt {attempt} has no lower-attempt incarnation "
                f"on record"
            )
    # Causality: every superseded incarnation failed or migrated, and its
    # successor arrives no earlier than that stamp.
    for rid, by_attempt in incarnations.items():
        attempts = sorted(by_attempt)
        for prev, nxt in zip(attempts, attempts[1:]):
            lineno, p = by_attempt[prev]
            ended = max(p.get("failed", -1), p.get("migrated", -1))
            if ended == -1:
                fail(
                    f"{path}:{lineno}: request {rid} attempt {prev} was "
                    f"superseded by attempt {nxt} but neither failed nor "
                    f"migrated: {p}"
                )
            succ_line, succ = by_attempt[nxt]
            if succ.get("arrival", -1) < ended:
                fail(
                    f"{path}:{succ_line}: request {rid} attempt {nxt} "
                    f"arrives at {succ.get('arrival')}, before attempt "
                    f"{prev} ended at {ended}"
                )
    print(
        f"check_trace: {path}: {n} request lifecycles consistent"
        + (f", {len(retries)} retries each with a parent incarnation" if retries else "")
    )


def main():
    argv = sys.argv[1:]
    breaker_window = None
    if "--breaker-window" in argv:
        k = argv.index("--breaker-window")
        try:
            breaker_window = int(argv[k + 1])
        except (IndexError, ValueError):
            breaker_window = 0
        if breaker_window <= 0:
            print("--breaker-window needs a positive cycle count",
                  file=sys.stderr)
            sys.exit(2)
        del argv[k:k + 2]
    args = [a for a in argv if a != "--expect-faults"]
    expect_faults = "--expect-faults" in argv
    if len(args) < 1 or len(args) > 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    faults = check_trace(args[0], breaker_window)
    if expect_faults and not faults:
        fail(f"{args[0]}: --expect-faults but no fault/retry/shed events")
    if len(args) == 2:
        check_jsonl(args[1])


if __name__ == "__main__":
    main()

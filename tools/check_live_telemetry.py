#!/usr/bin/env python3
"""Assert the live telemetry surfaces of a finished sweep are sane.

Given two mid-run /metrics scrapes, a /progress scrape, the heartbeat
JSONL stream, and the sweep result JSON, checks that:

  - both scrapes are well-formed Prometheus text exposition (every
    non-comment line is `name[{labels}] value` with a parseable value),
  - the trial counters never decrease between the two scrapes and the
    second scrape shows the sweep actually progressing,
  - /progress parses as JSON with the documented fields and a
    completion fraction in [0, 1],
  - every heartbeat line parses, sequence numbers are contiguous from
    1, exactly the last line carries `"final": true`, and its progress
    counts match the sweep result's summary exactly (the sweep ran to
    completion, so there is no one-interval slack to allow),
  - the final heartbeat keeps its provenance split: its clock-
    independent `counters` block holds no wall-clock slot, and its
    `wall` block reports a positive `attack.step3_power_cycle` total.

Usage:
  tools/check_live_telemetry.py SCRAPE1 SCRAPE2 PROGRESS_JSON \
      HEARTBEAT_JSONL SWEEP_JSON
Exits non-zero with a message on the first violated check.
"""

import json
import re
import sys

SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? '
    r'(-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$')


def fail(message):
    sys.exit(f"check_live_telemetry: FAIL: {message}")


def parse_exposition(path):
    """{metric name -> value} for a Prometheus text exposition file."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{line_no}: malformed sample line "
                     f"{line!r}")
            if m.group(3) not in ("NaN", "+Inf", "-Inf"):
                values[m.group(1)] = float(m.group(3))
    if not values:
        fail(f"{path}: no samples at all")
    return values


def main():
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    scrape1_path, scrape2_path, progress_path, heartbeat_path, \
        sweep_path = sys.argv[1:6]

    scrape1 = parse_exposition(scrape1_path)
    scrape2 = parse_exposition(scrape2_path)
    for counter in ("voltboot_telemetry_trials_started",
                    "voltboot_telemetry_trials_completed",
                    "voltboot_telemetry_cells_processed"):
        if counter not in scrape1 or counter not in scrape2:
            fail(f"{counter} missing from a scrape")
        if scrape2[counter] < scrape1[counter]:
            fail(f"{counter} decreased between scrapes: "
                 f"{scrape1[counter]} -> {scrape2[counter]}")
    if scrape2["voltboot_telemetry_trials_started"] <= 0:
        fail("second scrape shows no trials started")

    with open(progress_path, encoding="utf-8") as f:
        progress = json.load(f)
    for key in ("total", "done", "complete", "trials_per_sec_ewma",
                "eta_s", "axes"):
        if key not in progress:
            fail(f"/progress missing key {key!r}")
    if not 0.0 <= progress["complete"] <= 1.0:
        fail(f"/progress complete={progress['complete']} out of range")
    for axis in progress["axes"]:
        if not 0 <= axis["position"] <= axis["size"]:
            fail(f"axis {axis['name']} position {axis['position']} "
                 f"outside [0, {axis['size']}]")

    beats = []
    with open(heartbeat_path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                beat = json.loads(line)
            except json.JSONDecodeError:
                fail(f"{heartbeat_path}:{line_no}: unparseable line "
                     "(the sweep exited cleanly; no torn tail allowed)")
            if beat.get("schema") != "voltboot-heartbeat-v1":
                fail(f"{heartbeat_path}:{line_no}: wrong schema")
            beats.append(beat)
    if len(beats) < 2:
        fail(f"only {len(beats)} heartbeat(s); expected a stream")
    for i, beat in enumerate(beats):
        if beat["seq"] != i + 1:
            fail(f"heartbeat seq gap: line {i + 1} has seq "
                 f"{beat['seq']}")
        if beat.get("final") != (i == len(beats) - 1):
            fail(f"heartbeat {beat['seq']}: misplaced final marker")

    with open(sweep_path, encoding="utf-8") as f:
        sweep = json.load(f)
    summary = sweep["summary"]
    last = beats[-1]["progress"]
    expect = {
        "completed": summary["ok"] + summary["attack_failed"] +
                     summary["errors"],
        "won": summary["ok"],
        "failed": summary["attack_failed"] + summary["errors"],
        "skipped": summary["skipped"],
    }
    for key, want in expect.items():
        if last[key] != want:
            fail(f"final heartbeat {key}={last[key]} but sweep "
                 f"summary implies {want}")

    final = beats[-1]
    wall_slots = [k for k in final["counters"] if k.startswith("wall_")]
    if wall_slots:
        fail(f"final heartbeat counters block holds wall-clock slots "
             f"{wall_slots}")
    step3 = final["wall"].get("steps_s", {}).get(
        "attack.step3_power_cycle", 0)
    if not step3 > 0:
        fail(f"final heartbeat wall block reports "
             f"attack.step3_power_cycle={step3}; expected > 0")

    print(f"check_live_telemetry: OK — {len(beats)} heartbeats, "
          f"final counts match the sweep result; scrapes well-formed "
          f"({len(scrape1)} and {len(scrape2)} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

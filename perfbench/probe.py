"""Headroom probe: boxes beyond what the package handles today.

Usage: python3 perfbench/probe.py

Untimed and ungated, and never part of a workload run.  Each box runs as one
CLI job under a wall-clock cap of CAP_SECONDS and an address-space cap of
CAP_MB, and is recorded as completed, refused (exit 2), timed_out or failed
(any other exit, such as running out of memory under the cap), with its wall
time.  A change that lifts a limit shows up here without slowing a timed
workload.  The last stdout line is the whole record as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import spawn  # noqa: E402

CAP_SECONDS = 60.0
CAP_MB = 2048

BOXES = (
    ("census", (20, 20, 20, 20), (3, 3, 3, 3), "3.8e8 tuples; over the 1e8 tuple budget"),
    ("e-set", (1000, 1000), (100, 100), "guard charges 4e10 tuples for ~1e6 + 4e4 of work"),
    ("asymptotic", (10, 20, 30, 40, 50, 60, 70), (2, 3, 4, 5, 6, 7, 8), "n = 7, all bounds distinct"),
    ("census", (200, 200), (20, 20), "6.7e7 tuples, 2.6e7 distinct values"),
)


def probe() -> dict:
    records = []
    for command, base_max, exp_max, note in BOXES:
        argv = [sys.executable, "-m", "logforms.cli", command,
                "-A", ",".join(map(str, base_max)), "-B", ",".join(map(str, exp_max))]
        wall, status, code, _, _, stderr = spawn(argv, timeout=CAP_SECONDS, memory_cap_mb=CAP_MB)
        if status == "timeout":
            code, status = None, "timed_out"
        else:
            status = {0: "completed", 2: "refused"}.get(code, "failed")
        record = {
            "command": command, "base_max": list(base_max), "exp_max": list(exp_max), "note": note,
            "status": status, "exit": code, "seconds": round(wall, 3),
            "detail": (stderr.strip().splitlines() or [""])[-1][:300],
        }
        records.append(record)
        print(json.dumps(record), flush=True)
    return {"gated": False, "cap_seconds": CAP_SECONDS, "cap_mb": CAP_MB, "boxes": records}


if __name__ == "__main__":
    print(json.dumps(probe()))

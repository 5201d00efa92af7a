"""Self-test of the benchmark on tiny configurations of every workload.

    python3 perfbench/selftest.py

For each workload's smoke configuration it runs the benchmark untraced
and traced and requires every run to pass and every metric to be
reported.  It then shows that the output checks reject a report with one
flipped byte and a report that states a wrong distance.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from run import ROOT, Workbench
from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def corrupted(workload_name: str) -> list[str]:
    """Problems found when the checks are fed a flipped byte and a wrong distance."""
    workload = WORKLOADS[workload_name](0, smoke=True)
    problems = []
    work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_selftest-"))
    try:
        first = Workbench(workload, work, deadline=time.perf_counter() + 170)
        run = first.command(traced=False)
        if not run["ok"]:
            return ["%s: clean run failed: %s" % (workload_name, run.get("why"))]
        good = first.reference
        flipped = bytearray(good)
        flipped[len(good) // 2] ^= 0x01
        if first.check(0, bytes(flipped)) is None:
            problems.append("%s: report with a flipped byte passed" % workload_name)
        # a fresh workbench has no reference, so only the recount can catch this
        data = json.loads(good)
        if workload.command == "metrics":
            data["name_distance"]["exact"] = "0/1"  # below d_min * TV
        else:
            final = data["report"] if workload.command == "improve" else data["reports"][-1]
            stated = Fraction(final["name_distance"]["exact"])
            final["name_distance"]["exact"] = str(stated * 3 / 2)
        wrong = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
        fresh = Workbench(workload, work, deadline=time.perf_counter() + 170)
        why = fresh.check(0, wrong)
        if why is None or wrong == good:
            problems.append("%s: report with a wrong distance passed" % workload_name)
        if first.failed != 1 or fresh.failed != 1:
            problems.append("%s: rejected reports were not counted as failed" % workload_name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    problems = []
    for name in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, {m for m, _, _ in PER_LAYER})):
            result = bench(name, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace=%d: runs failed: %s" % (name, trace, result))
            if set(result["metrics"]) != expected:
                problems.append("%s trace=%d: metrics %s" % (name, trace, sorted(result["metrics"])))
        problems += corrupted(name)
        print("%s: %s" % (name, "ok" if not problems else "problems so far: %d" % len(problems)))
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

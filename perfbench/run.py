"""Benchmark of the skewlab command line, one workload and seed per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/``.  Each command run is a fresh ``python3 -m skewlab.cli``
process, launched one after another from this process (closed loop, one
client), so no cache carries over between runs.  Every run's report is
checked (see ``oracle.py``) and a run that fails a check counts as
failed.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced runs of the same command and reports the
per-layer metrics (see ``tracing.py``).  The last line of standard
output is the result object; the lines before it describe each command
run and where the numbers come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from oracle import OracleError, check_report
from tracing import PER_LAYER, layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 9  # set-up probes per run; setup_s is their median
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
NOTE = (
    "On the reference machine (2 cores) a command's CPU time equals its wall "
    "time, yet single C7-size runs ranged from 3.9 to 7.0 s: the spread is "
    "machine speed, not scheduling, which is why every figure is a median."
)


class Workbench:
    """One workload's inputs, its command runs and the checks on their reports."""

    def __init__(self, workload: Workload, work_dir: Path, deadline: float) -> None:
        self.workload = workload
        self.dir = work_dir
        self.deadline = deadline
        self.target = workload.system(workload.target_skew)
        self.source = workload.system(workload.source_skew)
        for name, system in (("target.json", self.target), ("source.json", self.source)):
            (work_dir / name).write_text(json.dumps(system), encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference: bytes | None = None
        self.verdicts: dict[bytes, object] = {}
        self.attempted = 0
        self.failed = 0

    def probe(self) -> float:
        """Seconds from launching an interpreter until skewlab is imported and the inputs parsed."""
        cmd = [sys.executable, str(HERE / "child.py"), "probe", "target.json", "source.json"]
        start = time.perf_counter()
        done = subprocess.run(
            cmd, cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, timeout=max(self.deadline - start, 1.0), check=True,
        )
        return float(done.stdout.split()[-1]) - start

    def command(self, traced: bool) -> dict:
        """Launch the workload's command once; time it, check its report."""
        report = self.dir / "report.json"
        spans = self.dir / "spans.json"
        for path in (report, spans):
            path.unlink(missing_ok=True)
        argv = self.workload.argv("target.json", "source.json", "report.json")
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", "spans.json", *argv]
        else:
            cmd = [sys.executable, "-m", "skewlab.cli", *argv]
        code, wall, usage = self._wait(cmd)
        text = report.read_bytes() if report.exists() else b""
        why = self.check(code, text)
        run = {
            "traced": traced,
            "exit": code,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024,
            "report_bytes": len(text),
            "ok": why is None,
        }
        if why is not None:
            run["why"] = why
        if traced and spans.exists():
            run["trace"] = json.loads(spans.read_text(encoding="utf-8"))
        return run

    def _wait(self, cmd: list[str]):
        with open(self.dir / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return proc.returncode, wall, usage

    def check(self, code: int, text: bytes) -> str | None:
        """Count one attempted run; return why it failed, or None."""
        self.attempted += 1
        if self.reference is None:
            self.reference = text
        if code != 0:
            why = "exit code %d" % code
        elif text != self.reference:
            why = "report differs from the first run's"
        else:
            why = self.recount(text)
        if why is not None:
            self.failed += 1
        return why

    def recount(self, text: bytes) -> str | None:
        if text not in self.verdicts:
            try:
                self.verdicts[text] = check_report(
                    self.workload.command, self.workload.name_length,
                    self.target, self.source, text,
                )
            except OracleError as exc:
                self.verdicts[text] = str(exc)
        verdict = self.verdicts[text]
        return verdict if isinstance(verdict, str) else None

    def outcome(self) -> tuple[Fraction, list[bool]] | None:
        """The recounted distance and verdicts of the reference report, if it passed."""
        verdict = self.verdicts.get(self.reference)
        return None if verdict is None or isinstance(verdict, str) else verdict


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Workbench, seconds: float, trace: bool) -> list[dict]:
    """Command runs until the next one would overrun `seconds` (at least one of each kind)."""
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(bench.command(traced))
        print(json.dumps({k: v for k, v in runs[-1].items() if k != "trace"}), flush=True)
        if trace and len(runs) < 2:
            continue
        now = time.perf_counter()
        expected = _median([r["wall_s"] for r in runs])
        if now - start + expected > seconds or now + 1.5 * expected > bench.deadline:
            return runs


def end_to_end(bench: Workbench, runs: list[dict], setups: list[float]) -> dict:
    outcome = bench.outcome()
    distance, verdicts = outcome if outcome else (Fraction(0), [False])
    return {
        "wall_s": (_median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mib": (_median([r["rss_mib"] for r in runs]), "MiB"),
        "passed_frac": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
        "name_distance": (float(distance), "distance"),
        "verdicts_held": (sum(verdicts) / len(verdicts), "ratio"),
    }


def per_layer(runs: list[dict]) -> dict:
    plain = [r["wall_s"] for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"] and "trace" in r]
    layers = [layer_metrics(r["trace"], r["wall_s"], r["report_bytes"]) for r in traced]
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {}
    for name in units:
        if name != "trace.overhead" and layers:
            out[name] = (statistics.median_low([m[name] for m in layers]), units[name])
    ratio = _median([r["wall_s"] for r in traced]) / _median(plain) if traced else 1.0
    out["trace.overhead"] = (ratio - 1, units["trace.overhead"])
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()
    work_dir = ROOT / ".perfbench_work" / ("%s-%d-%d" % (workload.name, seed, os.getpid()))
    work_dir.mkdir(parents=True)
    try:
        bench = Workbench(workload, work_dir, began + RUN_LIMIT_S)
        setups = [] if trace else [bench.probe() for _ in range(PROBES)]
        runs = measure(bench, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    metrics = per_layer(runs) if trace else end_to_end(bench, runs, setups)
    provenance = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "family": workload.family,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": {
            "command_runs": sum(1 for r in runs if not r["traced"]),
            "traced_runs": sum(1 for r in runs if r["traced"]),
            "setup_probes": len(setups),
        },
        "cpu_over_wall": _median([r["cpu_s"] / r["wall_s"] for r in runs]),
        "note": NOTE,
    }
    print(json.dumps({"provenance": provenance}), flush=True)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configuration, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "skewlab" / "cli.py").is_file():
        print("perfbench: no skewlab sources under %s" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

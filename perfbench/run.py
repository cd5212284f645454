#!/usr/bin/env python3
"""End-to-end benchmark of ``periproj run``, with a traced per-layer mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zxz2-full --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it measures set-up time in fresh processes, then runs
``periproj run`` as a child process, one at a time, until ``--seconds`` is
used up (at least once).  Every child's report directory is checked against
``references.json``.  With ``--trace 1`` it runs one untraced child, one
child whose public layer functions are wrapped by ``tracer.py``, and the
per-call micro-timings of ``probes.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = SRC / "periproj" / "configs"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = BENCH_DIR / "references.json"
SPEC = ROOT / "BENCHMARK.json"

# The whole benchmark process must end within this many seconds.
DEADLINE_S = 175.0
SETUP_REPS_MIN = 3
SETUP_REPS_MAX = 7


@dataclass(frozen=True)
class Workload:
    config: str
    radius: int | None = None
    suites: str | None = None

    def setup_args(self) -> list[str]:
        args = ["--config", str(CONFIGS / self.config)]
        if self.radius is not None:
            args += ["--radius", str(self.radius)]
        return args

    def cli_args(self) -> list[str]:
        args = self.setup_args()
        if self.suites is not None:
            args += ["--suite", self.suites]
        return args


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "zxz2-full": Workload("zxz2.cfg"),
    "c2c3ext-full": Workload("c2c3-ext.cfg"),
    # oracle and bcp draw no random samples: the seed reaches only the
    # "seed:" line of summary.txt.
    "zxz2-window8": Workload("zxz2.cfg", radius=8, suites="oracle,bcp"),
}


@dataclass
class Child:
    """One finished ``periproj run`` child and the verdict on its report."""

    run_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str = ""
    examined: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class BenchError(Exception):
    """A probe or the traced child failed, so the run has no metrics to report."""


def remaining(start: float) -> float:
    """Seconds left before DEADLINE_S, for a run that began at ``start``."""
    return DEADLINE_S - (time.perf_counter() - start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], limit_s: float) -> tuple[int, float, object]:
    """Run one process; return (exit code, wall seconds, its own rusage).

    ``os.wait4`` reports the usage of this child alone; RUSAGE_CHILDREN would
    keep the largest peak RSS of every earlier child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    killer = threading.Timer(max(limit_s, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def report_digests(out_dir: Path) -> tuple[str, dict]:
    """SHA-256 of every report file and of the directory as a whole."""
    files = {}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    whole = hashlib.sha256()
    for name, digest in files.items():
        whole.update(f"{name}\0{digest}\n".encode())
    return whole.hexdigest(), files


def examined_count(out_dir: Path) -> int:
    """Sum of ``examined=`` over the ``census:`` lines of summary.txt."""
    total = 0
    summary = out_dir / "summary.txt"
    if summary.is_file():
        for line in summary.read_text().splitlines():
            if line.startswith("census:"):
                fields = dict(tok.split("=", 1) for tok in line.split()[1:])
                total += int(fields["examined"])
    return total


def check_report(name: str, seed: int, out_dir: Path, refs: dict) -> tuple[str, list]:
    """Compare a report directory with the stored references.

    Seeds with a stored digest must match it byte for byte.  For other seeds
    the files that no seed changes must match, the file set must be the
    reference set, and summary.txt must name the seed and record no
    violations.
    """
    digest, files = report_digests(out_dir)
    ref = refs.get(name)
    if ref is None:
        return digest, [f"no reference for workload {name}"]
    expected = ref["by_seed"].get(str(seed))
    if expected is not None:
        return digest, [] if digest == expected else ["report differs from the reference"]
    problems = []
    if sorted(files) != ref["files"]:
        problems.append(f"report files {sorted(files)} != {ref['files']}")
    for fname, fdigest in ref["seed_independent"].items():
        if files.get(fname) != fdigest:
            problems.append(f"{fname} differs from the reference")
    summary = out_dir / "summary.txt"
    lines = summary.read_text().splitlines() if summary.is_file() else []
    if f"seed: {seed}" not in lines:
        problems.append("summary.txt does not record the seed")
    if any(ln.startswith("census:") and not ln.endswith(" violations=0") for ln in lines):
        problems.append("summary.txt records violations")
    return digest, problems


def run_child(name: str, seed: int, tag: str, refs: dict, limit_s: float,
              traced_result: Path | None = None) -> Child:
    """Run ``periproj run`` on a workload once and check its report."""
    out_dir = WORK / f"report-{name}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    args = WORKLOADS[name].cli_args() + ["--seed", str(seed), "--out", str(out_dir)]
    if traced_result is None:
        argv = [sys.executable, "-m", "periproj.cli", "run", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "probes.py"), "trace",
                "--result", str(traced_result), "--", "run", *args]
    code, wall, usage = spawn(argv, limit_s)
    child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    try:
        child.digest, child.problems = check_report(name, seed, out_dir, refs)
        child.examined = examined_count(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if code != 0:
        child.problems.append(f"exit code {code}")
    return child


def run_probe(mode: str, args: list[str], limit_s: float) -> dict:
    result = WORK / f"probe-{mode}-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "probes.py"), mode, "--result", str(result), *args]
    code, _, _ = spawn(argv, limit_s)
    if code != 0 or not result.is_file():
        raise BenchError(f"probe {mode} failed with exit code {code}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_metric(name: str, unit: str, values: list[float]) -> None:
    q1, med, q3 = quartiles(values)
    print(f"  {name:<16} median {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def declared_units(kind: str) -> dict:
    """``{metric: unit}`` for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def untraced(name: str, seed: int, seconds: int, refs: dict, start: float) -> tuple[dict, list]:
    w = WORKLOADS[name]
    # fill the bytecode cache so no set-up sample pays for compilation
    spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "periproj")], remaining(start))
    setups: list[float] = []
    while len(setups) < SETUP_REPS_MIN or (
        len(setups) < SETUP_REPS_MAX and sum(setups) < 0.2 * seconds
    ):
        setups.append(run_probe("setup", w.setup_args(), remaining(start))["setup_s"])
    children: list[Child] = []
    while True:
        children.append(run_child(name, seed, str(len(children)), refs, remaining(start)))
        elapsed = time.perf_counter() - start
        if elapsed + children[-1].run_s > seconds:
            break
    values = {
        "run_s": [c.run_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "setup_s": setups,
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "examined_per_s": [c.examined / c.run_s for c in children],
    }
    units = declared_units("end_to_end")
    for metric, unit in units.items():
        print_metric(metric, unit, values[metric])
    metrics = {
        metric: {"value": statistics.median(values[metric]), "unit": unit}
        for metric, unit in units.items()
    }
    return metrics, children


def traced(name: str, seed: int, refs: dict, start: float) -> tuple[dict, list]:
    plain = run_child(name, seed, "plain", refs, remaining(start))
    result = WORK / f"trace-{name}-{seed}-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    wrapped = run_child(name, seed, "traced", refs, remaining(start), traced_result=result)
    if wrapped.digest != plain.digest:
        wrapped.problems.append("traced report differs from the untraced report")
    if not result.is_file():
        raise BenchError("traced child wrote no layer metrics")
    layers = json.loads(result.read_text())
    result.unlink()
    layers["trace.overhead_s"] = layers["cli.run.s"] - plain.run_s
    micro = run_probe("micro", ["--seed", str(seed)], remaining(start))
    layers.update(micro)
    metrics = {}
    for metric, unit in declared_units("per_layer").items():
        print(f"  {metric:<40} {layers[metric]:.9g} {unit}")
        metrics[metric] = {"value": layers[metric], "unit": unit}
    return metrics, [plain, wrapped]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "periproj" / "cli.py").is_file():
        print(f"perfbench: no periproj sources under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text())
    WORK.mkdir(parents=True, exist_ok=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            metrics, children = traced(args.workload, args.seed, refs, start)
        else:
            metrics, children = untraced(args.workload, args.seed, args.seconds, refs, start)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = [c for c in children if not c.ok]
    for c in failed:
        print(f"  FAILED run: {'; '.join(c.problems)}")
    print(f"  {'run_fail_ratio':<16} {len(failed) / len(children):.6g}  "
          f"({len(failed)} of {len(children)} runs)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

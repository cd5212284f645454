#!/usr/bin/env python3
"""Record reference report digests for the benchmark's correctness check.

    python3 perfbench/make_refs.py --seeds 0-23 [--jobs 2]

Runs ``periproj run`` once per workload and seed and stores, in
``references.json``: the SHA-256 of each report directory per seed, the
report file names, and the digests of the files that none of the seeds
changes.  The file is rewritten for exactly the seeds given; a seed that was
recorded before must give the same digest again, so a rerun also checks
determinism.  Run it only on a commit whose reports are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCES, WORK, WORKLOADS, report_digests, spawn


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def report(name: str, seed: int) -> tuple[str, int, str, dict]:
    out_dir = WORK / f"ref-{name}-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    args = WORKLOADS[name].cli_args() + ["--seed", str(seed), "--out", str(out_dir)]
    code, _, _ = spawn([sys.executable, "-m", "periproj.cli", "run", *args], 600.0)
    if code != 0:
        raise SystemExit(f"{name} seed {seed}: exit code {code}")
    digest, files = report_digests(out_dir)
    shutil.rmtree(out_dir)
    return name, seed, digest, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-23 or 1,5,9")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    jobs = [(name, seed) for name in WORKLOADS for seed in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(lambda job: report(*job), jobs))

    old = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    refs: dict = {}
    file_digests: dict = {}
    for name, seed, digest, files in results:
        entry = refs.setdefault(name, {"files": sorted(files), "by_seed": {}})
        if entry["files"] != sorted(files):
            raise SystemExit(f"{name} seed {seed}: report files changed")
        recorded = old.get(name, {}).get("by_seed", {}).get(str(seed))
        if recorded is not None and recorded != digest:
            raise SystemExit(f"{name} seed {seed}: report differs from the recorded one")
        entry["by_seed"][str(seed)] = digest
        for fname, fdigest in files.items():
            file_digests.setdefault((name, fname), set()).add(fdigest)
    for name, entry in refs.items():
        entry["seed_independent"] = {
            fname: next(iter(file_digests[name, fname]))
            for fname in entry["files"]
            if len(entry["by_seed"]) > 1 and len(file_digests[name, fname]) == 1
        }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

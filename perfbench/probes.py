#!/usr/bin/env python3
"""Child-process probes for ``run.py``; each writes a JSON object to ``--result``.

    probes.py setup --config C [--radius R] --result F
        seconds to import periproj, parse the config and build the run's
        metric backend and coned-off backend, as ``periproj run`` does;
    probes.py trace --result F -- run --config C ...
        ``periproj`` CLI under the layer tracer; writes the layer metrics;
    probes.py micro --seed N --result F
        untraced microseconds per call of the hot layer functions.

Run with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC / "periproj" / "configs"

MICRO_REPEATS = 5


def _check_source(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"periproj imported from {module.__file__}, not from {SRC}")


def setup(config_path: str, radius: int | None) -> dict:
    t0 = perf_counter()
    from dataclasses import replace

    import periproj
    from periproj.cli import parse_config
    from periproj.conedoff import ConedOffBackend
    from periproj.metric import BfsBackend, ExactBackend

    config = parse_config(config_path)
    if radius is not None:
        config = replace(config, radius=radius, hat_radius=radius)
    spec = config.group
    if config.mode == "exact":
        ExactBackend(spec)
    else:
        BfsBackend(spec, config.radius, config.ball_cap)
    if spec.peripheral_indices:
        ConedOffBackend(spec, radius=config.hat_radius, cap=config.ball_cap)
    elapsed = perf_counter() - t0
    _check_source(periproj)
    return {"setup_s": elapsed}


def trace(cli_argv: list[str]) -> tuple[dict, int]:
    from tracer import Tracer

    import periproj

    _check_source(periproj)
    with Tracer() as tracer:
        from periproj import cli

        code = cli.main(cli_argv)
    return tracer.metrics(), code


def _us_per_call(fn, arg_tuples) -> float:
    """Best of MICRO_REPEATS passes over the inputs, in microseconds per call."""
    best = float("inf")
    for _ in range(MICRO_REPEATS):
        t0 = perf_counter()
        for args in arg_tuples:
            fn(*args)
        best = min(best, perf_counter() - t0)
    return best / len(arg_tuples) * 1e6


def micro(seed: int) -> dict:
    import periproj
    from periproj.cli import parse_config
    from periproj.group import ball, inv, mul, random_element
    from periproj.metric import BfsBackend, ExactBackend
    from periproj.peripheral import cosets_meeting_ball, projection

    _check_source(periproj)
    rng = random.Random(seed)

    zxz2 = parse_config(CONFIGS / "zxz2.cfg").group
    elems = [random_element(zxz2, rng, 6) for _ in range(20_000)]
    pairs = [(zxz2, x, y) for x, y in zip(elems, reversed(elems))]
    exact = ExactBackend(zxz2)

    # c2c3-ext at radius 8: pairs from the radius-4 ball stay in range, and a
    # coset meeting the radius-2 ball lies within 5 of a radius-3 point.
    ext = parse_config(CONFIGS / "c2c3-ext.cfg").group
    bfs = BfsBackend(ext, 8)
    near = list(ball(ext, 4))
    bfs_pairs = [(near[rng.randrange(len(near))], near[rng.randrange(len(near))])
                 for _ in range(20_000)]
    cosets = cosets_meeting_ball(ext, ball(ext, 2))
    closer = list(ball(ext, 3))
    proj_args = [(ext, bfs, cosets[rng.randrange(len(cosets))],
                  closer[rng.randrange(len(closer))]) for _ in range(300)]

    return {
        "group.mul.us_per_call": _us_per_call(mul, pairs),
        "group.inv.us_per_call": _us_per_call(inv, [(s, x) for s, x, _ in pairs]),
        "metric.exact_distance.us_per_call": _us_per_call(
            exact.distance, [(x, y) for _, x, y in pairs]),
        "metric.bfs_distance.us_per_call": _us_per_call(bfs.distance, bfs_pairs),
        "peripheral.bfs_projection.us_per_call": _us_per_call(projection, proj_args),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_argv = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "trace", "micro"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--radius", type=int)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    code = 0
    if args.mode == "setup":
        data = setup(args.config, args.radius)
    elif args.mode == "trace":
        data, code = trace(cli_argv)
    else:
        data = micro(args.seed)
    Path(args.result).write_text(json.dumps(data, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())

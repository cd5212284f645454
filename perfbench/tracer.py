"""Per-layer counters and timers installed around periproj's public functions.

The tracer replaces each target function, wherever a periproj module holds a
reference to it, by a wrapper that counts calls and, for timed targets,
records inclusive and self time.  Self time is inclusive time minus the time
spent in nested timed targets.  ``OutOfRangeError`` raised by a target is
counted in ``.refused`` and re-raised unchanged.  ``restore`` puts every
original function back.

Hot arithmetic (``group.*``) is counted but not timed: a timer there would
cost more than the function it measures.  Micro-timings in ``probes.py``
give their undistorted per-call cost.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

COUNT, TIME = "count", "time"


@dataclass(frozen=True)
class Target:
    metric: str        # metric prefix, shared by targets that form one layer call
    module: str
    attr: str          # "func" or "Class.method"
    kind: str = TIME
    refused: bool = False
    size: str | None = None   # name of the summed result-size counter


# result-size counters: ball elements, enumerated paths, compared geodesic pairs
SIZES = {"elements": len, "paths": lambda r: len(r[0]), "pairs": lambda r: r.samples}

TARGETS = (
    Target("group.mul", "periproj.group", "mul", COUNT),
    Target("group.inv", "periproj.group", "inv", COUNT),
    Target("group.syllable_length", "periproj.group", "syllable_length", COUNT),
    Target("group.mul_syllable", "periproj.group", "mul_syllable", COUNT),
    Target("group.ball", "periproj.group", "ball", size="elements"),
    Target("metric.distance", "periproj.metric", "ExactBackend.distance", refused=True),
    Target("metric.distance", "periproj.metric", "BfsBackend.distance", refused=True),
    Target("metric.bfs_build", "periproj.metric", "BfsBackend.__init__"),
    Target("metric.geodesic", "periproj.metric", "ExactBackend.geodesic"),
    Target("metric.geodesic", "periproj.metric", "BfsBackend.geodesic"),
    Target("metric.quasigeodesic_constants", "periproj.metric", "quasigeodesic_constants"),
    Target("peripheral.projection", "periproj.peripheral", "projection", refused=True),
    Target("peripheral.dist_to_coset", "periproj.peripheral", "dist_to_coset", refused=True),
    Target("conedoff.window_build", "periproj.conedoff", "ConedOffBackend._build_window"),
    Target("conedoff.distance", "periproj.conedoff", "ConedOffBackend.distance", COUNT,
           refused=True),
    Target("conedoff.enumerate_geodesics", "periproj.conedoff",
           "ConedOffBackend.enumerate_geodesics", size="paths"),
    Target("conedoff.check_bcp", "periproj.conedoff", "check_bcp", size="pairs"),
    Target("conedoff.lift", "periproj.conedoff", "lift", COUNT),
    Target("verify.check_ap_axioms", "periproj.verify.axioms", "check_ap_axioms"),
    Target("verify.lemma_battery", "periproj.verify.battery", "lemma_battery"),
    Target("verify.estimate_dstg_constants", "periproj.verify.constants",
           "estimate_dstg_constants"),
    Target("verify.fit_formula_constants", "periproj.verify.formula", "fit_formula_constants"),
    Target("verify.thinness_scan", "periproj.verify.thinness", "thinness_scan"),
    Target("verify.seeded_pairs", "periproj.verify.sampling", "seeded_pairs", COUNT),
    Target("verify.random_walk", "periproj.verify.sampling", "random_walk", COUNT),
    Target("cli.parse_config", "periproj.cli", "parse_config"),
    Target("cli.run", "periproj.cli", "run"),
)


class _Stat:
    __slots__ = ("calls", "refused", "size", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.refused = 0
        self.size = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` afterwards."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self._stats: dict[str, _Stat] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []  # time spent in timed children, per open frame

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        from periproj.errors import OutOfRangeError

        importlib.import_module("periproj.cli")
        for target in self.targets:
            stat = self._stats.setdefault(target.metric, _Stat())
            owner, name, original = _resolve(target)
            wrapper = self._wrap(target, stat, original, OutOfRangeError)
            if owner is not None:  # a method: one class attribute to replace
                self._patch(owner, name, wrapper)
                continue
            for module in _periproj_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, target: Target, stat: _Stat, fn, refused_exc):
        if target.kind == COUNT and not target.refused:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        if target.kind == COUNT:
            def counted_refused(*args, **kwargs):
                stat.calls += 1
                try:
                    return fn(*args, **kwargs)
                except refused_exc:
                    stat.refused += 1
                    raise
            return counted_refused

        stack = self._stack
        size = SIZES[target.size] if target.size else None

        def timed(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refused_exc:
                stat.refused += 1
                raise
            finally:
                dt = perf_counter() - t0
                stat.self_s += dt - stack.pop()
                stat.depth -= 1
                if stat.depth == 0:  # count recursive calls' time once
                    stat.s += dt
                if stack:
                    stack[-1] += dt
            if size is not None:
                stat.size += size(result)
            return result

        return timed

    def metrics(self) -> dict:
        """Flat ``{metric: value}`` for every target, zeros included."""
        out: dict = {}
        for target in self.targets:
            stat = self._stats[target.metric]
            out[f"{target.metric}.calls"] = stat.calls
            if target.refused:
                out[f"{target.metric}.refused"] = stat.refused
            if target.kind == TIME:
                out[f"{target.metric}.s"] = stat.s
                out[f"{target.metric}.self_s"] = stat.self_s
            if target.size:
                out[f"{target.metric}.{target.size}"] = stat.size
        return out


def _resolve(target: Target):
    """(class or None, attribute name, original function) for a target."""
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, name = target.attr.split(".")
        cls = getattr(module, cls_name)
        return cls, name, cls.__dict__[name]
    return None, target.attr, getattr(module, target.attr)


def _periproj_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "periproj" or name.startswith("periproj."))
    ]

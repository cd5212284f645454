"""Batch experiment runner: parse a group config, run suites, write reports.

A run reads one INI config describing the group, backend, and suite
parameters, executes the selected suites, and writes one CSV per suite plus
a structured-text summary.  Identical (config, seed) pairs produce
byte-identical reports: all sampling is seeded and nothing timestamped.

Every suite takes the run's one ``Workspace``, where the generating set
picks the metric backend and the samplers once for all suites.

Exit codes: 0 clean; 1 theorem violation; 2 config error; 3 resource or
certification budget exceeded; 4 internal error (an unexpected exception,
with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import random
import sys
import traceback
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .errors import (
    BallBudgetError,
    ConfigError,
    OutOfRangeError,
    PeriprojError,
    TheoremViolationError,
)
from .factor import KINDS
from .group import DEFAULT_BALL_CAP, GroupSpec, ball, parse_element
from .metric import BfsBackend, ExactBackend, quasigeodesic_constants
from .conedoff import ConedOffBackend, check_bcp, lift
from .verify import (
    SamplePlan,
    check_ap_axioms,
    distance_formula,
    estimate_dstg_constants,
    fit_formula_constants,
    lemma_battery,
    seeded_pairs,
    thinness_scan,
    triangle_sample,
)

# a run that skips more than this share of its configurations exits 3
SKIP_TOLERANCE = 0.5


@dataclass
class RunConfig:
    group: GroupSpec
    name: str
    radius: int
    hat_radius: int
    ball_cap: int
    suites: list
    thresholds: list
    samples: int
    seed: int
    sample_radius: int
    coset_radius: int
    out_dir: Path
    source: str = ""

    @property
    def mode(self) -> str:
        """The backend the generating set implies (closed forms or a BFS ball)."""
        return "exact" if self.group.is_standard else "bfs"

    def validate(self) -> None:
        if not self.suites:
            raise ConfigError("no suites selected")
        for i, s in enumerate(self.suites):
            if s not in SUITES:
                raise ConfigError(f"unknown suite: {s!r} (choose from {', '.join(SUITES)})")
            if s in self.suites[:i]:
                raise ConfigError(f"suite listed twice: {s!r}")
        if self.radius < 1 or self.sample_radius < 1:
            raise ConfigError("radii must be positive")
        for key in ("hat_radius", "coset_radius"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative, got {getattr(self, key)}")
        for key in ("samples", "ball_cap"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if "formula" in self.suites and not self.thresholds:
            raise ConfigError("the formula suite needs at least one threshold")
        for i, t in enumerate(self.thresholds):
            if t < 0:
                raise ConfigError(f"thresholds must be nonnegative, got {t}")
            if t in self.thresholds[:i]:
                raise ConfigError(f"threshold listed twice: {t}")
        needs_peripheral = {"formula", "bcp", "lifts"} & set(self.suites)
        if needs_peripheral and not self.group.peripheral_indices:
            raise ConfigError(
                f"suites {sorted(needs_peripheral)} need a nonempty peripheral set"
            )
        # the report directory is made after a suite, so check it before
        existing = next(p for p in (self.out_dir, *self.out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"report directory {self.out_dir}: {existing} is not a directory")


def _parse_factors(lines: str):
    factors = []
    for raw in lines.strip().splitlines():
        parts = raw.split()
        if not parts:
            continue
        cls = KINDS.get(parts[0])
        if cls is None:
            raise ConfigError(f"unknown factor kind: {parts[0]!r}")
        if len(parts) != len(cls.syntax.split()) + 1:
            raise ConfigError(f"{cls.kind} factor needs: {cls.kind} {cls.syntax} ({raw!r})")
        factors.append(cls.from_tokens(*parts[1:]))
    return factors


# the sections and keys that ``parse_config`` reads; any other is an error
CONFIG_KEYS = {
    "group": {"name", "factors", "peripheral", "extra_generators"},
    "backend": {"radius", "hat_radius", "ball_cap"},
    "run": {"suites", "thresholds", "samples", "seed", "sample_radius", "coset_radius", "out"},
}


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Raise ConfigError naming the first section or key not in ``CONFIG_KEYS``;
    a [DEFAULT] key would reach every section, so none is read."""
    for key in parser.defaults():
        raise ConfigError(f"unknown key {key!r} in section [{parser.default_section}]")
    for section in parser.sections():
        known = CONFIG_KEYS.get(section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def parse_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        _check_keys(parser)
        gsec = parser["group"]
        factors = _parse_factors(gsec.get("factors", ""))
        peripheral = [int(tok) for tok in gsec.get("peripheral", "").split()]
        for i in peripheral:
            if not 0 <= i < len(factors):
                raise ConfigError(f"peripheral index out of range: {i}")
            factors[i].peripheral = True
        name = gsec.get("name", Path(path).stem)
        pre_spec = GroupSpec(factors, name=name)
        extras = []
        for raw in gsec.get("extra_generators", "").strip().splitlines():
            if not raw.strip():
                continue
            gen_name, _, word = raw.partition(":")
            if not word:
                raise ConfigError(f"extra generator needs 'name: word' ({raw!r})")
            extras.append((gen_name.strip(), parse_element(pre_spec, word.strip())))
        spec = GroupSpec(factors, extra_generators=extras, name=name) if extras else pre_spec

        bsec = parser["backend"] if parser.has_section("backend") else {}
        rsec = parser["run"] if parser.has_section("run") else {}
        config = RunConfig(
            group=spec,
            name=name,
            radius=int(bsec.get("radius", "6")),
            hat_radius=int(bsec.get("hat_radius", bsec.get("radius", "6"))),
            ball_cap=int(bsec.get("ball_cap", DEFAULT_BALL_CAP)),
            suites=rsec.get("suites", "oracle").split(),
            thresholds=[int(t) for t in rsec.get("thresholds", "2 4 8").split()],
            samples=int(rsec.get("samples", "200")),
            seed=int(rsec.get("seed", "7")),
            sample_radius=int(rsec.get("sample_radius", "4")),
            coset_radius=int(rsec.get("coset_radius", "3")),
            out_dir=Path(rsec.get("out", "reports")),
            source=str(path),
        )
    except (KeyError, ValueError, configparser.Error) as exc:
        # a parse error spans several lines; the message keeps to one
        raise ConfigError(f"bad config {path}: {' '.join(str(exc).split())}") from exc
    return config


@dataclass
class SuiteResult:
    rows: list
    header: list
    summary: list
    violations: int = 0
    examined: int = 0
    skipped: int = 0


class Workspace:
    """What the suites of one run share, built once before the first suite.

    The generating set picks the metric ``backend`` (the closed forms or the
    BFS ball of ``radius``) and the samplers ``pairs`` and ``triangles``;
    ``hat`` is the coned-off backend when the spec has peripheral factors.
    Every sample ball lies in ball(max(``sample_radius``, ``coset_radius``)):
    ``balls`` holds it and every smaller one for the run, built largest first
    under ``ball_cap``, so a suite's ball() of those radii never rebuilds one.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.spec = spec = config.group
        self.backend = (
            ExactBackend(spec)
            if config.mode == "exact"
            else BfsBackend(spec, config.radius, config.ball_cap)
        )
        self.hat = None
        if spec.peripheral_indices:
            self.hat = ConedOffBackend(spec, radius=config.hat_radius, cap=config.ball_cap)
        top = max(config.sample_radius, config.coset_radius)
        self.balls = [ball(spec, r, config.ball_cap) for r in range(top, -1, -1)]

    @cached_property
    def dstg(self):
        """The ambient constants, estimated on first use (dstg and formula read them)."""
        return estimate_dstg_constants(
            self.spec, self.backend, min(self.config.sample_radius, 3), self.hat
        )

    def pairs(self, rng, n, max_syllables, max_syllable_len) -> list:
        """``n`` seeded pairs whose group distances the backend certifies:
        free-form words in exact mode, pairs from ball(radius // 2) in BFS
        mode.  Coned-off distances are not bounded: in extended mode
        ``ConedOffBackend`` refuses a pair whose coned-off distance times the
        largest peripheral diameter exceeds ``hat_radius``, and the suites
        count such pairs as skipped."""
        if self.config.mode == "exact":
            return seeded_pairs(self.spec, rng, n, max_syllables, max_syllable_len)
        return self._tuples(rng, n, 2)

    def triangles(self, rng) -> list:
        """``samples`` seeded triangles: free-form in exact mode, from
        ball(radius // 3) in BFS mode."""
        if self.config.mode == "exact":
            return triangle_sample(self.spec, rng, self.config.samples)
        return self._tuples(rng, self.config.samples, 3)

    def _tuples(self, rng, n, k) -> list:
        """``n`` seeded k-tuples of elements of ball(radius // k), so that
        the BFS backend certifies the distance between any two."""
        elems = list(ball(self.spec, self.config.radius // k, self.config.ball_cap))
        return [tuple(elems[rng.randrange(len(elems))] for _ in range(k)) for _ in range(n)]


def run(config: RunConfig) -> int:
    """Execute the configured suites; write reports; map failures to exit codes.

    Each suite's CSV is written as soon as the suite finishes, so a run that
    fails later keeps them; its ``summary.txt`` then covers the finished
    suites and ends with a line naming the failing suite and the reason.
    The report directory is created only once a suite has finished.
    """
    try:
        config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    results: dict[str, SuiteResult] = {}
    suite = message = None
    try:
        workspace = Workspace(config)
        for suite in config.suites:
            result = results[suite] = _SUITE_RUNNERS[suite](workspace)
            config.out_dir.mkdir(parents=True, exist_ok=True)
            _write_csv(config.out_dir / f"{suite}.csv", result.header, result.rows)
    except TheoremViolationError as exc:
        code, message = 1, f"theorem violation: {exc}"
    except BallBudgetError as exc:
        code, message = 3, f"resource budget exceeded: {exc}"
    except OutOfRangeError as exc:
        code, message = 3, f"certification budget exceeded: {exc}"
    except PeriprojError as exc:
        code, message = 2, f"config error: {exc}"
    except Exception as exc:
        traceback.print_exc()
        code, message = 4, f"internal error: {exc!r}"
    if message is not None:
        print(message, file=sys.stderr)
        if results:
            _write_summary(config, results, failure=f"failed: {suite}: {message}")
        return code
    _write_summary(config, results)

    if any(r.violations for r in results.values()):
        return 1
    skipped = sum(r.skipped for r in results.values())
    total = skipped + sum(r.examined for r in results.values())
    if total and skipped / total > SKIP_TOLERANCE:
        print(f"certification budget exceeded: {skipped} of {total} configurations skipped",
              file=sys.stderr)
        return 3
    return 0


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(config: RunConfig, results: dict, failure: str | None = None) -> None:
    lines = [
        f"group: {config.name}",
        f"config: {Path(config.source).name}",
        f"mode: {config.mode} (radius {config.radius}, hat radius {config.hat_radius})",
        f"seed: {config.seed}",
        "",
    ]
    for name, result in results.items():
        lines.append(f"[{name}]")
        lines.extend(result.summary)
        lines.append(
            f"census: examined={result.examined} skipped={result.skipped} "
            f"violations={result.violations}"
        )
        lines.append("")
    if failure is not None:
        lines.extend([failure, ""])
    (config.out_dir / "summary.txt").write_text("\n".join(lines))


# --- suites -----------------------------------------------------------------


def _suite_oracle(ws: Workspace) -> SuiteResult:
    config, spec = ws.config, ws.spec
    rows = []
    mismatches = 0
    examined = 0
    elems = list(ball(spec, config.sample_radius))
    if config.mode == "exact":
        oracle = BfsBackend(spec, 2 * config.sample_radius, config.ball_cap)
        exact = ws.backend.distance_block(elems, elems)
        bad = int((exact != oracle.distance_block(elems, elems)).sum())
        examined += len(elems) ** 2
        mismatches += bad
        rows.append(["exact_vs_bfs", len(elems) ** 2, bad])
        if spec.peripheral_indices:
            hb = ConedOffBackend(spec, radius=config.sample_radius, cap=config.ball_cap)
            bad = 0
            count = 0
            for w in hb.gtable:
                count += 1
                if hb.window_distance((), w) != hb.distance((), w):
                    bad += 1
            mismatches += bad
            examined += count
            rows.append(["hat_formula_vs_bfs", count, bad])
    else:
        # extended mode: metric axioms on certified data
        d = ws.backend.distance_block(elems, elems)
        certified = (d >= 0) & (d.T >= 0)
        count = int(certified.sum())
        bad = int((certified & (d != d.T)).sum())
        rows.append(["symmetry", count, bad])
        mismatches += bad
        examined += count
    return SuiteResult(
        rows=rows,
        header=["check", "pairs", "mismatches"],
        summary=[f"{r[0]}: {r[2]} mismatches over {r[1]} pairs" for r in rows],
        violations=mismatches,
        examined=examined,
    )


def _suite_ap(ws: Workspace) -> SuiteResult:
    config = ws.config
    report = check_ap_axioms(ws.spec, ws.backend, config.sample_radius, config.coset_radius)
    rows = [
        [axiom, report.constants[axiom], report.examined[axiom],
         json.dumps(report.witnesses.get(axiom, {}), sort_keys=True)]
        for axiom in sorted(report.constants)
    ]
    rows.append(["ap3_image_max", report.ap3_image_max, report.examined["ap3"], "{}"])
    summary = [
        f"constants: {report.constants}",
        f"projection constant C = {report.projection_constant}",
        f"ap3 image max size = {report.ap3_image_max}",
        f"equivalence tracks: {report.equivalence}",
    ]
    return SuiteResult(
        rows=rows,
        header=["axiom", "constant", "examined", "witness"],
        summary=summary,
        examined=sum(report.examined.values()),
        skipped=report.skipped,
    )


def _suite_battery(ws: Workspace) -> SuiteResult:
    config = ws.config
    ap = check_ap_axioms(ws.spec, ws.backend, config.sample_radius, config.coset_radius)
    c = ap.projection_constant
    plan = SamplePlan(
        seed=config.seed,
        n_pairs=config.samples,
        sample_radius=min(config.sample_radius, 3),
        coset_radius=min(config.coset_radius, 2),
    )
    report = lemma_battery(ws.spec, ws.backend, c, plan, ws.hat)
    rows = [
        [row.name, row.examined, row.skipped, row.violations,
         row.min_margin if row.min_margin is not None else "",
         json.dumps(row.witness or {}, sort_keys=True)]
        for row in report.rows.values()
    ]
    return SuiteResult(
        rows=rows,
        header=["lemma", "examined", "skipped", "violations", "min_margin", "witness"],
        summary=[f"C = {c}", f"total examined = {report.total_examined}"],
        violations=report.total_violations,
        examined=report.total_examined,
        skipped=sum(r.skipped for r in report.rows.values()),
    )


def _suite_dstg(ws: Workspace) -> SuiteResult:
    consts = ws.dstg
    rows = [["m", consts.m, consts.examined["m"]]]
    for h, b in sorted(consts.b_by_h.items()):
        rows.append([f"b{h}", b, consts.examined["b"]])
    for level, t in sorted(consts.t_by_l.items()):
        rows.append([f"t{level}", str(t), consts.examined["t"]])
    for depth, s in sorted(consts.sigma_by_d.items()):
        rows.append([f"sigma{depth}", s, consts.examined["sigma"]])
    for depth, e in sorted(consts.entry_m_by_d.items()):
        rows.append([f"entry{depth}", e, consts.examined["entry"]])
    rows.append(["hat_entry", consts.hat_entry_m, consts.examined["hat_entry"]])
    return SuiteResult(
        rows=rows,
        header=["constant", "value", "examined"],
        summary=[f"{r[0]} = {r[1]}" for r in rows],
        examined=sum(consts.examined.values()),
        skipped=consts.skipped,
    )


def _suite_formula(ws: Workspace) -> SuiteResult:
    config, spec = ws.config, ws.spec
    consts = ws.dstg
    pairs = ws.pairs(random.Random(config.seed), config.samples, 10, 12)
    sigma, entry_m = consts.sigma_by_d[0], consts.entry_m_by_d[0]
    evals = []
    skipped = 0
    for x, y in pairs:
        try:
            evals.append(distance_formula(
                spec, x, y, config.thresholds, ws.backend, ws.hat,
                sigma=sigma, entry_m=entry_m,
            ))
        except OutOfRangeError:
            skipped += 1
    if not evals:
        raise OutOfRangeError(f"formula: none of the {len(pairs)} sampled pairs is certified")
    rows_out = [
        [row.threshold, str(row.lam), row.mu, row.witness]
        for row in fit_formula_constants(spec, evals, config.thresholds)
    ]
    return SuiteResult(
        rows=rows_out,
        header=["L", "lambda", "mu", "witness"],
        summary=[f"L={r[0]}: lambda={r[1]} mu={r[2]}" for r in rows_out]
        + [f"sigma={sigma} entry_m={entry_m}"],
        examined=len(evals) * len(config.thresholds),
        skipped=skipped,
    )


def _suite_bcp(ws: Workspace) -> SuiteResult:
    config = ws.config
    targets = list(ball(ws.spec, min(config.sample_radius, config.hat_radius)))
    max_c1 = 0
    max_c2 = 0
    pairs = 0
    truncated = 0
    skipped = 0
    for w in targets:
        try:
            report = check_bcp(ws.spec, ws.hat, ws.backend, (), w, 10_000)
        except OutOfRangeError:
            skipped += 1
            continue
        pairs += report.samples
        truncated += 1 if report.truncated else 0
        max_c1 = max(max_c1, report.max_clause1)
        max_c2 = max(max_c2, report.max_clause2)
    rows = [[len(targets), pairs, max_c1, max_c2, truncated]]
    return SuiteResult(
        rows=rows,
        header=["targets", "geodesic_pairs", "max_clause1", "max_clause2", "truncated"],
        summary=[
            f"targets={len(targets)} geodesic pairs={pairs}",
            f"empirical c: clause1={max_c1} clause2={max_c2}",
        ],
        examined=pairs,
        skipped=skipped,
    )


def _suite_lifts(ws: Workspace) -> SuiteResult:
    pairs = ws.pairs(random.Random(ws.config.seed), ws.config.samples, 4, 4)
    max_mu = 0
    count = 0
    skipped = 0
    for x, y in pairs:
        try:
            lifted = lift(ws.spec, ws.hat.geodesic(x, y))
            _, mu = quasigeodesic_constants(lifted, ws.backend)
        except OutOfRangeError:
            skipped += 1
            continue
        count += 1
        max_mu = max(max_mu, mu)
    rows = [[count, 1, max_mu, skipped]]
    return SuiteResult(
        rows=rows,
        header=["lifts", "lambda", "max_mu", "skipped"],
        summary=[f"{count} lifts: (lambda, mu) = (1, {max_mu})"],
        examined=count,
        skipped=skipped,
    )


def _suite_thinness(ws: Workspace) -> SuiteResult:
    triangles = ws.triangles(random.Random(ws.config.seed))
    report = thinness_scan(ws.spec, ws.backend, triangles)
    bins: dict = {}
    for row in report.rows:
        entry = bins.setdefault(row.depth, [0, 0])
        entry[0] += 1
        entry[1] = max(entry[1], row.delta)
    rows = [[depth, count, max_delta] for depth, (count, max_delta) in sorted(bins.items())]
    return SuiteResult(
        rows=rows,
        header=["depth", "triangles", "max_delta"],
        summary=[
            f"triangles={len(report.rows)} lambda={report.lam}",
            f"flagged families: {report.flagged or 'none'}",
        ],
        violations=len(report.flagged),
        examined=len(report.rows),
        skipped=report.skipped,
    )


_SUITE_RUNNERS = {
    "oracle": _suite_oracle,
    "ap": _suite_ap,
    "battery": _suite_battery,
    "dstg": _suite_dstg,
    "formula": _suite_formula,
    "bcp": _suite_bcp,
    "lifts": _suite_lifts,
    "thinness": _suite_thinness,
}
SUITES = tuple(_SUITE_RUNNERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="periproj",
        description="Run verification suites for free products with peripheral structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run suites from a config file")
    runp.add_argument("--config", required=True, help="path to an INI group config")
    runp.add_argument("--suite", help="comma-separated suite list (overrides config)")
    runp.add_argument("--L", help="comma-separated thresholds (overrides config)")
    runp.add_argument("--radius", type=int, help="backend ball radius override")
    runp.add_argument("--samples", type=int, help="sample count override")
    runp.add_argument("--seed", type=int, help="random seed override")
    runp.add_argument("--out", help="report directory override")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.suite is not None:
            config = replace(config, suites=[s for s in args.suite.split(",") if s])
        if args.L:
            try:
                thresholds = [int(t) for t in args.L.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --L thresholds {args.L!r}: {exc}") from exc
            config = replace(config, thresholds=thresholds)
        if args.radius is not None:
            config = replace(config, radius=args.radius, hat_radius=args.radius)
        if args.samples is not None:
            config = replace(config, samples=args.samples)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out:
            config = replace(config, out_dir=Path(args.out))
    except PeriprojError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run(config)


if __name__ == "__main__":
    sys.exit(main())

"""Config parsing, suite execution, exit codes, and report formats."""

import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from periproj import ConedOffBackend, cli, group
from periproj.cli import main, parse_config
from periproj.errors import BallBudgetError, ConfigError, OutOfRangeError, TheoremViolationError
from periproj.group import ball
from periproj.verify import seeded_pairs, triangle_sample


def config_path(name: str) -> str:
    return str(resources.files("periproj") / "configs" / name)


def test_parse_bundled_configs():
    for name, nfactors, extras in (
        ("c2c3.cfg", 2, 0),
        ("c2c3-ext.cfg", 2, 1),
        ("zxz2.cfg", 2, 0),
    ):
        config = parse_config(config_path(name))
        assert len(config.group.factors) == nfactors
        assert len(config.group.extra_generators) == extras
        config.validate()


def test_missing_config_rejected():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/file.cfg")


def test_oracle_suite_exit_zero(tmp_path):
    code = main(
        [
            "run",
            "--config",
            config_path("c2c3.cfg"),
            "--suite",
            "oracle",
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "rep" / "oracle.csv")))
    assert rows[0] == ["check", "pairs", "mismatches"]
    assert all(r[2] == "0" for r in rows[1:])
    assert (tmp_path / "rep" / "summary.txt").exists()


def test_empty_suite_list_exit_two(tmp_path):
    code = main(
        [
            "run",
            "--config",
            config_path("c2c3.cfg"),
            "--suite",
            "",
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == 2


def test_unknown_suite_exit_two(tmp_path):
    code = main(
        ["run", "--config", config_path("c2c3.cfg"), "--suite", "nope"]
    )
    assert code == 2


def test_formula_suite_table(tmp_path):
    code = main(
        [
            "run",
            "--config",
            config_path("zxz2.cfg"),
            "--suite",
            "formula",
            "--L",
            "2,4,8",
            "--samples",
            "50",
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "rep" / "formula.csv")))
    assert rows[0] == ["L", "lambda", "mu", "witness"]
    assert [r[0] for r in rows[1:]] == ["2", "4", "8"]


@pytest.mark.parametrize("name, mode", [("c2c3.cfg", "exact"), ("c2c3-ext.cfg", "bfs")])
def test_generating_set_decides_mode(tmp_path, name, mode):
    # no config key picks the backend: the standard generating set runs on
    # the closed forms, an extended one on a BFS ball
    out = tmp_path / "rep"
    assert main(["run", "--config", config_path(name), "--suite", "oracle", "--out", str(out)]) == 0
    assert f"mode: {mode} (radius" in (out / "summary.txt").read_text().splitlines()[2]


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
def test_out_path_through_a_file_exit_two(tmp_path, capsys, sub):
    # a file where the report directory would go is a config error found
    # before any suite runs, not a failure after the suites
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    out = blocker / sub if sub else blocker
    code = main(["run", "--config", config_path("c2c3.cfg"), "--suite", "oracle", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: report directory {out}: {blocker} is not a directory\n"
    )
    assert blocker.read_text() == "keep\n"


def test_table_factor_config(tmp_path):
    import itertools

    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms
    ]
    table_file = tmp_path / "s3.json"
    table_file.write_text(
        json.dumps({"table": table, "generators": {"s": index[(1, 0, 2)], "r": index[(1, 2, 0)]}})
    )
    cfg = tmp_path / "s3free.cfg"
    cfg.write_text(
        "[group]\n"
        "name = s3xc2\n"
        f"factors =\n    table {table_file}\n    cyclic 2 c\n"
        "peripheral = 0\n"
        "[backend]\nradius = 4\nhat_radius = 4\n"
        "[run]\nsuites = oracle ap\nsample_radius = 3\ncoset_radius = 2\n"
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert code == 0
    summary = (tmp_path / "rep" / "summary.txt").read_text()
    assert "projection constant C = 0" in summary


def test_radius_override(tmp_path):
    config = parse_config(config_path("c2c3.cfg"))
    assert config.radius == 6
    code = main(
        [
            "run",
            "--config",
            config_path("c2c3.cfg"),
            "--suite",
            "oracle",
            "--radius",
            "5",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == 0
    assert "radius 5" in (tmp_path / "rep" / "summary.txt").read_text()


def test_ball_budget_exit_three(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[group]\n"
        "factors =\n    cyclic 2 a\n    cyclic 3 b\n"
        "peripheral = 0 1\n"
        "extra_generators =\n    ab: a b\n"
        "[backend]\nradius = 8\nball_cap = 10\n"
        "[run]\nsuites = oracle\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3


@pytest.mark.parametrize("name", ["c2c3.cfg", "c2c3-ext.cfg"])
def test_huge_radius_exits_three_at_once(tmp_path, name):
    # ball(r) has at least 2r + 1 elements, so this radius is refused before
    # any BFS work, well inside the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "periproj.cli", "run", "--config", config_path(name),
         "--radius", "100000000", "--suite", "oracle", "--out", str(tmp_path / "rep")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "resource budget exceeded: ball(radius=100000000) exceeded cap of 2000000 elements\n"
    )


def test_long_extra_syllable_runs_at_once(tmp_path):
    # the letters are the syllables the BFS meets, not every syllable up to
    # the radius times the extra's length (Z^2 has 4n syllables of length n)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(
        "[group]\n"
        "factors =\n    z t\n    z2 u v\n    cyclic 3 b\n"
        "peripheral = 2\n"
        "extra_generators =\n    w: u^100000\n"
        "[backend]\nradius = 4\nhat_radius = 4\n"
        "[run]\nsuites = oracle bcp\nthresholds = 2 4\nsamples = 20\n"
        "sample_radius = 2\ncoset_radius = 2\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "periproj.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "rep")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_ball_cap_bounds_sample_balls(tmp_path, capsys):
    # the backend balls fit the cap, but the suites' sample ball(4), 609
    # elements, does not
    cfg = tmp_path / "zxz2-cap.cfg"
    cfg.write_text(
        "[group]\n"
        "factors =\n    z t\n    z2 u v\n"
        "peripheral = 1\n"
        "[backend]\nradius = 2\nhat_radius = 2\nball_cap = 100\n"
        "[run]\nsuites = ap\nsample_radius = 4\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3
    assert capsys.readouterr().err == (
        "resource budget exceeded: ball(radius=4) exceeded cap of 100 elements\n"
    )
    assert not (tmp_path / "rep").exists()


def test_ball_cap_above_default_holds_sample_balls(tmp_path, monkeypatch):
    # the suites ask for their sample balls without a cap and get the balls
    # the workspace built under the configured one, so a cap above the
    # default runs (here the default is shrunk below the sample ball(3),
    # 143 elements); a fresh ball without a cap still meets the default
    monkeypatch.setattr(group, "DEFAULT_BALL_CAP", 100)
    cfg = tmp_path / "zxz2-big-cap.cfg"
    cfg.write_text(
        "[group]\n"
        "factors =\n    z t\n    z2 u v\n"
        "peripheral = 1\n"
        "[backend]\nradius = 4\nhat_radius = 4\nball_cap = 1000000\n"
        "[run]\nsuites = oracle ap battery dstg bcp\nthresholds = 2 4\nsamples = 20\n"
        "sample_radius = 3\ncoset_radius = 2\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0
    spec = parse_config(str(cfg)).group
    with pytest.raises(BallBudgetError, match="exceeded cap of 100 elements"):
        ball(spec, 3)


def test_most_configurations_skipped_exit_three(tmp_path, capsys):
    # at radius 3 the BFS backend certifies too few of the ap suite's pairs
    out = tmp_path / "rep"
    code = main(
        ["run", "--config", config_path("c2c3-ext.cfg"), "--radius", "3", "--suite", "ap",
         "--out", str(out)]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "certification budget exceeded: 40438 of 67874 configurations skipped\n"
    )
    assert "census: examined=27436 skipped=40438" in (out / "summary.txt").read_text()


def test_coned_off_suites_need_peripheral(tmp_path):
    cfg = tmp_path / "noperi.cfg"
    cfg.write_text(
        "[group]\n"
        "factors =\n    cyclic 2 a\n    cyclic 3 b\n"
        "peripheral =\n"
        "[backend]\n"
        "[run]\nsuites = formula\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2


def test_unsupported_metric_in_run_exit_two(tmp_path, capsys):
    # extended generators with an infinite peripheral factor: the coned-off
    # window cannot certify distances, which is a config error, not a violation
    cfg = tmp_path / "zxz2-ext.cfg"
    cfg.write_text(
        "[group]\n"
        "factors =\n    z t\n    z2 u v\n"
        "peripheral = 1\n"
        "extra_generators =\n    tu: t u\n"
        "[backend]\nradius = 3\n"
        "[run]\nsuites = oracle\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "finite peripheral factors" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "rep").exists()


def test_uncertified_query_in_run_exit_three(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise OutOfRangeError("pair at distance > 2: not certified by this backend")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "oracle", refuse)
    code = main(
        ["run", "--config", config_path("c2c3.cfg"), "--suite", "oracle",
         "--out", str(tmp_path / "rep")]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "certification budget exceeded: pair at distance > 2: not certified by this backend\n"
    )


def test_unexpected_exception_in_run_exit_four(tmp_path, capsys, monkeypatch):
    # a bug is not a theorem violation: exit 4 with the traceback on stderr
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "oracle", crash)
    code = main(
        ["run", "--config", config_path("c2c3.cfg"), "--suite", "oracle",
         "--out", str(tmp_path / "rep")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: boom\n" in err
    assert err.endswith("internal error: RuntimeError('boom')\n")
    assert not (tmp_path / "rep").exists()


def test_bfs_reports_identical_across_hash_seeds(tmp_path):
    # the reports must not depend on str hashing, which PYTHONHASHSEED salts
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"hashseed{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "periproj.cli", "run",
             "--config", config_path("c2c3-ext.cfg"), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "ap.csv" in names and "summary.txt" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hat_radius", "-1", "hat_radius must be nonnegative, got -1"),
        ("coset_radius", "-1", "coset_radius must be nonnegative, got -1"),
        ("samples", "0", "samples must be at least 1, got 0"),
        ("ball_cap", "0", "ball_cap must be at least 1, got 0"),
        ("ball_cap", "-5", "ball_cap must be at least 1, got -5"),
    ],
    ids=["hat_radius", "coset_radius", "samples", "ball_cap_zero", "ball_cap_negative"],
)
def test_bad_config_value_exit_two(tmp_path, capsys, key, value, message):
    # each value would otherwise fail inside a suite, with a traceback and
    # exit 4, or (ball_cap) as an exhausted budget with exit 3; c2c3.cfg has
    # no ball_cap line, so one is inserted into [backend]
    text = open(config_path("c2c3.cfg")).read()
    cfg = tmp_path / "bad.cfg"
    line = f"{key} = {value}"
    text, found = re.subn(rf"^{key} = .*$", line, text, count=1, flags=re.M)
    if not found:
        text = text.replace("[backend]\n", f"[backend]\n{line}\n", 1)
    cfg.write_text(text)
    assert getattr(parse_config(str(cfg)), key) == int(value)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "value, message",
    [
        ("", "the formula suite needs at least one threshold"),
        ("2 -1 8", "thresholds must be nonnegative, got -1"),
    ],
    ids=["empty", "negative"],
)
def test_bad_threshold_exit_two(tmp_path, capsys, value, message):
    # an empty list would run the formula suite on nothing and exit 0; a
    # negative threshold would be reported as a row L=-1
    text = open(config_path("c2c3.cfg")).read()
    cfg = tmp_path / "bad.cfg"
    text = re.sub(r"^thresholds = .*$", f"thresholds = {value}", text, count=1, flags=re.M)
    cfg.write_text(text)
    assert "formula" in parse_config(str(cfg)).suites
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "rep").exists()


REFUSED_FORMULA_CFG = """\
[group]
factors =
    cyclic 5 a
    cyclic 3 b
peripheral = 0 1
extra_generators =
    ab: a b

[backend]
radius = 4
hat_radius = 4

[run]
suites = formula
samples = 1
"""


@pytest.mark.parametrize("seed", ["3", "5", "7"])
def test_formula_sample_all_refused_exit_three(tmp_path, capsys, seed):
    # the one sampled pair has an uncertified coned-off distance at these
    # seeds: a certification failure with its reason, not a crash
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(REFUSED_FORMULA_CFG)
    code = main(["run", "--config", str(cfg), "--seed", seed, "--out", str(tmp_path / "rep")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        "certification budget exceeded: formula: none of the 1 sampled pairs is certified\n"
    )
    assert not (tmp_path / "rep").exists()


def test_bad_threshold_override_exit_two(tmp_path, capsys):
    code = main(
        ["run", "--config", config_path("c2c3.cfg"), "--L", "2,x", "--out", str(tmp_path / "rep")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad --L thresholds '2,x': ")
    assert err.count("\n") == 1
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("suites", ["dstg,formula", "formula"])
def test_dstg_constants_estimated_once_per_run(tmp_path, monkeypatch, suites):
    # the formula suite reads the constants the dstg suite estimated
    calls = []
    real = cli.estimate_dstg_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_dstg_constants", counting)
    code = main(
        ["run", "--config", config_path("c2c3.cfg"), "--suite", suites,
         "--samples", "20", "--out", str(tmp_path / "rep")]
    )
    assert code == 0
    assert len(calls) == 1


def test_failure_keeps_finished_suite_reports(tmp_path, capsys, monkeypatch):
    # a suite failing after ap: ap's CSV stays, and the summary says what failed
    def violate(*args):
        raise TheoremViolationError("battery inequality failed")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "battery", violate)
    out = tmp_path / "rep"
    code = main(
        ["run", "--config", config_path("c2c3.cfg"), "--suite", "ap,battery,bcp",
         "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == "theorem violation: battery inequality failed\n"
    assert sorted(p.name for p in out.iterdir()) == ["ap.csv", "summary.txt"]
    summary = (out / "summary.txt").read_text()
    assert "[ap]" in summary and "[battery]" not in summary
    assert summary.endswith(
        "\nfailed: battery: theorem violation: battery inequality failed\n"
    )


@pytest.mark.parametrize(
    "factors, extra, message",
    [
        ("cyclic 2", "", "cyclic factor needs: cyclic <n> <label> ('cyclic 2')"),
        ("z t u", "", "z factor needs: z <label> ('z t u')"),
        ("z2 u", "", "z2 factor needs: z2 <label1> <label2> ('z2 u')"),
        ("table", "", "table factor needs: table <json-path> ('table')"),
        ("free 2 f", "", "unknown factor kind: 'free'"),
        ("cyclic 2 a", "peripheral = 5\n", "peripheral index out of range: 5"),
        ("cyclic 2 a", "extra_generators =\n    ab a b\n",
         "extra generator needs 'name: word' ('ab a b')"),
        ("cyclic x a", "",
         "bad config {cfg}: invalid literal for int() with base 10: 'x'"),
        ("table {missing}", "",
         "bad table factor file '{missing}': [Errno 2] No such file or directory: '{missing}'"),
        ("cyclic 1 a", "", "cyclic factor needs order >= 2, got 1"),
        ("", "", "a free product needs at least 2 factors"),
        ("cyclic 2 a\n    cyclic 5 a", "", "duplicate generator label: 'a'"),
        ("cyclic 2 a", "extra_generators =\n    a: a b\n",
         "extra generator name clashes: 'a'"),
        ("cyclic 2 a", "extra_generators =\n    ab: a q\n", "unknown generator label: 'q'"),
        ("cyclic 2 a", "extra_generators =\n    : a b\n", "invalid generator label: ''"),
        ("cyclic 2 a", "extra_generators =\n    b^-1: a b\n",
         "invalid generator label: 'b^-1'"),
    ],
    ids=["cyclic_arity", "z_arity", "z2_arity", "table_arity", "unknown_kind",
         "peripheral_index", "extra_without_colon", "cyclic_order", "table_unreadable",
         "cyclic_order_one", "single_factor", "label_in_two_factors", "extra_name_clash",
         "extra_unknown_label", "extra_empty_name", "extra_inverse_name"],
)
def test_bad_group_config_exit_two(tmp_path, capsys, factors, extra, message):
    # each bad [group] line ends with exit 2 and one stderr line, before any
    # report is written
    cfg = tmp_path / "bad.cfg"
    missing = tmp_path / "missing.json"
    cfg.write_text(
        "[group]\n"
        f"factors =\n    {factors.format(missing=missing)}\n    cyclic 3 b\n"
        f"{extra}"
        "[run]\nsuites = oracle\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
    expected = message.format(cfg=cfg, missing=missing)
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_suite_listed_twice_exit_two(tmp_path, capsys, where):
    # a repeated suite would write its CSV and its summary section twice and
    # count twice in the skip census
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(
        "[group]\nfactors =\n    cyclic 2 a\n    cyclic 3 b\nperipheral = 0 1\n"
        "[run]\nsuites = oracle ap ap\n"
    )
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]
    if where == "flag":
        argv[3:3] = ["--suite", "ap,oracle,ap"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: suite listed twice: 'ap'\n"
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_threshold_listed_twice_exit_two(tmp_path, capsys, where):
    # a repeated threshold would write two formula rows for it and count
    # every pair twice in the skip census
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(
        "[group]\nfactors =\n    cyclic 2 a\n    cyclic 3 b\nperipheral = 0 1\n"
        "[run]\nsuites = formula\nthresholds = 2 4 2\n"
    )
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]
    if where == "flag":
        argv[3:3] = ["--L", "2,2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: threshold listed twice: 2\n"
    assert not (tmp_path / "rep").exists()


# The samplers the workspace replaced, kept as references: the mode decided
# the draw in each of them.
def _ball_tuples(config, spec, rng, n, k):
    elems = list(ball(spec, config.radius // k, config.ball_cap))
    return [tuple(elems[rng.randrange(len(elems))] for _ in range(k)) for _ in range(n)]


def _certified_pairs(config, spec, rng, n, max_syllables, max_syllable_len):
    if config.mode == "exact":
        return seeded_pairs(spec, rng, n, max_syllables, max_syllable_len)
    return _ball_tuples(config, spec, rng, n, 2)


def _thinness_triangles(config, spec, rng):
    if config.mode == "exact":
        return triangle_sample(spec, rng, config.samples)
    return _ball_tuples(config, spec, rng, config.samples, 3)


@pytest.mark.parametrize("name", ["c2c3.cfg", "c2c3-ext.cfg"])
def test_workspace_samples_match_reference(name):
    # the same samples from the same RNG draws, in exact and in BFS mode
    config = parse_config(config_path(name))
    workspace = cli.Workspace(config)
    n = config.samples
    for seed in (3, 7):
        for sizes in ((10, 12), (4, 4)):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert workspace.pairs(rng, n, *sizes) == _certified_pairs(
                config, config.group, ref_rng, n, *sizes
            )
            assert rng.getstate() == ref_rng.getstate()
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert workspace.triangles(rng) == _thinness_triangles(config, config.group, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


def test_each_ball_built_once_per_run(tmp_path, monkeypatch):
    # the workspace holds every sample ball for the run, so no suite
    # rebuilds one; the hat window's ball(6) and the oracle's ball(8) are
    # the only larger ones
    built = Counter()
    real = group.Ball.__init__

    def counting(self, spec, radius, cap):
        built[radius] += 1
        real(self, spec, radius, cap)

    monkeypatch.setattr(group.Ball, "__init__", counting)
    code = main(["run", "--config", config_path("zxz2.cfg"), "--out", str(tmp_path / "rep")])
    assert code == 0
    assert built == {r: 1 for r in (0, 1, 2, 3, 4, 6, 8)}


@pytest.mark.parametrize(
    "data",
    [
        b"[group]\nfactors =\n    cyclic 2 a\n    cyclic 3 b\n[backend]\nradius\n",
        b"radius = 3\n[group]\nfactors =\n    cyclic 2 a\n    cyclic 3 b\n",
        b"[group]\nname = one\nname = two\nfactors =\n    cyclic 2 a\n    cyclic 3 b\n",
        b"[group]\nname = 50%\nfactors =\n    cyclic 2 a\n    cyclic 3 b\n",
        b"\xff\xfe[group]\n",
    ],
    ids=["bare_key", "no_section_header", "duplicate_key", "bad_interpolation", "undecodable"],
)
def test_malformed_config_exit_two(tmp_path, capsys, data):
    # a file that configparser cannot read or interpolate is a config error:
    # one stderr line, exit 2 and no report, never a traceback and exit 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    with pytest.raises(ConfigError, match=f"^bad config {re.escape(str(cfg))}: "):
        parse_config(str(cfg))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad config {cfg}: ") and err.count("\n") == 1
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("[backend]\nradious = 3\n", "unknown key 'radious' in section [backend]"),
        ("[bogus]\nradius = 3\n", "unknown section [bogus]"),
        ("[backend]\nmode = exact\n", "unknown key 'mode' in section [backend]"),
        ("[DEFAULT]\nseed = 3\n", "unknown key 'seed' in section [DEFAULT]"),
    ],
    ids=["misspelt_key", "unknown_section", "stale_mode", "default_section"],
)
def test_unknown_config_key_exit_two(tmp_path, capsys, extra, message):
    # a key or section the parser does not read would otherwise run silently
    # with the defaults: exit 2 with one line naming it, before any suite
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[group]\nfactors =\n    cyclic 2 a\n    cyclic 3 b\nperipheral = 0 1\n"
        "extra_generators =\n    ab: a b\n"
        "[run]\nsuites = oracle\n"
        f"{extra}"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "rep").exists()


def test_disguised_standard_set_runs_exact(tmp_path):
    # c2c3 plus an extra equal to the generator a has the standard moves, so
    # it writes the reports of c2c3 but for the config line
    text = open(config_path("c2c3.cfg")).read()
    cfg = tmp_path / "c2c3-w.cfg"
    cfg.write_text(text.replace("peripheral = 0 1\n", "peripheral = 0 1\nextra_generators =\n    w: a\n"))
    assert "w: a" in cfg.read_text()
    reports = []
    for name, path in (("ref", config_path("c2c3.cfg")), ("w", str(cfg))):
        out = tmp_path / name
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        reports.append({p.name: p.read_text().splitlines() for p in sorted(out.iterdir())})
    ref, got = reports
    assert ref["summary.txt"].pop(1) == "config: c2c3.cfg"
    assert got["summary.txt"].pop(1) == "config: c2c3-w.cfg"
    assert got["summary.txt"][1].startswith("mode: exact (radius")
    assert got == ref


def test_extra_equal_to_an_earlier_extra_is_dropped(tmp_path):
    text = open(config_path("c2c3-ext.cfg")).read()
    cfg = tmp_path / "c2c3-ext-w.cfg"
    cfg.write_text(text.replace("    ab: a b\n", "    ab: a b\n    w: a b\n"))
    assert "w: a b" in cfg.read_text()
    assert [name for name, _ in parse_config(str(cfg)).group.extra_generators] == ["ab"]


@pytest.mark.parametrize("suite", ["oracle", "bcp"])
def test_coned_off_distance_mutant_exits_one(tmp_path, capsys, monkeypatch, suite):
    # a coned-off distance one too large on every pair of distinct points:
    # the oracle finds it against the window, and bcp finds a window path
    # shorter than the certified distance, a contradiction and not a skip
    distance = ConedOffBackend.distance
    monkeypatch.setattr(
        ConedOffBackend, "distance", lambda self, x, y: distance(self, x, y) + (1 if x != y else 0)
    )
    out = tmp_path / "rep"
    assert main(["run", "--config", config_path("c2c3.cfg"), "--suite", suite,
                 "--out", str(out)]) == 1
    if suite == "oracle":
        rows = list(csv.reader(open(out / "oracle.csv")))
        assert rows[2][0] == "hat_formula_vs_bfs" and int(rows[2][2]) > 0
    else:
        assert capsys.readouterr().err.startswith("theorem violation: window value")


# the tables a fuzzed config may name, each generated by its elements 1
# and 2: S3 (the permutations of 0, 1, 2 in lexicographic order; 1 and 2
# are transpositions) and C2 x C2
_TABLES = {
    "s3": [
        [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
        [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0],
    ],
    "klein": [[i ^ j for j in range(4)] for i in range(4)],
}


@st.composite
def fuzzed_configs(draw, table_dir):
    """A small config: 2-3 factors among cyclic, Z, Z^2 and table, a random
    nonempty peripheral set, maybe one extra generator word, radius at most
    4 and a ball cap of 1 to 5,000."""
    lines, tokens = [], []
    for p in range(draw(st.integers(2, 3))):
        a, b = f"a{p}", f"b{p}"
        kind = draw(st.sampled_from(["cyclic", "z", "z2", "table"]))
        if kind == "cyclic":
            lines.append(f"cyclic {draw(st.integers(2, 5))} {a}")
            tokens.append(a)
        elif kind == "z":
            lines.append(f"z {a}")
            tokens.append(a)
        elif kind == "z2":
            lines.append(f"z2 {a} {b}")
            tokens += [a, b]
        else:
            name = draw(st.sampled_from(sorted(_TABLES)))
            path = table_dir / f"{name}-{p}.json"
            path.write_text(json.dumps({"table": _TABLES[name], "generators": {a: 1, b: 2}}))
            lines.append(f"table {path}")
            tokens += [a, b]
    peripheral = draw(st.sets(st.integers(0, len(lines) - 1), min_size=1))
    text = "[group]\nfactors =\n" + "".join(f"    {line}\n" for line in lines)
    text += f"peripheral = {' '.join(map(str, sorted(peripheral)))}\n"
    if draw(st.booleans()):
        word = draw(st.lists(
            st.tuples(st.sampled_from(tokens), st.sampled_from([1, -1, 2])), min_size=1, max_size=3
        ))
        text += "extra_generators =\n    w: " + " ".join(f"{t}^{e}" for t, e in word) + "\n"
    radius = draw(st.integers(1, 4))
    # hypothesis favours small integers: count the cap down from 5,000, so
    # that most runs get past their ball builds
    cap = 5_001 - draw(st.integers(1, 5_000))
    text += (
        f"[backend]\nradius = {radius}\nhat_radius = {draw(st.integers(0, radius))}\n"
        f"ball_cap = {cap}\n"
        f"[run]\nsamples = 5\nsample_radius = {draw(st.integers(1, 3))}\n"
        f"coset_radius = {draw(st.integers(0, 2))}\n"
    )
    return text


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, data):
    # a small random config runs oracle and bcp to a verdict: clean (0), a
    # config error (2) or an exhausted budget (3), never an internal error
    # (4, with a traceback) and never a violation on these free products
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "fuzz.cfg"
    cfg.write_text(data.draw(fuzzed_configs(work)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(cfg), "--suite", "oracle,bcp",
                     "--out", str(work / "rep")])
    assert code in (0, 2, 3), (cfg.read_text(), err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.xfail(
    strict=True,
    reason="known false positive of the thinness flag (ROADMAP item 2): at seed 104 "
    "the depth-11 bin reads small_delta 2, large_delta 5 on Z * Z^2, which is "
    "hyperbolic relative to Z^2",
)
def test_thinness_no_false_positive_zxz2_seed_104(tmp_path):
    code = main(
        ["run", "--config", config_path("zxz2.cfg"), "--seed", "104", "--suite", "thinness",
         "--out", str(tmp_path / "rep")]
    )
    assert code == 0

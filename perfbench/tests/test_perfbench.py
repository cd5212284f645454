"""Tests for the benchmark's layer tracer and report check.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Target, Tracer, _periproj_modules  # noqa: E402

from periproj import BfsBackend, OutOfRangeError, parse_element  # noqa: E402
from periproj.cli import parse_config  # noqa: E402

CONFIGS = ROOT / "src" / "periproj" / "configs"


def periproj_run(tmp_path: Path, tag: str, traced: bool, seed: int = 7):
    """One ``periproj run`` of c2c3 in a child process; (layer metrics, report dir)."""
    out = tmp_path / f"report-{tag}"
    cli_argv = ["run", "--config", str(CONFIGS / "c2c3.cfg"), "--seed", str(seed),
                "--out", str(out)]
    result = tmp_path / f"{tag}.json"
    if traced:
        argv = [sys.executable, str(BENCH / "probes.py"), "trace", "--result", str(result),
                "--", *cli_argv]
    else:
        argv = [sys.executable, "-m", "periproj.cli", *cli_argv]
    subprocess.run(argv, env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
    return (json.loads(result.read_text()) if traced else None), out


def test_traced_report_is_byte_identical(tmp_path):
    _, traced_out = periproj_run(tmp_path, "traced", traced=True)
    _, plain_out = periproj_run(tmp_path, "plain", traced=False)
    digest, files = run.report_digests(traced_out)
    assert "summary.txt" in files and len(files) == 9
    assert (digest, files) == run.report_digests(plain_out)


def test_traced_counts_repeat(tmp_path):
    first, _ = periproj_run(tmp_path, "first", traced=True)
    second, _ = periproj_run(tmp_path, "second", traced=True)

    def counts(metrics):
        return {k: v for k, v in metrics.items() if not k.endswith(".s") and
                not k.endswith(".self_s")}

    assert counts(first) == counts(second)
    assert first["verify.check_ap_axioms.calls"] == 2
    assert first["group.mul.calls"] > 0 and first["cli.run.calls"] == 1


def _functions_by_location():
    state = {}
    for module in _periproj_modules():
        for name, value in vars(module).items():
            state[module.__name__, name] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    state[module.__name__, name, attr] = member
    return state


def test_restore_puts_every_function_back():
    import periproj.cli  # noqa: F401  (load every module the tracer patches)

    before = _functions_by_location()
    with Tracer():
        during = _functions_by_location()
    after = _functions_by_location()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("periproj.group", "mul") in changed
    assert ("periproj.metric", "mul") in changed
    assert ("periproj.metric", "BfsBackend", "distance") in changed
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_refused_call_reraises_unchanged_and_counts():
    spec = parse_config(CONFIGS / "c2c3-ext.cfg").group
    backend = BfsBackend(spec, 2)
    far = parse_element(spec, "a b a b a b")
    with pytest.raises(OutOfRangeError) as plain:
        backend.distance((), far)
    with Tracer() as tracer:
        with pytest.raises(OutOfRangeError) as traced:
            backend.distance((), far)
        assert backend.distance((), ()) == 0
    assert type(traced.value) is type(plain.value)
    assert traced.value.args == plain.value.args
    metrics = tracer.metrics()
    assert metrics["metric.distance.calls"] == 2
    assert metrics["metric.distance.refused"] == 1


def test_refused_exception_object_passes_through(monkeypatch):
    import periproj.metric

    error = OutOfRangeError("sentinel")

    def refuse(self, x, y):
        raise error

    monkeypatch.setattr(periproj.metric.BfsBackend, "distance", refuse)
    target = Target("metric.distance", "periproj.metric", "BfsBackend.distance", refused=True)
    with Tracer([target]) as tracer:
        with pytest.raises(OutOfRangeError) as caught:
            periproj.metric.BfsBackend.distance(None, (), ())
    assert caught.value is error
    assert tracer.metrics()["metric.distance.refused"] == 1
    assert periproj.metric.BfsBackend.distance is refuse


def test_check_report_by_digest_and_by_seed_independent_files(tmp_path):
    def write_report(seed, violations=0):
        out = tmp_path / f"r{seed}-{violations}"
        out.mkdir()
        (out / "ap.csv").write_text("axiom,constant\nap1,0\n")
        (out / "summary.txt").write_text(
            f"seed: {seed}\n[ap]\ncensus: examined=5 skipped=0 violations={violations}\n")
        return out

    recorded = write_report(1)
    digest, files = run.report_digests(recorded)
    refs = {"w": {"files": sorted(files), "by_seed": {"1": digest},
                  "seed_independent": {"ap.csv": files["ap.csv"]}}}
    assert run.check_report("w", 1, recorded, refs) == (digest, [])
    assert run.examined_count(recorded) == 5

    (recorded / "ap.csv").write_text("axiom,constant\nap1,1\n")
    assert run.check_report("w", 1, recorded, refs)[1] == ["report differs from the reference"]

    # seeds without a stored digest fall back to the seed-independent files
    assert run.check_report("w", 2, write_report(2), refs)[1] == []
    assert run.check_report("w", 3, write_report(3, violations=1), refs)[1] == [
        "summary.txt records violations"]
    assert run.check_report("w", 4, recorded, refs)[1] == [
        "ap.csv differs from the reference", "summary.txt does not record the seed"]

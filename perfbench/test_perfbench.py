"""Tests of the benchmark harness itself (not collected by the package's suite).

Run from the checkout root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import traced_cli  # noqa: E402


def test_peak_rss_is_per_child_not_a_running_maximum(tmp_path):
    big = "b = bytes(96 * 2**20); b = b'x' * len(b)"
    _, _, rss_big = run.run_child([sys.executable, "-c", big], tmp_path, 60, tmp_path / "big")
    code, _, rss_small = run.run_child([sys.executable, "-c", "pass"], tmp_path, 60, tmp_path / "small")
    assert code == 0
    assert rss_big > 96
    assert rss_small < rss_big - 64
    # the figure this avoids: RUSAGE_CHILDREN still reports the big child
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 >= rss_big


def test_run_child_reports_exit_code_and_wall(tmp_path):
    start = time.perf_counter()
    code, wall, _ = run.run_child(
        [sys.executable, "-c", "import time, sys; time.sleep(0.2); sys.exit(3)"],
        tmp_path, 60, tmp_path / "c",
    )
    assert code == 3
    assert 0.2 <= wall <= time.perf_counter() - start


def test_run_child_kills_a_child_past_its_timeout(tmp_path):
    code, wall, _ = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 1.0, tmp_path / "c"
    )
    assert code != 0
    assert wall < 10


def test_configs_validate_and_carry_the_seed(tmp_path):
    from carleman_lab.cli import load_config

    for name in run.WORKLOADS:
        hashes = set()
        for seed in (0, 1):
            path = tmp_path / f"{name}-{seed}.json"
            path.write_text(json.dumps(run.make_config(name, seed)))
            cfg = load_config(path)
            assert cfg.seed() == seed
            hashes.add(cfg.config_hash)
        assert len(hashes) == 2
        assert run.make_config(name, 0) == run.make_config(name, 0)
    levels = run.make_config("sweep_dense", 0)["instance"]["noise_levels"]
    assert len(set(levels)) == 161 and levels[0] == 0.1 and levels[-1] == 0.0
    assert abs(levels[-2] - 1e-4) < 1e-18


def test_determinism_flags_changed_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    first = run.Determinism("w", "c" * 64, "s" * 64)
    first.check({"sweep.csv": "aa"})
    first.check({"sweep.csv": "aa"})
    with pytest.raises(run.CheckFailed):
        first.check({"sweep.csv": "ab"})
    later = run.Determinism("w", "c" * 64, "s" * 64)  # a later run, same key
    with pytest.raises(run.CheckFailed):
        later.check({"sweep.csv": "ab"})
    run.Determinism("w", "c" * 64, "t" * 64).check({"sweep.csv": "ab"})  # new source


@pytest.fixture
def plan_out(tmp_path):
    from carleman_lab import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps(run.make_config("all_readme", 0)))
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--command", "plan", "--quiet", "--out", str(out)]) == 0
    return config, out


def test_checker_accepts_real_output_and_rejects_a_foreign_hash(plan_out):
    config, out = plan_out
    _, digests = run.Checker("plan", config, {}).check(out)
    assert set(digests) == {"plan.txt"}
    plan = out / "plan.txt"
    plan.write_text(plan.read_text().replace("config_hash = ", "config_hash = 0"))
    with pytest.raises(run.CheckFailed, match="config_hash"):
        run.Checker("plan", config, {}).check(out)


def test_checker_rejects_missing_or_extra_artifacts_and_reference_misses(plan_out):
    config, out = plan_out
    with pytest.raises(run.CheckFailed, match="artifacts"):
        run.Checker("all", config, {}).check(out)
    with pytest.raises(run.CheckFailed, match="reference"):
        run.Checker("plan", config, {"f_err_region_rel": 0.02}).check(out)


def test_every_hook_target_exists():
    for module_name, attr, layer, _ in traced_cli.HOOKS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
        assert layer in traced_cli.LAYERS


def test_self_time_excludes_enclosed_spans():
    tracer = traced_cli.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.05), "geometry", "geometry.stencil")

    def outer_body():
        time.sleep(0.05)
        inner()
        return "value"

    outer = tracer.wrap(outer_body, "verifier", "verifier.carleman_sides")
    assert outer() == "value"
    m = tracer.metrics()
    assert m["verifier.carleman_sides_calls"] == 1 and m["geometry.stencil_calls"] == 1
    assert m["verifier.carleman_sides_s"] >= 0.1
    assert 0.05 <= m["verifier.self_s"] < m["verifier.carleman_sides_s"]
    assert m["verifier.self_s"] + m["geometry.self_s"] == pytest.approx(m["verifier.carleman_sides_s"])


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all_readme",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb", "err_rel"}

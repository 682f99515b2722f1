"""Driver tests: config validation, per-command artifacts, exit codes.

Solver-backed commands run on a deliberately coarse 13x11x13 grid so the
whole file stays fast; the plan command uses the worked grid where the
frozen parameter values hold exactly.
"""

import dataclasses
import errno
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from carleman_lab import (
    __version__, artifacts as artifacts_module, cli as cli_module, factor as factor_module,
    reconstruct as reconstruct_module, weight as weight_module, workers,
)
from carleman_lab.cli import (
    CARLEMAN_CSV_HEADER,
    LEMMA1_CSV_HEADER,
    ExperimentConfig,
    load_config,
    load_reconstruction,
    load_table_csv,
    main,
    run,
)
from carleman_lab.errors import ValidationError
from carleman_lab.problems import load_instance
from carleman_lab.reconstruct import Regularization, load_sweep_csv
from carleman_lab.weight import load_plan_record, plan_parameters

WORKED_GEOMETRY = {
    "d_lo": 0.0, "d_hi": 1.0, "ell": 1.0, "delta": 1.0,
    "gamma_side": "HI", "nx_prime": 21, "nx_n": 17, "nt": 21,
}
SMALL_GEOMETRY = dict(WORKED_GEOMETRY, nx_prime=13, nx_n=11, nt=13)


README = Path(__file__).resolve().parents[1] / "README.md"
README_CONFIG = json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))


def base_config(out_dir, geometry=None):
    return {
        "output_dir": str(out_dir),
        "geometry": dict(geometry or SMALL_GEOMETRY),
        "weight": {"D0": [0.5, 1.0], "delta0": 0.7, "lam": 1.0, "margin": 1.1},
        "instance": {
            "recipe": {
                "a": {"name": "quadratic_plus_quartic"},
                "b": {"name": "exp_cos"},
                "f": {"name": "one"},
            },
            "p0": {"name": "constant", "params": {"value": 0.0}},
            "noise_levels": [0.1, 0.03, 0.01, 0.003, 0.001],
            "seed": 0,
        },
        "solver": {"mu": 1e-6},
        "verify": {"corpus_size": 4, "s_values": [2, 5], "lemma1_members": 4},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---- configuration loading ---------------------------------------------------------


def test_config_hash_ignores_key_order(tmp_path):
    cfg = base_config(tmp_path)
    a = write_config(tmp_path, cfg, "a.json")
    reordered = {k: cfg[k] for k in reversed(list(cfg))}
    b = write_config(tmp_path, reordered, "b.json")
    assert a.read_text() != b.read_text()
    assert load_config(a).config_hash == load_config(b).config_hash


def test_config_rejects_unknown_key(tmp_path):
    cfg = base_config(tmp_path)
    cfg["geometry"]["nx_time"] = 9
    with pytest.raises(ValidationError, match="nx_time"):
        load_config(write_config(tmp_path, cfg))


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_config(path)


def test_config_rejects_wrong_type(tmp_path):
    cfg = base_config(tmp_path)
    cfg["geometry"]["nx_prime"] = "many"
    with pytest.raises(ValidationError, match="geometry/nx_prime"):
        load_config(write_config(tmp_path, cfg))


def test_config_requires_geometry_block(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["geometry"]
    with pytest.raises(ValidationError, match="geometry"):
        load_config(write_config(tmp_path, cfg))


def test_weight_block_needs_exactly_one_form(tmp_path):
    cfg = base_config(tmp_path)
    cfg["weight"]["region"] = {"delta1": 0.1}
    both = load_config(write_config(tmp_path, cfg, "both.json"))
    with pytest.raises(ValidationError, match="exactly one"):
        both.weight_plan(both.geometry())
    cfg["weight"] = {"lam": 1.0}
    neither = load_config(write_config(tmp_path, cfg, "neither.json"))
    with pytest.raises(ValidationError, match="exactly one"):
        neither.weight_plan(neither.geometry())


def test_weight_region_form_builds_a_plan(tmp_path):
    cfg = base_config(tmp_path, geometry=WORKED_GEOMETRY)
    cfg["weight"] = {"region": {"delta1": 0.1}}
    loaded = load_config(write_config(tmp_path, cfg))
    plan = loaded.weight_plan(loaded.geometry())
    assert plan.delta0 == 0.1
    assert plan.sigma1 < plan.sigma0


def test_delta0_rejected_with_region_form(tmp_path):
    cfg = base_config(tmp_path, geometry=WORKED_GEOMETRY)
    cfg["weight"] = {"region": {"delta1": 0.1}, "delta0": 0.1}
    loaded = load_config(write_config(tmp_path, cfg))
    with pytest.raises(ValidationError, match="delta0"):
        loaded.weight_plan(loaded.geometry())


def test_recipe_rejects_unknown_profile(tmp_path):
    cfg = base_config(tmp_path)
    cfg["instance"]["recipe"]["a"]["name"] = "septic"
    loaded = load_config(write_config(tmp_path, cfg))
    with pytest.raises(ValidationError, match="septic"):
        loaded.recipe()


def test_recipe_rejects_foreign_parameter(tmp_path):
    cfg = base_config(tmp_path)
    cfg["instance"]["p0"]["params"] = {"slope": 2.0}
    loaded = load_config(write_config(tmp_path, cfg))
    with pytest.raises(ValidationError, match="slope"):
        loaded.recipe()


def test_profile_one_rejects_a_value(tmp_path, capsys):
    # "one" evaluated to the given value while its provenance still named "one"
    cfg = base_config(tmp_path / "out")
    cfg["instance"]["recipe"]["f"]["params"] = {"value": 3}
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "make-instance") == 1
    assert "profile 'one' rejected parameters ['value']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "instance.npz").exists()


def test_solver_defaults_fill_in(tmp_path):
    loaded = load_config(write_config(tmp_path, base_config(tmp_path)))
    reg = loaded.regularization()
    assert reg.tikhonov_weight == 1e-6
    assert reg.carleman_s == 0.0


def test_verify_settings_merge_defaults(tmp_path):
    loaded = load_config(write_config(tmp_path, base_config(tmp_path)))
    vs = loaded.verify_settings()
    assert vs["corpus_size"] == 4
    assert vs["s_values"] == [2.0, 5.0]
    assert vs["corpus_seed"] == 11
    assert vs["c_cap"] == 10.0


def _documented_defaults(node, path=()):
    """Yield (key path, value) for each "Default X." that closes a description."""
    for key, sub in node.get("properties", {}).items():
        match = re.search(r"Default (.+)\.$", sub.get("description", ""))
        if match:
            yield path + (key,), json.loads(match.group(1))
        yield from _documented_defaults(sub, path + (key,))


def test_schema_documents_the_code_defaults():
    planner = inspect.signature(plan_parameters).parameters
    code = {
        **{
            ("solver", field.name): field.default
            for field in dataclasses.fields(Regularization)
            if field.default is not dataclasses.MISSING
        },
        **{("verify", key): value for key, value in cli_module._VERIFY_DEFAULTS.items()},
        **{("weight", key): planner[key].default for key in ("lam", "margin")},
    }
    documented = dict(_documented_defaults(cli_module._schema()))
    assert documented.keys() == code.keys()
    for path, value in documented.items():
        want = code[path]
        assert value == (list(want) if isinstance(want, tuple) else want), path


def test_missing_block_names_itself(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["solver"]
    loaded = load_config(write_config(tmp_path, cfg))
    with pytest.raises(ValidationError, match="'solver'"):
        loaded.regularization()


# ---- commands and artifacts ----------------------------------------------------------


def cli(*args):
    return main([str(a) for a in args])


def test_plan_command_reproduces_worked_values(tmp_path):
    cfg = base_config(tmp_path / "out", geometry=WORKED_GEOMETRY)
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "plan", "--quiet") == 0
    record = load_plan_record((tmp_path / "out" / "plan.txt").read_text())
    assert record["beta"] == pytest.approx(1.00040016006, rel=1e-9)
    assert record["alpha"] == pytest.approx(1.08921568627, rel=1e-9)
    assert record["sigma0"] / record["sigma1"] == pytest.approx(np.exp(1.0 / 102.0), rel=1e-12)
    assert record["version"] == __version__
    assert record["config_hash"] == load_config(path).config_hash


def test_plan_command_writes_the_region_collar(tmp_path):
    cfg = base_config(tmp_path / "out", geometry=WORKED_GEOMETRY)
    cfg["weight"] = {"region": {"delta1": 0.1}}
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "plan", "--quiet") == 0
    record = load_plan_record((tmp_path / "out" / "plan.txt").read_text())
    assert record["include_far_face"] is False
    assert (record["domain_lo"], record["domain_hi"]) == (0.5, 1.0)
    assert (record["D0_lo"], record["D0_hi"]) == (0.75, 1.0)
    assert record["delta0"] == 0.1


def test_verify_command_tables_roundtrip(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "verify", "--quiet") == 0
    with open(tmp_path / "out" / "carleman_rows.csv") as fh:
        rows, footer = load_table_csv(fh, CARLEMAN_CSV_HEADER)
    assert len(rows) == 4 * 2  # corpus members times strengths
    assert all(np.isfinite(row).all() for row in rows)
    ratios = [row[-1] for row in rows]
    assert float(footer["c_emp"]) == max(ratios)
    assert footer["version"] == __version__
    with open(tmp_path / "out" / "lemma1_rows.csv") as fh:
        rows2, footer2 = load_table_csv(fh, LEMMA1_CSV_HEADER)
    assert len(rows2) == 4
    assert int(footer2["members"]) == 4
    assert 0 <= int(footer2["in_window"]) <= 4
    assert footer2["config_hash"] == footer["config_hash"]


def test_make_instance_archive_roundtrips(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "make-instance", "--quiet") == 0
    inst = load_instance(tmp_path / "out" / "instance.npz")
    assert inst.provenance["config_hash"] == load_config(path).config_hash
    assert inst.provenance["version"] == __version__
    assert inst.geometry.nx_prime == 13


def test_reconstruct_archive_roundtrips(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "reconstruct", "--quiet") == 0
    f_hat, u_hat, meta = load_reconstruction(tmp_path / "out" / "reconstruction.npz")
    assert f_hat.shape == (13, 13)
    assert u_hat.shape == (13, 11, 13)
    assert meta["err_region"] <= meta["err_global"]
    assert 0.0 < meta["rel_residual"] <= reconstruct_module._MAX_REL_NORMAL_RESIDUAL
    assert "iterations" not in meta
    assert meta["version"] == __version__


def test_sweep_outputs_are_byte_identical_per_seed(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "sweep", "--out", tmp_path / "a", "--quiet") == 0
    assert cli("--config", path, "--command", "sweep", "--out", tmp_path / "b", "--quiet") == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def _child_env(**overrides):
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_at_blas_threads(path, out, threads, command="all", cpus=None):
    # a fresh interpreter, since OpenBLAS reads its thread count at load time;
    # ``cpus`` pins the child to those CPUs, which sets its factor's workers
    subprocess.run(
        [sys.executable, "-m", "carleman_lab.cli", "--config", str(path),
         "--command", command, "--out", str(out), "--quiet"],
        env=_child_env(OPENBLAS_NUM_THREADS=threads), check=True, timeout=300,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )


_SCIPY_MODULES_AFTER_PLAN_AND_VERIFY = """
import json, sys
import carleman_lab.cli as cli
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
loaded = [scipy_modules()]
thread_pool = "concurrent.futures" in sys.modules
for command in ("plan", "verify"):
    assert cli.main(["--config", sys.argv[1], "--command", command, "--quiet"]) == 0
    loaded.append(scipy_modules())
print(json.dumps([loaded, thread_pool]))
"""


def test_plan_and_verify_never_load_scipy(tmp_path):
    # a fresh interpreter, since this process has scipy loaded already; the
    # import of the CLI also leaves out the thread pool, whose import takes
    # several milliseconds and is made only when a helper thread starts
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES_AFTER_PLAN_AND_VERIFY, str(path)],
        env=_child_env(), check=True, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(done.stdout) == [[[], [], []], False]
    assert {p.name for p in (tmp_path / "out").iterdir()} == {
        "plan.txt", "carleman_rows.csv", "lemma1_rows.csv",
    }


_ALL_WITHOUT_JSONSCHEMA = """
import json, sys
sys.modules["jsonschema"] = None  # an import of it now raises ImportError
import carleman_lab.cli as cli
def loaded():
    return sorted(name for name, module in sys.modules.items()
                  if module is not None and name.split(".")[0] in ("scipy", "jsonschema"))
after_import = loaded()
code = cli.main(["--config", sys.argv[1], "--command", "all", "--quiet"])
print(json.dumps([after_import, code, "scipy.linalg" in sys.modules]))
"""


def test_all_runs_without_jsonschema_and_scipy_linalg(tmp_path):
    # a fresh interpreter, since this process has both loaded already
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    done = subprocess.run(
        [sys.executable, "-c", _ALL_WITHOUT_JSONSCHEMA, str(path)],
        env=_child_env(), check=True, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(done.stdout) == [[], 0, False]


_RECONSTRUCT_THROUGH = """
import hashlib, json, sys
from carleman_lab import cli, factor
if sys.argv[3] == "capsules":
    factor._openblas = lambda: None  # as where scipy vendors no OpenBLAS
assert cli.main(["--config", sys.argv[1], "--command", "reconstruct", "--out", sys.argv[2], "--quiet"]) == 0
archive = open(sys.argv[2] + "/reconstruction.npz", "rb").read()
print(json.dumps([hashlib.sha256(archive).hexdigest(), "scipy.linalg" in sys.modules]))
"""


def test_the_capsule_binding_solves_to_the_same_bits(tmp_path):
    # 13 x' slabs: heads, two arms and a separator, so all five routines run;
    # one BLAS thread, since the capsule path has no thread pin
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    runs = {}
    for binding in ("openblas", "capsules"):
        done = subprocess.run(
            [sys.executable, "-c", _RECONSTRUCT_THROUGH, str(path), str(tmp_path / binding), binding],
            env=_child_env(OPENBLAS_NUM_THREADS="1"), check=True, capture_output=True, text=True,
            timeout=300,
        )
        runs[binding] = json.loads(done.stdout)
    assert runs["openblas"][0] == runs["capsules"][0]
    assert (runs["openblas"][1], runs["capsules"][1]) == (False, True)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the runs of `all` on the 13x11x13 grid take a few seconds together; the
    # sweep's levels fill two blocks and part of a third, and the grid splits
    # into two arms, so a child pinned to one CPU solves them on one worker
    cfg = base_config(tmp_path / "out")
    levels = np.geomspace(1e-1, 1e-4, 2 * reconstruct_module._SOLVE_BLOCK + 4).tolist()
    cfg["instance"]["noise_levels"] = [*levels, 0.0]
    path = write_config(tmp_path, cfg)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _run_at_blas_threads(path, out, threads)
        outputs.append(out)
    # on one CPU both runs above had one worker already, and without CPU
    # affinity (macOS, Windows) no child can be pinned to one
    if hasattr(os, "sched_getaffinity") and workers.count() == 2:
        out = tmp_path / "one_cpu"
        _run_at_blas_threads(path, out, "1", cpus={min(os.sched_getaffinity(0))})
        outputs.append(out)
    with (outputs[0] / "sweep.csv").open() as fh:
        assert len(load_sweep_csv(fh)[0]) > 2 * reconstruct_module._SOLVE_BLOCK
    for name in ("carleman_rows.csv", "sweep.csv"):
        for out in outputs[1:]:
            assert (out / name).read_bytes() == (outputs[0] / name).read_bytes()


@pytest.mark.parametrize(
    "command, name", [("reconstruct", "reconstruction.npz"), ("sweep", "sweep.csv")]
)
def test_readme_grid_outputs_do_not_depend_on_blas_threads(tmp_path, command, name):
    # heads of 756 unknowns and a band of half-bandwidth 756: wide enough that
    # threaded OpenBLAS products inside the factorization and the blocked
    # solves would round differently.  The grid splits into two arms, so a
    # child pinned to one CPU factors and solves them on one worker
    cfg = base_config(tmp_path / "out", geometry=WORKED_GEOMETRY)
    del cfg["verify"]
    path = write_config(tmp_path, cfg)
    for threads in ("1", "2"):
        _run_at_blas_threads(path, tmp_path / f"threads{threads}", threads, command)
    one, two = (tmp_path / f"threads{threads}" / name for threads in ("1", "2"))
    assert one.read_bytes() == two.read_bytes()
    # on one CPU every run above had one worker already, and without CPU
    # affinity (macOS, Windows) no child can be pinned to one
    if hasattr(os, "sched_getaffinity") and workers.count() == 2:
        cpu = min(os.sched_getaffinity(0))
        _run_at_blas_threads(path, tmp_path / "one_cpu", "1", command, cpus={cpu})
        assert (tmp_path / "one_cpu" / name).read_bytes() == one.read_bytes()


def test_seed_override_changes_rows_and_hash(tmp_path):
    cfg = base_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    cfg["instance"]["seed"] = 42
    reseeded = write_config(tmp_path, cfg, "reseeded.json")
    assert cli("--config", path, "--command", "sweep", "--out", tmp_path / "a", "--quiet") == 0
    assert cli("--config", reseeded, "--command", "sweep", "--out", tmp_path / "c", "--quiet") == 0
    with open(tmp_path / "a" / "sweep.csv") as fh:
        rows_a, footer_a = load_sweep_csv(fh)
    with open(tmp_path / "c" / "sweep.csv") as fh:
        rows_c, footer_c = load_sweep_csv(fh)
    assert footer_c["seed"] == "42"
    assert footer_c["config_hash"] != footer_a["config_hash"]
    assert any(ra.err_region != rc.err_region for ra, rc in zip(rows_a, rows_c))


def test_all_pipeline_emits_every_artifact(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "all", "--quiet") == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {
        "plan.txt", "carleman_rows.csv", "lemma1_rows.csv",
        "instance.npz", "reconstruction.npz", "sweep.csv",
    }


def test_all_builds_plan_instance_and_factorization_once(tmp_path, monkeypatch):
    calls = Counter()
    for module, name in (
        (factor_module, "_dpbtrf"),
        (cli_module, "plan_parameters"),
        (cli_module, "make_instance"),
    ):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "all", "--quiet") == 0
    # one factorization: one band factor per arm, and 13x11x13 has two arms
    assert calls == {"_dpbtrf": 2, "plan_parameters": 1, "make_instance": 1}


def test_all_matches_the_commands_run_one_at_a_time(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "all"))
    assert cli("--config", path, "--command", "all", "--quiet") == 0
    single = tmp_path / "single"
    for command in ("plan", "verify", "make-instance", "reconstruct", "sweep"):
        assert cli("--config", path, "--command", command, "--out", single, "--quiet") == 0
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert names == sorted(p.name for p in single.iterdir())
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (single / name).read_bytes(), name


def test_out_flag_overrides_config_directory(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "configured"))
    nested = tmp_path / "somewhere" / "deep"
    assert cli("--config", path, "--command", "plan", "--out", nested, "--quiet") == 0
    assert (nested / "plan.txt").exists()
    assert not (tmp_path / "configured").exists()


def test_quiet_flag_silences_stdout(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "plan", "--quiet") == 0
    assert capsys.readouterr().out == ""
    assert cli("--config", path, "--command", "plan") == 0
    assert "plan:" in capsys.readouterr().out


def test_run_rejects_unknown_command(tmp_path):
    loaded = load_config(write_config(tmp_path, base_config(tmp_path)))
    with pytest.raises(ValidationError, match="unknown command"):
        run("bogus", loaded, tmp_path)


# ---- exit codes ----------------------------------------------------------------------


def test_exit_1_on_rejected_config(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["weight"]["delta0"] = 5.0
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "plan") == 1
    assert "delta0" in capsys.readouterr().err


def test_exit_1_on_a_repeated_strength(tmp_path, capsys):
    # a repeated strength would write every member's row twice
    cfg = base_config(tmp_path / "out")
    cfg["verify"]["s_values"] = [5, 5]
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "verify") == 1
    assert "s_values must be a nonempty strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "out" / "carleman_rows.csv").exists()


@pytest.mark.parametrize(
    "literal, message",
    [
        pytest.param("NaN", "non-standard literal NaN refused", id="nan"),
        pytest.param("Infinity", "non-standard literal Infinity refused", id="inf"),
        pytest.param("-Infinity", "non-standard literal -Infinity refused", id="-inf"),
        # json.loads reads these as +-inf, or as an int no float can hold
        pytest.param("1e999", "number literal 1e999 overflows a float", id="1e999"),
        pytest.param("-1e999", "number literal -1e999 overflows a float", id="-1e999"),
        # a literal past 120 characters is echoed in reprlib's short form
        pytest.param("9" * 400, f"number literal {'9' * 12}...{'9' * 13} overflows", id="400-digit-int"),
    ],
)
def test_exit_1_on_a_nan_or_infinity_literal(tmp_path, capsys, literal, message):
    cfg = base_config(tmp_path / "out")
    cfg["verify"]["c_cap"] = "LITERAL"
    path = write_config(tmp_path, cfg)
    path.write_text(path.read_text().replace('"LITERAL"', literal))
    assert cli("--config", path, "--command", "verify") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, key, value, command",
    [
        # each passes the schema; these used to end in an OverflowError or
        # numpy's "Maximum allowed size exceeded" traceback
        pytest.param("geometry", "ell", 1e300, "plan", id="ell"),
        pytest.param("weight", "lam", 1e6, "plan", id="lam"),
        pytest.param("verify", "s_values", [1e300], "verify", id="s_values"),
        pytest.param("geometry", "nx_prime", 1e300, "plan", id="nx_prime"),
    ],
)
def test_exit_1_on_a_schema_valid_value_out_of_range(tmp_path, capsys, block, key, value, command):
    cfg = json.loads(json.dumps(README_CONFIG))
    cfg["output_dir"] = str(tmp_path / "out")
    cfg.setdefault(block, {})[key] = value
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", command) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "path_in_config, value, where",
    [
        pytest.param(("weight", "D0"), [0.5] * 5000, "weight/D0", id="5000-item-D0"),
        pytest.param(("output_dir",), _nested(900), "output_dir", id="900-deep-output_dir"),
    ],
)
def test_a_config_error_line_shortens_a_long_value(tmp_path, capsys, path_in_config, value, where):
    cfg = base_config(tmp_path / "out")
    *parents, key = path_in_config
    target = cfg
    for name in parents:
        target = target[name]
    target[key] = value
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "plan") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 300
    assert err.startswith(f"error: config rejected at {where}: ")


@pytest.mark.parametrize(
    "parents, key, literal, command, shown",
    [
        pytest.param(
            ("instance", "p0", "params"), "k" * 5000, '"x"', "plan",
            "config rejected at instance/p0/params/kkkkkkkkkkkk...kkkkkkkkkkkkk: 'x' is not",
            id="5000-char-params-key",
        ),
        pytest.param(
            ("instance",), "seed", "7" * 5000, "plan",
            "config rejected at instance/seed: number literal 777777777777...7777777777777 overflows",
            id="5000-digit-seed",
        ),
        # a number the schema takes, under a key no profile accepts
        pytest.param(
            ("instance", "p0", "params"), "k" * 5000, "1.0", "make-instance",
            "profile 'constant' rejected parameters ['kkkkkkkkkkkk...kkkkkkkkkkkkk', 'value']",
            id="5000-char-numeric-params-key",
        ),
        # a profile name the schema takes, but no registry holds
        pytest.param(
            ("instance", "recipe", "a"), "name", '"' + "n" * 5000 + '"', "make-instance",
            "unknown axial profile 'nnnnnnnnnnnn...nnnnnnnnnnnnn'; available: [",
            id="5000-char-axial-profile-name",
        ),
        pytest.param(
            ("instance", "p0"), "name", '"' + "n" * 5000 + '"', "make-instance",
            "unknown cross-time profile 'nnnnnnnnnnnn...nnnnnnnnnnnnn'; available: [",
            id="5000-char-cross-time-profile-name",
        ),
    ],
)
def test_a_config_error_line_shortens_a_long_key_or_literal(
    tmp_path, capsys, parents, key, literal, command, shown
):
    cfg = json.loads(json.dumps(README_CONFIG))
    cfg["output_dir"] = str(tmp_path / "out")
    target = cfg
    for name in parents:
        target = target[name]
    target[key] = "LITERAL"
    path = write_config(tmp_path, cfg)
    path.write_text(path.read_text().replace('"LITERAL"', literal))
    assert cli("--config", path, "--command", command) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {shown}") and err.count("\n") == 1 and len(err) < 300
    assert "Traceback" not in err


def test_exit_1_on_a_config_nested_too_deeply(tmp_path, capsys):
    # json.loads runs out of stack on it before any check sees it
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli("--config", path, "--command", "plan") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err


def test_exit_1_on_argparse_usage_error(tmp_path, capsys):
    assert cli("--config", tmp_path / "x.json", "--command", "bogus") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "block, key, value, args",
    [
        # the collar is anchored where gamma_side says and its search starts
        # at a quarter of the cross-section; both boundary row weights are
        # fixed; the solve applies the factor once, with no iteration cap,
        # and its residual bound is fixed; the seed is set in the instance
        # block only
        pytest.param("region", "x0_prime", 1.0, (), id="x0_prime"),
        pytest.param("region", "epsilon0", 1.0, (), id="epsilon0"),
        pytest.param("solver", "cauchy_weight", 1.0, (), id="cauchy_weight"),
        pytest.param("solver", "face_weight", 1.0, (), id="face_weight"),
        pytest.param("solver", "cg_maxit", 1.0, (), id="cg_maxit"),
        pytest.param("solver", "cg_tol", 1e-6, (), id="cg_tol"),
        pytest.param(None, "--seed-override", None, ("--seed-override", 42), id="seed-override"),
    ],
)
def test_exit_1_on_a_removed_key_or_flag(tmp_path, capsys, block, key, value, args):
    cfg = base_config(tmp_path / "out", geometry=WORKED_GEOMETRY)
    cfg["weight"] = {"region": {"delta1": 0.1}}
    if block is not None:
        target = cfg["weight"]["region"] if block == "region" else cfg[block]
        target[key] = value
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "plan", *args) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_2_on_solver_stall(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reconstruct_module, "_MAX_REL_NORMAL_RESIDUAL", 1e-300)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "reconstruct") == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: the solve missed the residual bound 1e-300: relative normal residual "
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("9-th leading minor not positive definite"), MemoryError()]
)
def test_exit_2_on_factorization_failure(tmp_path, monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(factor_module, "_dpbtrf", fail)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "reconstruct") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: factorization of the ")
    assert type(exc).__name__ in err
    assert "Traceback" not in err


@pytest.mark.skipif(
    workers.count() < 2, reason="on one CPU the caller runs both arms"
)
@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("9-th leading minor not positive definite"), MemoryError()]
)
def test_exit_2_when_the_helper_threads_arm_fails(tmp_path, monkeypatch, capsys, exc):
    # the right arm's band factor fails on the helper thread while the
    # caller factors the left arm
    band_factor, failed = factor_module._dpbtrf, []

    def fail_on_the_helper(ab):
        if threading.current_thread() is threading.main_thread():
            return band_factor(ab)
        failed.append(threading.current_thread().name)
        raise exc

    monkeypatch.setattr(factor_module, "_dpbtrf", fail_on_the_helper)
    threads = threading.active_count()
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "reconstruct") == 2
    assert len(failed) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: factorization of the ")
    assert type(exc).__name__ in err
    assert "Traceback" not in err
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "outcome, name",
    [("info", "LinAlgError"), (np.linalg.LinAlgError("not positive definite"), "LinAlgError"),
     (MemoryError(), "MemoryError")],
)
def test_exit_2_when_a_head_factor_fails(tmp_path, monkeypatch, capsys, outcome, name):
    # the dense head factor either reports LAPACK's info > 0 or raises
    def fail(*args):
        if outcome == "info":
            return 7
        raise outcome

    monkeypatch.setattr(factor_module, "_dpotrf", fail)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "reconstruct") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: factorization of the ")
    assert "normal matrix failed" in err and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "module, name, command",
    [pytest.param(reconstruct_module, "_lateral_matrix", "reconstruct", id="reconstruct"),
     pytest.param(cli_module, "verify_carleman", "verify", id="verify")],
)
def test_exit_2_on_running_out_of_memory_outside_the_factor(
    tmp_path, monkeypatch, capsys, module, name, command
):
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(module, name, exhaust)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 8.00 GiB")
    assert "Traceback" not in err


def test_bad_noise_levels_are_refused_before_factoring(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("factored before the levels were checked")

    monkeypatch.setattr(factor_module, "_dpbtrf", refuse)
    cfg = base_config(tmp_path / "out")
    cfg["instance"]["noise_levels"] = [0.1, 0.01, 0.001]
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "sweep") == 1
    assert "at least 4 noise levels" in capsys.readouterr().err


def test_a_sweep_without_noise_levels_is_refused_before_factoring(tmp_path, monkeypatch, capsys):
    # the schema does not require the key: only the sweep needs it
    def refuse(*args, **kwargs):
        raise AssertionError("built the factor of a sweep that has no noise levels")

    monkeypatch.setattr(factor_module, "BandCholesky", refuse)
    cfg = base_config(tmp_path / "out")
    del cfg["instance"]["noise_levels"]
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "sweep") == 1
    assert capsys.readouterr().err == (
        "error: this command needs 'noise_levels' in the instance block\n"
    )
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_exit_1_when_the_band_factor_exceeds_max_factor_gb(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("factored a grid above the size limit")

    monkeypatch.setattr(factor_module, "_dpbtrf", refuse)
    monkeypatch.setattr(factor_module, "_MAX_FACTOR_GB", 1e-3)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "reconstruct") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the band factor of the ")
    assert re.search(r"needs [\d.]+ GB \(half-bandwidth \d+\), above the limit of 0\.001 GB$", err)
    assert not (tmp_path / "out" / "reconstruction.npz").exists()


def test_exit_1_on_the_retired_max_factor_gb_key(tmp_path, capsys):
    # the factor's size limit is a constant of the factor, no longer a setting
    cfg = base_config(tmp_path / "out")
    cfg["solver"]["max_factor_gb"] = 8.0
    path = write_config(tmp_path, cfg)
    assert cli("--config", path, "--command", "reconstruct") == 1
    assert capsys.readouterr().err == (
        "error: config rejected at solver: Additional properties are not allowed "
        "('max_factor_gb' was unexpected)\n"
    )
    assert not (tmp_path / "out").exists()


def test_exit_2_on_cg_breakdown_in_a_sweep(tmp_path, monkeypatch, capsys):
    # a NaN factor passes LAPACK unchecked and fails the residual check
    def nan_factor(ab):
        ab[:] = np.nan
        return 0

    monkeypatch.setattr(factor_module, "_dpbtrf", nan_factor)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert cli("--config", path, "--command", "sweep") == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: the solve missed the residual bound 1e-08: relative normal residual nan"
    )
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_exit_3_when_an_artifact_cannot_be_written(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file where the output directory should go\n")
    path = write_config(tmp_path, base_config(taken))
    assert cli("--config", path, "--command", "plan") == 3
    assert "error: " in capsys.readouterr().err
    assert taken.read_text() == "a file where the output directory should go\n"


class _DiskFull:
    """A file for writing whose write lands half its bytes, then fails as a full disk does."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command, name", [("plan", "plan.txt"), ("make-instance", "instance.npz")])
def test_a_failed_write_exits_3_and_leaves_the_previous_artifact_whole(
    tmp_path, monkeypatch, capsys, command, name
):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert cli("--config", path, "--command", command, "--quiet") == 0
    before = (out / name).read_bytes()
    # the writer's one open, so the write of every artifact fails half done
    monkeypatch.setattr(artifacts_module, "open", _DiskFull, raising=False)
    assert cli("--config", path, "--command", command, "--quiet") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "No space left on device" in err
    assert (out / name).read_bytes() == before
    assert [p.name for p in out.iterdir()] == [name]


def _assert_interrupted(code, err, out):
    assert code == 130
    assert err == "error: interrupted\n", err
    # plan.txt landed before the interrupt; verify's tables never began to
    assert sorted(p.name for p in out.iterdir()) == ["plan.txt"]


def test_an_interrupt_exits_130_with_one_error_line(tmp_path, monkeypatch, capsys):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli_module._RUNNERS, "verify", interrupt)
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    code = cli("--config", path, "--command", "all", "--quiet")
    _assert_interrupted(code, capsys.readouterr().err, out)


def test_sigint_during_a_run_exits_130_with_one_error_line(tmp_path):
    # the README grid verifies on the caller alone, so the signal lands in the
    # corpus.  It is sent a while after plan.txt lands: numpy's module set-up
    # swallows an interrupt that lands in verify's first import of numpy.random
    cfg = dict(README_CONFIG, verify={"corpus_size": 20000})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    child = subprocess.Popen(
        [sys.executable, "-m", "carleman_lab.cli", "--config", str(path),
         "--command", "all", "--out", str(out), "--quiet"],
        env=_child_env(OPENBLAS_NUM_THREADS="1"), stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (out / "plan.txt").exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    _assert_interrupted(child.returncode, err, out)


def test_exit_3_on_missing_config(tmp_path, capsys):
    assert cli("--config", tmp_path / "absent.json", "--command", "plan") == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli("--help") == 0
    assert "plan" in capsys.readouterr().out


# ---- loaders reject foreign files ----------------------------------------------------


def test_table_loader_rejects_wrong_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("alpha,beta\n1.0,2.0\n")
    with open(path) as fh:
        with pytest.raises(ValidationError, match="header"):
            load_table_csv(fh, CARLEMAN_CSV_HEADER)


def test_table_loader_rejects_short_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(CARLEMAN_CSV_HEADER + "\n1.0,2.0\n")
    with open(path) as fh:
        with pytest.raises(ValidationError, match="malformed"):
            load_table_csv(fh, CARLEMAN_CSV_HEADER)


def test_reconstruction_loader_rejects_foreign_archive(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(ValidationError, match="reconstruction archive"):
        load_reconstruction(path)


def test_hash_is_part_of_every_artifact(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    loaded = load_config(path)
    assert cli("--config", path, "--command", "all", "--quiet") == 0
    out = tmp_path / "out"
    expected = loaded.config_hash
    assert load_plan_record((out / "plan.txt").read_text())["config_hash"] == expected
    # every text report is a table of the one codec, plan.txt one without rows
    for name, header in (("plan.txt", weight_module._REPORT_HEADER),
                         ("carleman_rows.csv", CARLEMAN_CSV_HEADER),
                         ("lemma1_rows.csv", LEMMA1_CSV_HEADER),
                         ("sweep.csv", reconstruct_module._CSV_HEADER)):
        with open(out / name) as fh:
            _, footer = load_table_csv(fh, header)
        assert footer["config_hash"] == expected, name
    assert load_instance(out / "instance.npz").provenance["config_hash"] == expected
    assert load_reconstruction(out / "reconstruction.npz")[2]["config_hash"] == expected
    with open(out / "sweep.csv") as fh:
        _, sweep_footer = load_sweep_csv(fh)
    assert sweep_footer["config_hash"] == expected

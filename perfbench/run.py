"""End-to-end benchmark of the carleman-lab CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload all_readme --seed 0 --seconds 20 --trace 0

Each run writes one generated JSON config per workload and drives the real
entry point, ``python -m carleman_lab.cli --config <config> --command <cmd>``,
with ``PYTHONPATH=src`` and BLAS pinned to one thread.  Children run one at a
time (a closed loop with one client) until ``--seconds`` is used up.  Every
child is checked: exit code, artifacts reloaded through the package's own
loaders, stamped config hashes, the accuracy figure against
``reference.json``, and byte-identical CSV and ``plan.txt`` output across
runs of the same workload and seed.

``--trace 0`` prints the end-to-end metrics (medians over the run's
children); ``--trace 1`` prints the per-layer metrics from ``traced_cli.py``
plus the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for why each workload exists.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

DEFAULT_SEED = 0
BLAS_THREADS = "1"
SETUP_PROBES = 8
# the accuracy figure may move this far (relative) from reference.json and pass
REL_TOL = 0.01
# every child must end this long after the run starts, so the run ends well
# inside the 180 s a run is allowed
DEADLINE_S = 170.0

README_LEVELS = [0.1, 0.03, 0.01, 0.003, 0.001]
# 160 levels log-spaced over 1e-1..1e-4, computed in plain floats so the
# generated config is the same on every numpy build
DENSE_LEVELS = [10.0 ** (-1.0 - 3.0 * i / 159) for i in range(160)] + [0.0]

WORKLOADS = {
    "all_readme": {"command": "all", "grid": (21, 17, 21), "levels": README_LEVELS},
    "sweep_g27": {
        "command": "sweep",
        "grid": (27, 27, 27),
        "levels": [0.1, 0.03, 0.01, 0.003, 0.001, 0.0],
    },
    "sweep_dense": {"command": "sweep", "grid": (21, 17, 21), "levels": DENSE_LEVELS},
    "verify_g41": {
        "command": "verify",
        "grid": (41, 41, 41),
        "levels": README_LEVELS,
        "verify": {"corpus_size": 40},
    },
}

ARTIFACTS = {
    "plan": ["plan.txt"],
    "verify": ["carleman_rows.csv", "lemma1_rows.csv"],
    "make-instance": ["instance.npz"],
    "reconstruct": ["reconstruction.npz"],
    "sweep": ["sweep.csv"],
}
ARTIFACTS["all"] = [name for names in ARTIFACTS.values() for name in names]

PER_LAYER = [
    "cli.plan_s",
    "cli.verify_s",
    "cli.make_instance_s",
    "cli.reconstruct_s",
    "cli.sweep_s",
    "cli.all_s",
    "cli.self_s",
    "geometry.self_s",
    "geometry.stencil_s",
    "geometry.stencil_calls",
    "weight.self_s",
    "weight.plan_builds",
    "weight.plan_parameters_s",
    "weight.phi_field_calls",
    "problems.self_s",
    "problems.instance_builds",
    "problems.make_instance_s",
    "problems.add_noise_s",
    "problems.data_functional_s",
    "verifier.self_s",
    "verifier.carleman_sides_s",
    "verifier.carleman_sides_calls",
    "reconstruct.self_s",
    "reconstruct.factor_s",
    "reconstruct.factorizations",
    "reconstruct.factor_lu_nnz",
    "reconstruct.operator_build_s",
    "reconstruct.solve_s",
    "reconstruct.solves",
    "reconstruct.cg_iterations",
    "reconstruct.final_rel_residual",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "reconstruct.final_rel_residual" else "count"


class CheckFailed(Exception):
    """A child's exit code or output failed the correctness gate."""


# ---- inputs -------------------------------------------------------------------------


def make_config(workload: str, seed: int) -> dict:
    """The generated config of one workload: README constants, given grid and seed."""
    spec = WORKLOADS[workload]
    nxp, nxn, nt = spec["grid"]
    cfg = {
        "output_dir": "out",
        "geometry": {
            "d_lo": 0.0, "d_hi": 1.0, "ell": 1.0, "delta": 1.0, "gamma_side": "HI",
            "nx_prime": nxp, "nx_n": nxn, "nt": nt,
        },
        "weight": {"D0": [0.5, 1.0], "delta0": 0.7, "lam": 1.0, "margin": 1.1},
        "instance": {
            "recipe": {
                "a": {"name": "quadratic_plus_quartic"},
                "b": {"name": "exp_cos"},
                "f": {"name": "one"},
            },
            "p0": {"name": "constant", "params": {"value": 0.0}},
            "noise_levels": list(spec["levels"]),
            "seed": int(seed),
        },
        "solver": {"mu": 1e-6},
    }
    if "verify" in spec:
        cfg["verify"] = dict(spec["verify"])
    return cfg


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        TMPDIR=str(WORK),
    )
    return env


# ---- children -----------------------------------------------------------------------


def run_child(argv: list[str], cwd: Path, timeout: float, log_stem: Path) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall seconds, peak RSS MB).

    The peak RSS comes from ``os.wait4`` on this child alone.  The
    ``RUSAGE_CHILDREN`` figure of ``getrusage`` is a running maximum over every
    child reaped so far, so it would repeat the largest earlier child.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stderr_tail(log_stem: Path, lines: int = 5) -> str:
    text = Path(f"{log_stem}.err").read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


# ---- correctness gate ---------------------------------------------------------------


class Checker:
    """Reloads a child's artifacts with the package's loaders and checks them."""

    def __init__(self, command: str, config_path: Path, reference: dict):
        from carleman_lab import cli, geometry, problems, reconstruct, weight

        self.cli, self.geometry, self.problems = cli, geometry, problems
        self.reconstruct, self.weight = reconstruct, weight
        self.command = command
        self.cfg = cli.load_config(config_path)
        self.config_hash = self.cfg.config_hash
        self.reference = reference
        self._f_scale = None

    def _hash(self, where: str, stamped) -> None:
        if stamped != self.config_hash:
            raise CheckFailed(f"{where}: config_hash {stamped!r} != {self.config_hash!r}")

    def _f_region_norm(self) -> float:
        if self._f_scale is None:
            inst = self.problems.make_instance(self.cfg.geometry(), self.cfg.recipe())
            plan = self.cfg.weight_plan(self.cfg.geometry())
            region = self.reconstruct.stability_region(plan)
            self._f_scale = self.geometry.discrete_norm(inst.f, region=region)
        return self._f_scale

    def check(self, out_dir: Path) -> tuple[dict, dict]:
        """Return (figures, digests) or raise CheckFailed."""
        cli = self.cli
        expected = ARTIFACTS[self.command]
        present = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
        if present != sorted(expected):
            raise CheckFailed(f"artifacts {present} != expected {sorted(expected)}")
        figures: dict = {}
        try:
            if "plan.txt" in expected:
                record = self.weight.load_plan_record((out_dir / "plan.txt").read_text())
                self._hash("plan.txt", record.get("config_hash"))
            if "carleman_rows.csv" in expected:
                with (out_dir / "carleman_rows.csv").open() as fh:
                    rows, footer = cli.load_table_csv(fh, cli.CARLEMAN_CSV_HEADER)
                self._hash("carleman_rows.csv", footer.get("config_hash"))
                figures["c_emp"] = float(footer["c_emp"])
                with (out_dir / "lemma1_rows.csv").open() as fh:
                    rows, footer = cli.load_table_csv(fh, cli.LEMMA1_CSV_HEADER)
                self._hash("lemma1_rows.csv", footer.get("config_hash"))
                figures["identity_residual_max"] = max(row[1] for row in rows)
            if "instance.npz" in expected:
                inst = self.problems.load_instance(out_dir / "instance.npz")
                self._hash("instance.npz", inst.provenance.get("config_hash"))
            if "reconstruction.npz" in expected:
                _, _, meta = cli.load_reconstruction(out_dir / "reconstruction.npz")
                self._hash("reconstruction.npz", meta.get("config_hash"))
                figures["f_err_region_rel"] = float(meta["err_region_rel"])
            if "sweep.csv" in expected:
                with (out_dir / "sweep.csv").open() as fh:
                    rows, footer = self.reconstruct.load_sweep_csv(fh)
                self._hash("sweep.csv", footer.get("config_hash"))
                if len(rows) != len(self.cfg.noise_levels()):
                    raise CheckFailed(f"sweep.csv has {len(rows)} rows")
                noiseless = [r for r in rows if r.noise == 0.0]
                if noiseless and "f_err_region_rel" not in figures:
                    figures["f_err_region_rel"] = noiseless[0].err_region / self._f_region_norm()
        except (KeyError, ValueError, OSError) as exc:
            raise CheckFailed(f"artifact does not load: {exc!r}") from exc
        except cli.ValidationError as exc:
            raise CheckFailed(f"artifact rejected by its loader: {exc}") from exc
        for key, ref in self.reference.items():
            got = figures.get(key)
            if got is None or not abs(got - ref) <= REL_TOL * abs(ref):
                raise CheckFailed(f"{key} = {got!r}, reference {ref!r} (rel tol {REL_TOL})")
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in expected
            if name.endswith(".csv") or name == "plan.txt"
        }
        return figures, digests


def err_rel(figures: dict) -> float:
    """The accuracy figure reported as ``err_rel``.

    Workloads that reconstruct report the noiseless relative region error of
    f; ``verify`` reconstructs nothing and reports its largest normalized
    coarse-grid identity residual, the relative error of its own stencils.
    """
    if "f_err_region_rel" in figures:
        return figures["f_err_region_rel"]
    return figures["identity_residual_max"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "carleman_lab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Determinism:
    """Byte-identity of CSV and plan.txt output for one (workload, config, source).

    Compares every child of this run with the first, and with the digests an
    earlier run on the same source tree recorded, so a workload that fits only
    one child into a run is still checked across runs.
    """

    def __init__(self, workload: str, config_hash: str, src_digest: str):
        key = f"{workload}-{config_hash[:16]}-{src_digest[:16]}"
        self.path = WORK / "digests" / f"{key}.json"
        self.expected = json.loads(self.path.read_text()) if self.path.is_file() else None

    def check(self, digests: dict) -> None:
        if self.expected is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(digests, sort_keys=True))
            self.expected = digests
        elif digests != self.expected:
            changed = sorted(k for k in digests if digests[k] != self.expected.get(k))
            raise CheckFailed(f"output bytes differ from an earlier run: {changed}")


# ---- environment stamp --------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_versions() -> dict:
    import numpy
    import scipy

    out = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            out[name] = "unknown"
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def env_stamp(seed: int, src_digest: str) -> dict:
    import numpy
    import scipy
    from carleman_lab.cli import ExperimentConfig

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_versions(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": src_digest,
        "seed": seed,
        "seed_default": DEFAULT_SEED,
        "config_hash": {
            name: ExperimentConfig(raw=make_config(name, seed)).config_hash for name in WORKLOADS
        },
    }


# ---- the run ------------------------------------------------------------------------


class Run:
    """One benchmark run of one workload: its children, tallies and figures."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.command = WORKLOADS[workload]["command"]
        self.seconds = seconds
        self.start = time.perf_counter()
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(make_config(workload, seed), indent=1))
        reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload]
        self.checker = Checker(self.command, self.config_path, reference)
        self.src_digest = source_digest()
        self.determinism = Determinism(workload, self.checker.config_hash, self.src_digest)
        self.attempted = 0
        self.failed = 0
        self.n = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _child(self, argv: list[str], label: str) -> tuple[int, float, float, Path]:
        self.n += 1
        self.attempted += 1
        stem = self.dir / f"{self.n:03d}-{label}"
        code, wall, rss = run_child(
            argv, self.dir, DEADLINE_S - self.elapsed(), stem
        )
        return code, wall, rss, stem

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload} {label}: {why}", file=sys.stderr)

    def setup_probe(self) -> float:
        """Interpreter start + ``import carleman_lab.cli`` + ``load_config``."""
        argv = [
            sys.executable, "-c",
            "import sys; from carleman_lab.cli import load_config; load_config(sys.argv[1])",
            str(self.config_path),
        ]
        code, wall, _, stem = self._child(argv, "setup")
        if code != 0:
            self._fail("setup", f"exit {code}: {stderr_tail(stem)}")
        return wall

    def workload_child(self, traced: bool) -> dict | None:
        """One CLI run of the workload, checked; None when it failed."""
        out_dir = self.dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = ["--config", str(self.config_path), "--command", self.command, "--quiet"]
        trace_path = self.dir / f"trace-{self.n + 1:03d}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "carleman_lab.cli", *cli_args]
        label = "traced" if traced else "cli"
        code, wall, rss, stem = self._child(argv, label)
        result = {"wall_s": wall, "peak_rss_mb": rss}
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {stderr_tail(stem)}")
            figures, digests = self.checker.check(out_dir)
            self.determinism.check(digests)
            if traced:
                result["trace"] = json.loads(trace_path.read_text())
        except CheckFailed as exc:
            self._fail(label, str(exc))
            return None
        result["err_rel"] = err_rel(figures)
        return result

    def loop(self, traced: bool) -> list[dict]:
        """Closed loop: start the next child only while it should fit in the run."""
        results = []
        while True:
            res = self.workload_child(traced)
            if res is not None:
                results.append(res)
            if not results or self.elapsed() + results[-1]["wall_s"] > self.seconds:
                return results


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results) if results else float("nan")


def end_to_end(run: Run) -> dict:
    setup = [run.setup_probe() for _ in range(SETUP_PROBES)]
    results = run.loop(traced=False)
    print(
        json.dumps({"children": [{k: r[k] for k in ("wall_s", "peak_rss_mb")} for r in results]}),
        flush=True,
    )
    return {
        "wall_s": (median_of(results, "wall_s"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (median_of(results, "peak_rss_mb"), "MB"),
        "err_rel": (median_of(results, "err_rel"), "ratio"),
    }


def per_layer(run: Run) -> dict:
    untraced = run.workload_child(traced=False)
    traced = run.loop(traced=True)
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [r["trace"].get(name, 0) for r in traced]
        unit = layer_unit(name)
        median = statistics.median if unit != "count" else statistics.median_low
        metrics[name] = (median(values) if values else float("nan"), unit)
    traced_wall = median_of(traced, "wall_s")
    untraced_wall = untraced["wall_s"] if untraced else float("nan")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def result_line(run: Run, metrics: dict) -> str:
    def number(v: float):
        return None if v != v else v  # NaN (no passing child) is not valid JSON

    return json.dumps(
        {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": number(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="instance seed (noise draws)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carleman_lab" / "cli.py").is_file():
        print(f"error: no carleman_lab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import carleman_lab

    if not Path(carleman_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: carleman_lab imported from {carleman_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    print(json.dumps({"env": env_stamp(args.seed, run.src_digest)}), flush=True)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(result_line(run, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

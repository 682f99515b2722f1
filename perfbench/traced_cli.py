"""Run the carleman-lab CLI with spans around the calls into each layer.

Usage (``PYTHONPATH=src``):

    python3 perfbench/traced_cli.py <trace.json> --config <config> --command <cmd>

Every hook replaces a public function at the name its caller looks it up by
(``carleman_lab.cli.plan_parameters``, ``carleman_lab.reconstruct.splu``, ...),
times each call, and hands back the original result unchanged, so the
artifacts stay byte-identical to an untraced run.  A span's self time is its
duration minus the spans it encloses; a layer's self time is the sum over the
spans of that layer.  After ``cli.main`` returns, the flat metrics are written
to ``<trace.json>`` and the CLI's exit code is passed on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "geometry", "weight", "problems", "verifier", "reconstruct")

# (module, attribute, layer, metric stem or None for layer time only)
HOOKS = [
    ("carleman_lab.cli", "load_config", "cli", None),
    ("carleman_lab.cli", "run", "cli", "cli"),
    ("carleman_lab.cli", "build_d", "weight", None),
    ("carleman_lab.cli", "plan_parameters", "weight", "weight.plan_parameters"),
    ("carleman_lab.cli", "plan_report", "weight", None),
    ("carleman_lab.reconstruct", "phi_field", "weight", "weight.phi_field"),
    ("carleman_lab.verifier", "phi_field", "weight", "weight.phi_field"),
    ("carleman_lab.geometry", "diff", "geometry", "geometry.stencil"),
    ("carleman_lab.cli", "discrete_norm", "geometry", None),
    ("carleman_lab.reconstruct", "discrete_norm", "geometry", None),
    ("carleman_lab.verifier", "discrete_norm", "geometry", None),
    ("carleman_lab.verifier", "trace", "geometry", None),
    ("carleman_lab.cli", "make_instance", "problems", "problems.make_instance"),
    ("carleman_lab.cli", "save_instance", "problems", None),
    ("carleman_lab.reconstruct", "add_noise", "problems", "problems.add_noise"),
    ("carleman_lab.reconstruct", "compute_data_functional", "problems", "problems.data_functional"),
    ("carleman_lab.problems", "compute_data_functional", "problems", "problems.data_functional"),
    ("carleman_lab.cli", "smooth_corpus", "verifier", None),
    ("carleman_lab.cli", "verify_carleman", "verifier", None),
    ("carleman_lab.verifier", "carleman_sides", "verifier", "verifier.carleman_sides"),
    ("carleman_lab.cli", "lemma1_residual", "verifier", None),
    ("carleman_lab.cli", "lateral_reconstruct", "reconstruct", None),
    ("carleman_lab.cli", "stability_sweep", "reconstruct", None),
    ("carleman_lab.cli", "write_sweep_csv", "reconstruct", None),
    ("carleman_lab.reconstruct", "splu", "reconstruct", "reconstruct.factor"),
    ("carleman_lab.reconstruct", "LateralOperator.__init__", "reconstruct", "reconstruct.operator_build"),
    ("carleman_lab.reconstruct", "LateralOperator.solve", "reconstruct", "reconstruct.solve"),
]


class Tracer:
    """Span stack plus flat per-metric totals."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [child seconds] per open span
        self.paused = 0.0  # seconds spent reading results, kept out of every span
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.extra: dict[str, float] = defaultdict(int)

    def wrap(self, fn, layer: str, stem: str | None):
        observe = OBSERVERS.get(stem)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            name = stem
            if stem == "cli":  # cli.run(command, ...): one metric per command
                name = "cli." + str(args[0] if args else kwargs["command"]).replace("-", "_")
            frame = [0.0]
            self.stack.append(frame)
            paused0 = self.paused
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0 - (self.paused - paused0)
                self.stack.pop()
                own = elapsed - frame[0]
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.layer_self[layer] += own
                if name is not None:
                    self.calls[name] += 1
                    self.incl[name] += elapsed
                    self.self_s[name] += own
            if observe is not None:
                t1 = time.perf_counter()
                observe(self, result)
                self.paused += time.perf_counter() - t1
            return result

        return hooked

    def metrics(self) -> dict:
        out = {f"{layer}.self_s": secs for layer, secs in self.layer_self.items()}
        for name in self.calls:
            out[f"{name}_s"] = self.incl[name]
        # the operator build is reported as its own work: assembly, scaling and
        # the normal product, without the factorization and phi_field inside it
        out["reconstruct.operator_build_s"] = self.self_s["reconstruct.operator_build"]
        out["reconstruct.factorizations"] = self.calls["reconstruct.factor"]
        out["reconstruct.solves"] = self.calls["reconstruct.solve"]
        out["weight.plan_builds"] = self.calls["weight.plan_parameters"]
        out["weight.phi_field_calls"] = self.calls["weight.phi_field"]
        out["problems.instance_builds"] = self.calls["problems.make_instance"]
        out["verifier.carleman_sides_calls"] = self.calls["verifier.carleman_sides"]
        out["geometry.stencil_calls"] = self.calls["geometry.stencil"]
        out.update(self.extra)
        return out


def _observe_factor(tracer: Tracer, lu) -> None:
    # L and U are built on access, so read one at a time and keep neither
    nnz = lu.L.nnz
    nnz += lu.U.nnz
    tracer.extra["reconstruct.factor_lu_nnz"] = max(tracer.extra["reconstruct.factor_lu_nnz"], nnz)


def _observe_solve(tracer: Tracer, solution) -> None:
    tracer.extra["reconstruct.cg_iterations"] += solution.iterations
    history = solution.residual_history
    rel = history[-1] / history[0] if history[0] > 0 else 0.0
    tracer.extra["reconstruct.final_rel_residual"] = max(
        tracer.extra["reconstruct.final_rel_residual"], rel
    )


OBSERVERS = {"reconstruct.factor": _observe_factor, "reconstruct.solve": _observe_solve}


def install(tracer: Tracer) -> list[str]:
    """Put every hook in place; return the hooks whose target does not exist."""
    missing = []
    for module_name, attr, layer, stem in HOOKS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, tracer.wrap(fn, layer, stem))
    return missing


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for name in install(tracer):
        print(f"traced_cli: no hook target {name}", file=sys.stderr)
    from carleman_lab import cli

    code = cli.main(cli_args)
    with open(trace_path, "w") as fh:
        json.dump(tracer.metrics(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

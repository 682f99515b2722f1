"""Batch driver: load one configuration, run the pipelines, emit report files.

The configuration is a single JSON document validated against the schema
shipped in ``schema/config.schema.json``.  Unknown keys are errors at every
depth, so a typo cannot silently change an experiment.  Each command reads
only the blocks it needs and writes its reports into the configured output
directory; every report embeds the hash of the effective configuration and
the tool version, so an artifact can always be traced back to the exact
inputs that produced it.

Commands: ``plan`` (weight-parameter report), ``verify`` (weighted
inequality table plus identity residual table), ``make-instance``
(manufactured problem archive), ``reconstruct`` (lateral solve of the
noiseless instance), ``sweep`` (noise ladder CSV), ``all`` (the pipeline in
that order).  Exit codes: 0 success, 1 configuration or validation failure
(a value that overflows the arithmetic it feeds included), 2 solver failure
(a factorization, or a solve whose relative normal residual is above 1e-8)
or running out of memory, 3 filesystem trouble.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import __version__
from .artifacts import archive_bytes, load_archive, load_table_csv, table_text, write_artifact
from .errors import SolverError, ValidationError, clipped, shown
from .geometry import CylinderGeometry, FieldKind, GammaSide, discrete_norm
from .problems import (
    ProblemInstance,
    Recipe,
    axial_profile,
    cross_time_profile,
    make_instance,
    save_instance,
)
from .reconstruct import (
    LateralOperator,
    Regularization,
    lateral_reconstruct,  # unused here; perfbench/traced_cli.py hooks this name
    stability_region,
    stability_sweep,
    sweep_errors,
    sweep_levels,
    write_sweep_csv,
)
from .verifier import lemma1_residual, smooth_corpus, verify_carleman
# build_d is unused here; perfbench/traced_cli.py hooks this name
from .weight import WeightPlan, build_d, plan_parameters, plan_report, region_family

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run",
    "main",
    "load_table_csv",
    "load_reconstruction",
    "CARLEMAN_CSV_HEADER",
    "LEMMA1_CSV_HEADER",
]

COMMANDS = ("plan", "verify", "make-instance", "reconstruct", "sweep", "all")

CARLEMAN_CSV_HEADER = "member,s,lhs,rhs,log_scale,ratio"
LEMMA1_CSV_HEADER = "member,coarse,fine,ratio"

_VERIFY_DEFAULTS: Mapping[str, object] = {
    "corpus_size": 20,
    "corpus_seed": 11,
    "s_values": (2.0, 5.0, 10.0, 20.0, 50.0),
    "c_cap": 10.0,
    "lemma1_members": 24,
    "lemma1_seed": 7,
}


# ---- configuration ------------------------------------------------------------------


# the keywords ``_errors`` checks, and those it skips as annotations; a schema
# keyword in neither set is refused when the schema is read
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "enum", "minimum",
    "exclusiveMinimum", "items", "minItems", "maxItems", "minLength", "$ref",
})
_ANNOTATIONS = frozenset({"$schema", "title", "description", "$defs"})
_TYPES = {
    "number": (int, float), "string": str, "object": dict, "array": list,
    "boolean": bool, "null": type(None),
}


def _schema() -> dict:
    text = resources.files("carleman_lab").joinpath("schema/config.schema.json").read_text()
    return _checked(json.loads(text))


def _checked(schema: dict) -> dict:
    """``schema`` itself, once every keyword in it, at any depth, is one ``_errors`` implements."""
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if not schema.get("$ref", "#/$defs/").startswith("#/$defs/"):
        unknown.add(f"$ref {schema['$ref']}")
    if unknown:
        raise ValueError(f"the config schema uses {sorted(unknown)}, which _errors does not implement")
    subschemas = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]
    subschemas += [schema[k] for k in ("items", "additionalProperties") if isinstance(schema.get(k), dict)]
    for sub in subschemas:
        _checked(sub)
    return schema


def _is(instance, kind: str) -> bool:
    """JSON Schema's type test (draft 2020-12): a bool is no number, and 4.0 is an integer."""
    if isinstance(instance, bool):
        return kind == "boolean"
    if kind == "integer":
        return isinstance(instance, int) or isinstance(instance, float) and instance.is_integer()
    return isinstance(instance, _TYPES[kind])


def _errors(schema: dict, instance, root: dict, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Each way ``instance`` breaks ``schema``, as (path, message), in jsonschema's order.

    The keywords run in the schema's own order, a keyword that does not apply
    to the instance's type passes, and the messages are jsonschema's, with a
    long value shortened by ``shown``, and an ``_Overflow`` is refused first.
    Only the schema is recursed into, so a deeply nested config costs no depth.
    """
    if isinstance(instance, _Overflow):
        yield path, f"number literal {clipped(instance)} overflows a float"
        return
    for key, want in schema.items():
        if key == "$ref":
            yield from _errors(root["$defs"][want.removeprefix("#/$defs/")], instance, root, path)
        elif key == "type":
            if not _is(instance, want):
                yield path, f"{shown(instance)} is not of type {want!r}"
        elif key == "enum":
            # tagged, so that True does not equal 1
            if (isinstance(instance, bool), instance) not in [(isinstance(e, bool), e) for e in want]:
                yield path, f"{shown(instance)} is not one of {want!r}"
        elif isinstance(instance, dict):
            if key == "properties":
                for name, sub in want.items():
                    if name in instance:
                        yield from _errors(sub, instance[name], root, (*path, name))
            elif key == "required":
                for name in want:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
            elif key == "additionalProperties":
                extra = [name for name in instance if name not in schema.get("properties", {})]
                if want is False and extra:
                    verb = "was" if len(extra) == 1 else "were"
                    names = shown(sorted(extra))[1:-1]
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
                elif isinstance(want, dict):
                    for name in extra:
                        yield from _errors(want, instance[name], root, (*path, name))
        elif isinstance(instance, list):
            if key == "items":
                for index, item in enumerate(instance):
                    yield from _errors(want, item, root, (*path, index))
            elif key == "minItems" and len(instance) < want:
                yield path, f"{shown(instance)} {'should be non-empty' if want == 1 else 'is too short'}"
            elif key == "maxItems" and len(instance) > want:
                yield path, f"{shown(instance)} {'is expected to be empty' if want == 0 else 'is too long'}"
        elif _is(instance, "number"):
            if key == "minimum" and instance < want:
                yield path, f"{shown(instance)} is less than the minimum of {want!r}"
            elif key == "exclusiveMinimum" and instance <= want:
                yield path, f"{shown(instance)} is less than or equal to the minimum of {want!r}"
        elif isinstance(instance, str) and key == "minLength" and len(instance) < want:
            yield path, f"{shown(instance)} {'should be non-empty' if want == 1 else 'is too short'}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration document plus builders for the domain objects.

    ``raw`` is the parsed JSON; builders raise ValidationError when the block
    a command needs is absent, which keeps per-command requirements out of
    the schema (any block may be omitted if no executed command reads it).
    """

    raw: dict

    @property
    def config_hash(self) -> str:
        """Hash of the effective configuration (canonical JSON, SHA-256)."""
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def _block(self, name: str) -> dict:
        if name not in self.raw:
            raise ValidationError(f"this command needs a {name!r} block in the config")
        return self.raw[name]

    def output_dir(self) -> str:
        return self.raw["output_dir"]

    def geometry(self) -> CylinderGeometry:
        gb = self._block("geometry")
        return CylinderGeometry(
            d_lo=float(gb["d_lo"]),
            d_hi=float(gb["d_hi"]),
            ell=float(gb["ell"]),
            delta=float(gb["delta"]),
            gamma_side=GammaSide(gb["gamma_side"]),
            nx_prime=int(gb["nx_prime"]),
            nx_n=int(gb["nx_n"]),
            nt=int(gb["nt"]),
        )

    def weight_plan(self, geometry: CylinderGeometry) -> WeightPlan:
        wb = self._block("weight")
        has_window = "D0" in wb
        has_region = "region" in wb
        if has_window == has_region:
            raise ValidationError(
                "weight block needs exactly one of 'D0' (explicit window) or 'region' (collar search)"
            )
        # only the keys the block sets, so the planner's defaults apply to the rest
        options = {key: float(wb[key]) for key in ("lam", "margin", "delta0") if key in wb}
        if has_window:
            lo, hi = (float(v) for v in wb["D0"])
            return plan_parameters(geometry, (lo, hi), **options)
        if "delta0" in wb:
            raise ValidationError(
                "delta0 applies to the explicit 'D0' form; the collar search sets its own time level"
            )
        return region_family(geometry, float(wb["region"]["delta1"]), **options)

    def _profile(self, factory, spec: Mapping) -> object:
        params = dict(spec.get("params", {}))
        try:
            return factory(spec["name"], **params)
        except TypeError as exc:
            raise ValidationError(
                f"profile {shown(spec['name'])} rejected parameters {shown(sorted(params))}: "
                f"{clipped(str(exc))}"
            ) from exc

    def recipe(self) -> Recipe:
        ib = self._block("instance")
        rb = ib["recipe"]
        return Recipe(
            a=self._profile(axial_profile, rb["a"]),
            b=self._profile(cross_time_profile, rb["b"]),
            f=self._profile(cross_time_profile, rb["f"]),
            p0=self._profile(cross_time_profile, ib["p0"]),
        )

    def noise_levels(self) -> list[float]:
        ib = self._block("instance")
        if "noise_levels" not in ib:
            raise ValidationError("this command needs 'noise_levels' in the instance block")
        return sweep_levels(ib["noise_levels"])

    def seed(self) -> int:
        return int(self._block("instance")["seed"])

    def regularization(self) -> Regularization:
        sb = self._block("solver")
        # only a key the block sets, so Regularization's default applies otherwise
        options = {"carleman_s": float(sb["carleman_s"])} if "carleman_s" in sb else {}
        return Regularization(tikhonov_weight=float(sb["mu"]), **options)

    def verify_settings(self) -> dict:
        merged = dict(_VERIFY_DEFAULTS)
        merged.update(self.raw.get("verify", {}))
        merged["s_values"] = [float(s) for s in merged["s_values"]]
        return merged


def _refuse_constant(literal: str):
    # json.loads takes the non-standard NaN and Infinity literals, and a NaN
    # passes every numeric bound of the schema
    raise ValidationError(f"config is not valid JSON: non-standard literal {literal} refused")


class _Overflow(str):
    """A number literal past the float range, which ``_errors`` refuses at its own path."""


def _finite(kind: type):
    # json.loads reads 1e999 as inf, and an integer past the float range
    # overflows where the config converts it to a float
    def parse(literal: str):
        return kind(literal) if math.isfinite(float(literal)) else _Overflow(literal)

    return parse


def load_config(path) -> ExperimentConfig:
    """Read, parse, and schema-validate a configuration file."""
    data = Path(path).read_bytes()
    try:
        raw = json.loads(
            data.decode("utf-8"),
            parse_constant=_refuse_constant,
            parse_float=_finite(float),
            parse_int=_finite(int),
        )
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("config is not valid JSON: nested too deeply") from exc
    schema = _schema()
    # sorted is stable, so of the errors at the first path the schema's first keyword wins
    errors = sorted(_errors(schema, raw, schema), key=lambda error: error[0])
    if errors:
        path, message = errors[0]
        where = "/".join(clipped(str(part)) for part in path) or "top level"
        raise ValidationError(f"config rejected at {where}: {message}")
    return ExperimentConfig(raw=raw)


# ---- report files -------------------------------------------------------------------


def load_reconstruction(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Inverse of the reconstruct command's archive writer."""
    return load_archive(
        path,
        "a reconstruction archive",
        lambda arrays, meta: (arrays["f_hat"], arrays["u_hat"], meta),
    )


# ---- commands -----------------------------------------------------------------------


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _stamp(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.config_hash, "version": __version__}


class _Pipeline:
    """The domain objects the commands of one run share, each built on first use.

    The lateral matrix never reads the data, so one factored operator serves
    both the reconstruct and the sweep command.  Nothing is built before a
    command asks for it: ``plan`` and ``verify`` run on configs that carry no
    instance or solver block.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    @cached_property
    def geometry(self) -> CylinderGeometry:
        return self.cfg.geometry()

    @cached_property
    def plan(self) -> WeightPlan:
        return self.cfg.weight_plan(self.geometry)

    @cached_property
    def instance(self) -> ProblemInstance:
        inst = make_instance(self.geometry, self.cfg.recipe())
        return replace(inst, provenance={**inst.provenance, **_stamp(self.cfg)})

    @cached_property
    def operator(self) -> LateralOperator:
        inst = self.instance
        return LateralOperator(
            self.geometry, self.plan, inst.p0, inst.R, self.cfg.regularization()
        )


def _cmd_plan(pipe: _Pipeline, out_dir: Path, quiet: bool) -> list[Path]:
    plan = pipe.plan
    path = out_dir / "plan.txt"
    write_artifact(path, plan_report(plan, _stamp(pipe.cfg)))
    _say(
        quiet,
        f"plan: beta={plan.beta!r} alpha={plan.alpha!r} "
        f"sigma0/sigma1={plan.sigma0 / plan.sigma1!r}",
    )
    return [path]


def _cmd_verify(pipe: _Pipeline, out_dir: Path, quiet: bool) -> list[Path]:
    cfg = pipe.cfg
    plan = pipe.plan
    vs = cfg.verify_settings()

    corpus = smooth_corpus(int(vs["corpus_size"]), int(vs["corpus_seed"]))
    report = verify_carleman(plan, corpus, vs["s_values"], c_cap=float(vs["c_cap"]))
    rows = [
        (i, sides.s, sides.lhs, sides.rhs, sides.log_scale, sides.ratio)
        for i, sides in report.rows
    ]
    smin = "none" if report.s_min_emp is None else repr(report.s_min_emp)
    footer = {
        "c_emp": report.c_emp,
        "s_min_emp": smin,
        "c_cap": report.c_cap,
        "corpus_size": report.corpus_size,
        "geometry": report.geometry_fingerprint,
        **_stamp(cfg),
    }
    carleman_path = out_dir / "carleman_rows.csv"
    write_artifact(carleman_path, table_text(CARLEMAN_CSV_HEADER, rows, footer))

    ident_corpus = smooth_corpus(
        int(vs["lemma1_members"]), int(vs["lemma1_seed"]), kind=FieldKind.SPACE_ONLY
    )
    coarse = pipe.geometry.extend()
    fine = coarse.refine()
    ident_rows = []
    in_window = 0
    for i, member in enumerate(ident_corpus):
        rc = lemma1_residual(member.sample(coarse)).normalized
        rf = lemma1_residual(member.sample(fine)).normalized
        ratio = rc / rf if rf > 0 else float("inf")
        if 3.5 <= ratio <= 4.5:
            in_window += 1
        ident_rows.append((i, rc, rf, ratio))
    ident_footer = {
        "in_window": in_window,
        "members": len(ident_rows),
        "geometry": coarse.fingerprint(),
        "geometry_fine": fine.fingerprint(),
        **_stamp(cfg),
    }
    lemma1_path = out_dir / "lemma1_rows.csv"
    write_artifact(lemma1_path, table_text(LEMMA1_CSV_HEADER, ident_rows, ident_footer))

    _say(
        quiet,
        f"verify: c_emp={report.c_emp!r} s_min_emp={smin} "
        f"identity two-grid in window {in_window}/{len(ident_rows)}",
    )
    return [carleman_path, lemma1_path]


def _cmd_make_instance(pipe: _Pipeline, out_dir: Path, quiet: bool) -> list[Path]:
    inst = pipe.instance
    path = out_dir / "instance.npz"
    save_instance(inst, path)
    _say(
        quiet,
        f"make-instance: grid {inst.geometry.fingerprint()} "
        f"data size {inst.d_of_u!r}",
    )
    return [path]


def _cmd_reconstruct(pipe: _Pipeline, out_dir: Path, quiet: bool) -> list[Path]:
    solution = pipe.operator.solve(pipe.instance.data)
    inst, plan = pipe.instance, pipe.plan
    (err_region,), (err_global,) = sweep_errors(solution.f_hat.values[None], inst.f, plan)
    scale_region = discrete_norm(inst.f, region=stability_region(plan))
    history = solution.residual_history
    meta = {
        "err_region": err_region,
        "err_global": err_global,
        "err_region_rel": err_region / scale_region,
        "rel_residual": history[-1] / history[0] if history[0] else 0.0,
        "geometry": pipe.geometry.fingerprint(),
        **_stamp(pipe.cfg),
    }
    path = out_dir / "reconstruction.npz"
    arrays = {"f_hat": solution.f_hat.values, "u_hat": solution.u_hat.values}
    write_artifact(path, archive_bytes(arrays, meta))
    _say(
        quiet,
        f"reconstruct: err_region={err_region!r} err_global={err_global!r} "
        f"rel_residual={meta['rel_residual']!r}",
    )
    return [path]


def _cmd_sweep(pipe: _Pipeline, out_dir: Path, quiet: bool) -> list[Path]:
    cfg = pipe.cfg
    seed = cfg.seed()
    # the levels are checked before the operator is factored
    levels = cfg.noise_levels()
    report = stability_sweep(pipe.instance, levels, pipe.operator, seed=seed)
    path = out_dir / "sweep.csv"
    write_sweep_csv(report, path, footer={"seed": seed, **_stamp(cfg)})
    _say(quiet, f"sweep: {len(report.rows)} rows, theta_emp={report.theta_emp!r}")
    return [path]


_RUNNERS = {
    "plan": _cmd_plan,
    "verify": _cmd_verify,
    "make-instance": _cmd_make_instance,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
}


def run(command: str, cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> list[Path]:
    """Execute one command (or the whole pipeline) and return written paths."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; choose from {COMMANDS}")
    names = list(_RUNNERS) if command == "all" else [command]
    pipe = _Pipeline(cfg)
    written: list[Path] = []
    for name in names:
        written.extend(_RUNNERS[name](pipe, out_dir, quiet))
    return written


# ---- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleman-lab",
        description="Weight planning, inequality verification, and lateral reconstruction runs.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--command", required=True, choices=COMMANDS, help="pipeline stage to run")
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the latter
        # into the validation-failure code so 2 keeps meaning solver trouble
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.output_dir())
        out_dir.mkdir(parents=True, exist_ok=True)
        written = run(args.command, cfg, out_dir, quiet=args.quiet)
        for path in written:
            _say(args.quiet, f"wrote {path}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # a value the schema accepts, too large for the arithmetic it feeds (ell = 1e300)
        print(f"error: a config value is out of range: {exc.args[-1] if exc.args else exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # outside the factor, whose own MemoryError arrives as a SolverError
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

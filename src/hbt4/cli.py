"""Command-line interface: single-point reports, sweeps, extremum
searches, figure-dataset presets, Monte-Carlo validation runs and
config round-tripping.

Run configurations resolve from defaults, then an optional JSON config
file, then explicit flags (flags win).  ``dump-config`` prints the fully
resolved configuration of any run; feeding that file back via --config
reproduces the run byte for byte.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 undefined coherence
(UndefinedCoherenceError, NoSignalError included), 5 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .clicks import coherence_from_clicks, detected_clicks
from .coherence import factorial_moments, fourth_order_report, ideal_coherence
from .detection import DetectionParams
from .errors import (
    Hbt4Error,
    InternalInvariantError,
    InvalidParameterError,
    TruncationError,
    UndefinedCoherenceError,
)
from .montecarlo import McConfig, run_mc
from .presets import PRESETS, build_preset
from .states import StateParams, _integer, fock_distribution, squeezed_distribution
from .sweep import SweepAxis, SweepSpec, find_extremum, squeezing_db, sweep
from .tableio import format_number, to_csv, to_json

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "HBT4_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_SIGNAL = 4
EXIT_INTERNAL = 5


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run configuration; serializes to/from JSON."""

    command: str
    schema_version: int = SCHEMA_VERSION
    r: float = 0.0
    theta: float = 0.0
    alpha: float = 0.0
    eta: float = 1.0
    gamma: float = 0.0
    tol: float = 1e-12
    pipeline: str = "ideal"
    orders: list[int] = dataclasses.field(default_factory=lambda: [2, 3, 4])
    axes: list[dict] = dataclasses.field(default_factory=list)
    order: int = 2
    param: str = "alpha"
    bounds: list[float] = dataclasses.field(default_factory=lambda: [1e-3, 1.0])
    mode: str = "min"
    preset: str = ""
    overrides: dict = dataclasses.field(default_factory=dict)
    outdir: str = ""
    trials: int = 100_000
    seed: int = 0
    condition_min_photons: int = 0
    fock: int | None = None
    out: str = ""
    format: str = "csv"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidParameterError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameterError("config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidParameterError("config", "config file must hold a JSON object")
    unknown = set(raw) - RunConfig.field_names()
    if unknown:
        raise InvalidParameterError("config", f"unknown keys: {sorted(unknown)}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidParameterError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {version}"
        )
    return raw


def _parse_axis(text: str) -> dict:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise InvalidParameterError(
            "axis", f"expected name:min:max:points[:scale], got {text!r}"
        )
    name, lo, hi, points = parts[:4]
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        return {
            "name": name,
            "min": float(lo),
            "max": float(hi),
            "points": int(points),
            "scale": scale,
        }
    except ValueError as exc:
        raise InvalidParameterError("axis", f"cannot parse {text!r}: {exc}") from exc


def _parse_set(items: list[str]) -> dict:
    overrides = {}
    for item in items:
        if "=" not in item:
            raise InvalidParameterError("set", f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise InvalidParameterError("orders", f"cannot parse {text!r}") from exc
    return orders


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags override its values")
    p.add_argument("--r", type=float, default=None, help="squeezing parameter (>= 0)")
    p.add_argument("--theta", type=float, default=None, help="squeezing phase (radians)")
    p.add_argument("--alpha", type=float, default=None, help="real displacement amplitude")
    p.add_argument("--eta", type=float, default=None, help="overall detection efficiency in [0, 1]")
    p.add_argument("--gamma", type=float, default=None, help="mean background-noise photon number")
    p.add_argument("--tol", type=float, default=None, help="truncation tail tolerance")
    p.add_argument("--pipeline", choices=("ideal", "click"), default=None)
    p.add_argument("--orders", default=None, help="comma-separated subset of 2,3,4")
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed")
    p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trial count")


_COMMAND_HELP = {
    "point": "Evaluate one parameter point through both pipelines.",
    "sweep": "Scan one or two parameters onto a table.",
    "extremum": "Locate a minimum or maximum of one coherence order.",
    "figure": "Write the dataset files of a named preset.",
    "mc": "Run the stochastic validator against the deterministic chain.",
}


def _add_command_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Flags of one run command.  ``dump-config <command>`` declares the
    same flags, so a dumped config resolves exactly as the run would."""
    _add_common_flags(p)
    if command == "sweep":
        p.add_argument("--axis", action="append", default=None,
                       metavar="NAME:MIN:MAX:POINTS[:SCALE]",
                       help="scanned axis; repeat for a 2-d grid")
    elif command == "extremum":
        p.add_argument("--order", type=int, default=None, choices=(2, 3, 4))
        p.add_argument("--param", default=None, help="scanned parameter name")
        p.add_argument("--bounds", default=None, metavar="LO:HI")
        p.add_argument("--mode", choices=("min", "max"), default=None)
    elif command == "figure":
        p.add_argument("--preset", default=None, choices=sorted(PRESETS))
        p.add_argument("--set", action="append", default=None, dest="set_items",
                       metavar="KEY=VALUE",
                       help="override a preset parameter (value parsed as JSON when possible)")
        p.add_argument("--outdir", default=None,
                       help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    elif command == "mc":
        p.add_argument("--condition-min", type=int, default=None, dest="condition_min_photons",
                       help="stratify on total photon number >= this value")
        p.add_argument("--fock", type=int, default=None,
                       help="replace the source state by a deterministic n-photon source")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbt4",
        description="High-order coherence of displaced squeezed light "
        "through a four-detector splitter tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMAND_HELP.items():
        _add_command_flags(sub.add_parser(name, help=help_text), name)

    p_dump = sub.add_parser("dump-config", help="Print the resolved configuration of a run.")
    dump_sub = p_dump.add_subparsers(dest="dump_command", required=True)
    for name in _COMMAND_HELP:
        _add_command_flags(dump_sub.add_parser(name), name)
    return parser


# Config-file fields that are used before any other check sees them.
_FIELD_TYPES = {
    "out": (str, "a string"),
    "outdir": (str, "a string"),
    "overrides": (dict, "an object"),
}


def resolve_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < explicit flags."""
    config = RunConfig(command=command)
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    file_values.pop("schema_version", None)
    file_values.pop("command", None)
    for key, value in file_values.items():
        if key in _FIELD_TYPES and not isinstance(value, _FIELD_TYPES[key][0]):
            raise InvalidParameterError(key, f"must be {_FIELD_TYPES[key][1]}, got {value!r}")
        setattr(config, key, value)

    simple = (
        "r", "theta", "alpha", "eta", "gamma", "tol", "pipeline", "out",
        "format", "seed", "trials", "order", "param", "mode", "preset",
        "outdir", "condition_min_photons", "fock",
    )
    for key in simple:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "orders", None) is not None:
        config.orders = _parse_orders(args.orders)
    if getattr(args, "axis", None):
        config.axes = [_parse_axis(a) for a in args.axis]
    if getattr(args, "bounds", None) is not None:
        try:
            lo, hi = (float(part) for part in args.bounds.split(":"))
        except ValueError:
            raise InvalidParameterError("bounds", f"expected LO:HI, got {args.bounds!r}") from None
        config.bounds = [lo, hi]
    if getattr(args, "set_items", None):
        config.overrides.update(_parse_set(args.set_items))
    return config


def _state(config: RunConfig) -> StateParams:
    return StateParams(r=config.r, theta=config.theta, alpha=config.alpha)


def _detection(config: RunConfig) -> DetectionParams:
    return DetectionParams(eta=config.eta, gamma=config.gamma)


def _emit(text: str, out: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_table(table, config: RunConfig) -> None:
    _emit(to_csv(table) if config.format == "csv" else to_json(table), config.out)


def cmd_point(config: RunConfig) -> int:
    state = _state(config)
    detection = _detection(config)
    dist = squeezed_distribution(state, config.tol)
    clicks = detected_clicks(dist, detection)
    click_triple = coherence_from_clicks(clicks)
    ideal_triple = ideal_coherence(state)
    moments = factorial_moments(dist)
    g4_trusted, g4_variant, g4_rel = fourth_order_report(state)
    report = {
        "state": {"r": config.r, "theta": config.theta, "alpha": config.alpha},
        "detection": {"eta": config.eta, "gamma": config.gamma},
        "squeezing_db": squeezing_db(config.r),
        "ideal": {"g2": ideal_triple.g2, "g3": ideal_triple.g3, "g4": ideal_triple.g4,
                  "mean_photons": ideal_triple.mean_clicks},
        "click": {"g2": click_triple.g2, "g3": click_triple.g3, "g4": click_triple.g4,
                  "mean_clicks": click_triple.mean_clicks},
        "click_probabilities": [float(x) for x in clicks.probs],
        "distribution_moments": {"g2": moments.g2, "g3": moments.g3, "g4": moments.g4},
        "fourth_order_variant": {"trusted": g4_trusted, "variant": g4_variant,
                                 "relative_difference": g4_rel},
        "diagnostics": {
            "support": len(dist),
            "tail_mass": dist.tail_mass,
            "click_defect": clicks.defect,
        },
    }
    if config.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", config.out)
        return EXIT_OK
    lines = [
        f"state: r={format_number(config.r)} theta={format_number(config.theta)} "
        f"alpha={format_number(config.alpha)}  ({format_number(report['squeezing_db'])} dB)",
        f"detection: eta={format_number(config.eta)} gamma={format_number(config.gamma)}",
        f"ideal:  g2={format_number(ideal_triple.g2)} g3={format_number(ideal_triple.g3)} "
        f"g4={format_number(ideal_triple.g4)} mean={format_number(ideal_triple.mean_clicks)}",
        f"click:  g2={format_number(click_triple.g2)} g3={format_number(click_triple.g3)} "
        f"g4={format_number(click_triple.g4)} mean={format_number(click_triple.mean_clicks)}",
        "click probabilities: "
        + " ".join(format_number(float(x)) for x in clicks.probs),
        f"truncation: support={len(dist)} tail={format_number(dist.tail_mass)} "
        f"defect={format_number(clicks.defect)}",
    ]
    if g4_rel > 1e-6:
        lines.append(
            f"note: alternative fourth-order bracket gives {format_number(g4_variant)} "
            f"vs trusted {format_number(g4_trusted)} "
            f"(relative difference {format_number(g4_rel)}); the trusted value is used."
        )
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def cmd_sweep(config: RunConfig) -> int:
    if not config.axes:
        raise InvalidParameterError("axes", "sweep needs at least one --axis")
    try:
        axes = tuple(
            SweepAxis(a["name"], a["min"], a["max"], a["points"], a.get("scale", "linear"))
            for a in config.axes
        )
    except (KeyError, TypeError):
        raise InvalidParameterError(
            "axes", f"each axis needs name, min, max and points, got {config.axes!r}"
        ) from None
    spec = SweepSpec(
        axes=axes,
        state=_state(config),
        detection=_detection(config),
        pipeline=config.pipeline,
        orders=config.orders,
        tol=config.tol,
    )
    _emit_table(sweep(spec), config)
    return EXIT_OK


def cmd_extremum(config: RunConfig) -> int:
    result = find_extremum(
        config.order,
        config.param,
        config.bounds,
        _state(config),
        _detection(config),
        mode=config.mode,
        pipeline=config.pipeline,
        tol=config.tol,
    )
    payload = dataclasses.asdict(result)
    if config.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.out)
    else:
        flag = "  (boundary extremum)" if result.boundary else ""
        _emit(
            f"{result.mode} g{result.order} over {result.parameter} "
            f"[{format_number(config.bounds[0])}, {format_number(config.bounds[1])}] "
            f"({result.pipeline}): value={format_number(result.value)} at "
            f"{result.parameter}={format_number(result.location)}{flag}\n",
            config.out,
        )
    return EXIT_OK


def cmd_figure(config: RunConfig) -> int:
    if not config.preset:
        raise InvalidParameterError("preset", "figure needs --preset")
    outdir = Path(config.outdir or os.environ.get(OUTPUT_DIR_ENV, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    params, tables, digest = build_preset(config.preset, config.overrides)
    manifest = {
        "preset": config.preset,
        "schema_version": SCHEMA_VERSION,
        "parameters": params,
        "hash": digest,
        "files": {},
    }
    for part, table in sorted(tables.items()):
        suffix = "csv" if config.format == "csv" else "json"
        name = f"{config.preset}_{part}_{digest}.{suffix}"
        path = outdir / name
        path.write_text(to_csv(table) if config.format == "csv" else to_json(table))
        manifest["files"][part] = name
    manifest_path = outdir / f"{config.preset}_{digest}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(
        "\n".join(str(outdir / n) for n in list(manifest["files"].values()) + [manifest_path.name])
        + "\n"
    )
    return EXIT_OK


def cmd_mc(config: RunConfig) -> int:
    source = None
    if config.fock is not None:
        source = fock_distribution(_integer("fock", config.fock, 0))
    state = None if source is not None else _state(config)
    mc_config = McConfig(
        trials=config.trials,
        seed=config.seed,
        state=state,
        detection=_detection(config),
        source=source,
        condition_min_photons=config.condition_min_photons,
        tol=config.tol,
    )
    result = run_mc(mc_config)
    base = source if source is not None else squeezed_distribution(state, config.tol)
    expected_clicks = detected_clicks(base, mc_config.detection)
    expected = coherence_from_clicks(expected_clicks)
    click_pulls = [
        _pull(est, se, float(det))
        for est, se, det in zip(result.gamma_hat, result.gamma_se, expected_clicks.probs)
    ]
    coherences = {
        name: {"estimate": est, "std_error": se, "deterministic": det,
               "pull": _pull(est, se, det)}
        for name, est, se, det in (
            ("g2", result.estimated.g2, result.estimated_se[0], expected.g2),
            ("g3", result.estimated.g3, result.estimated_se[1], expected.g3),
            ("g4", result.estimated.g4, result.estimated_se[2], expected.g4),
        )
    }
    if config.format == "json":
        report = {
            "trials": config.trials,
            "seed": config.seed,
            "condition_min_photons": config.condition_min_photons,
            "click_histogram": [int(x) for x in result.click_histogram],
            "gamma_hat": [_json_float(x) for x in result.gamma_hat],
            "gamma_se": [_json_float(x) for x in result.gamma_se],
            "deterministic_click_probabilities": [_json_float(x) for x in expected_clicks.probs],
            "pulls": [_json_float(x) for x in click_pulls],
            "coherence": {
                name: {k: _json_float(v) for k, v in c.items()} for name, c in coherences.items()
            },
        }
        _emit(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", config.out)
        return EXIT_OK
    # Every column but the last keeps at least one space after its value.
    lines = [
        f"trials={config.trials} seed={config.seed} "
        f"condition_min_photons={config.condition_min_photons}",
        "clicks  histogram  estimate      std-error     deterministic  pull",
    ]
    for i, pull in enumerate(click_pulls):
        lines.append(
            f"G_{i}     {int(result.click_histogram[i]):<9d} "
            f"{format_number(result.gamma_hat[i]):<13s} "
            f"{format_number(result.gamma_se[i]):<13s} "
            f"{format_number(float(expected_clicks.probs[i])):<14s} {format_number(pull)}"
        )
    for name, c in coherences.items():
        lines.append(
            f"{name}: estimate={format_number(c['estimate'])} +- {format_number(c['std_error'])} "
            f"deterministic={format_number(c['deterministic'])} pull={format_number(c['pull'])}"
        )
    worst = max(click_pulls)
    if worst > 4.0:
        lines.append(f"WARNING: click probabilities deviate beyond 4 standard errors (worst pull {worst:.2f})")
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def _json_float(x: float) -> float | None:
    """Strict JSON has no NaN or Infinity; such a value reports as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _pull(estimate: float, se: float, deterministic: float) -> float:
    """|estimate - deterministic| in standard errors."""
    if se > 0:
        return float(abs(estimate - deterministic) / se)
    return 0.0 if estimate == deterministic else math.inf


_COMMANDS = {
    "point": cmd_point,
    "sweep": cmd_sweep,
    "extremum": cmd_extremum,
    "figure": cmd_figure,
    "mc": cmd_mc,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump-config":
            config = resolve_config(args.dump_command, args)
            sys.stdout.write(config.to_json())
            return EXIT_OK
        config = resolve_config(args.command, args)
        return _COMMANDS[args.command](config)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UndefinedCoherenceError as exc:
        print(f"no signal: {exc}", file=sys.stderr)
        return EXIT_NO_SIGNAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InternalInvariantError, TruncationError, Hbt4Error) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

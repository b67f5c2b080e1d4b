"""Command-line runner: config loading, dispatch and result emission.

Experiments are described by a single JSON config with strict unknown-key
rejection; every run writes its data files plus a manifest (full config
echo, seed, package versions, wall time) into one output directory.
Errors are serialized as machine-readable JSON on stdout with a nonzero
exit status.  Validation builds every section's model, so a config that
`validate` accepts fails in `simulate` only on something the run computes.

Subcommands:
  simulate <config> [--output-dir D] [--seed N]
  validate <config>
  schema <experiment>

The heterodyne sweep evaluates its points on a thread pool, one thread
per usable CPU up to the number of swept amplitudes.  Each point draws
from its own child seed, so the output bytes do not depend on the pool;
peak memory grows with it, since each thread holds its own detected
record of about one record length (README.md gives measured times and
memory).

Output directory precedence: --output-dir flag, then the
RYDSAG_OUTPUT_DIR environment variable, then the config's output_dir,
then the working directory.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass

import numpy as np
import scipy

from . import __version__
from .detector_chain import MAX_GRID_POINTS, DetectorParams
from .eit_medium import (
    LadderSystemParams,
    at_splitting,
    detuning_grid,
    kk_residual,
    phase_and_absorption,
    susceptibility_spectrum,
)
from .emit import sanitize, write_csv, write_json
from .errors import (
    ConfigError,
    GridPolicyError,
    SimulationError,
    UnresolvedSplittingError,
)
from .heterodyne import (
    SEGMENT_LENGTH,
    HeterodyneConfig,
    min_detectable_field,
    scheme_comparison,
    sensitivity_sweep,
)
from .heterodyne import calibration_curve as _calibration_curve
from .noise_limits import LimitInputs, limits_report
from .stabilization import (
    MIN_SEGMENT_SAMPLES,
    DriftModel,
    PidParams,
    burn_in_samples,
    equivalent_phase_deviation,
    plant_gain,
    simulate_closed_loop_detailed,
    suppression_report,
)
from .weak_pointer import (
    BeamPointer,
    PointerSetup,
    PostSelection,
    PreSelection,
    WeakCoupling,
    closed_readout,
    final_wavefunction,
)

OUTPUT_DIR_ENV = "RYDSAG_OUTPUT_DIR"

_V_PER_M_PER_V_PER_CM = 100.0

_GRID_POINT_FIELDS = (
    ("grid", "points"),
    ("pointer", "points"),
    ("calibrate", "points"),
)


def _plain(value):
    """A model's fields, or a model class's defaults, as config data:
    nested dataclasses become objects and tuples become lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _schema_for(experiment):
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of "
            + ", ".join(EXPERIMENTS)
        )
    schema = {"experiment": experiment, "seed": 0, "output_dir": ""}
    for name, section in _EXPERIMENTS[experiment][1].items():
        schema[name] = section if isinstance(section, dict) else _plain(section)
    if "heterodyne" in schema:
        # the runner's option: compare both readouts, or run the configured one
        schema["heterodyne"]["compare"] = True
    return schema


def _type_label(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


def _merge(schema, supplied, path=""):
    """Defaults overlaid with user values; unknown keys rejected by path."""
    if not isinstance(supplied, dict):
        raise ConfigError(
            f"config section {path or '<root>'} must be an object, "
            f"got {_type_label(supplied)}"
        )
    merged = copy.deepcopy(schema)
    for key, value in supplied.items():
        full = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {full}")
        merged[key] = _checked(schema[key], value, full)
    return merged


def _checked(default, value, path, nested=False):
    """Return a user value after checking it against its default's type.

    List elements follow the default's first element; a list inside a list
    (a frequency/amplitude pair) must also keep the default's length.
    """
    if isinstance(default, dict):
        return _merge(default, value, path)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        if nested and len(value) != len(default):
            raise ConfigError(f"{path} must have {len(default)} entries")
        return [
            _checked(default[0], item, f"{path}[{index}]", nested=True)
            for index, item in enumerate(value)
        ]
    if isinstance(default, bool):
        valid, kind = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        valid, kind = type(value) is int, "an integer"
    elif isinstance(default, float):
        valid, kind = type(value) in (int, float), "a number"
        # an integer past the largest float overflows in the first float
        # operation on it
        if type(value) is int and abs(value) > sys.float_info.max:
            raise ConfigError(
                f"{path} must lie within the float range, got an integer of "
                f"{len(str(abs(value)))} digits"
            )
    elif isinstance(default, str):
        valid, kind = isinstance(value, str), "a string"
    else:
        raise ConfigError(f"{path} has an unsupported schema type")
    if not valid:
        raise ConfigError(f"{path} must be {kind}")
    return value


def load_config(path):
    """Parse and validate a config file and build its sections' models;
    returns the fully populated echo and the models by section name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer
        # of more digits than int() reads
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str):
        raise ConfigError("config needs an 'experiment' string key")
    config = _merge(_schema_for(experiment), raw)
    _check_seed(config["seed"])
    for section, key in _GRID_POINT_FIELDS:
        if section in config and config[section][key] > MAX_GRID_POINTS:
            raise ConfigError(f"{section}.{key} must be at most {MAX_GRID_POINTS}")
    if experiment == "stabilize":
        _check_loop(config)
    models = {}
    for name, section in _EXPERIMENTS[experiment][1].items():
        if name == "pointer":
            models[name] = _pointer_models(config[name])
        elif name == "loop":
            models[name] = _loop_beam(config[name])
        elif not isinstance(section, dict):
            models[name] = _model(section, config[name], name)
    if experiment == "heterodyne":
        _check_beat_record(models["heterodyne"])
    if experiment == "stabilize":
        _check_burn_in(models["drift"], models["pid"], config["loop"]["duration"])
    for module in _run_imports(config):
        importlib.import_module(module)
    return config, models


def _check_seed(seed):
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def _check_loop(config):
    """Reject loop records longer than MAX_GRID_POINTS or too short to
    compare the open and closed halves, and actuator limits that exclude
    u = 0: the open-loop actuator rests there, so every open-loop sample
    would count as saturated and the loop be reported unstable whatever
    its gains."""
    samples = config["loop"]["duration"] * config["pid"]["sample_rate"]
    if not (math.isfinite(samples) and 1 <= round(samples) <= MAX_GRID_POINTS):
        raise ConfigError(
            "loop.duration x pid.sample_rate must be a finite count of 1 to "
            f"{MAX_GRID_POINTS} samples, got {samples}"
        )
    split = config["loop"]["loop_on_at"] * config["pid"]["sample_rate"]
    least = MIN_SEGMENT_SAMPLES
    if not (math.isfinite(split) and least <= round(split) <= round(samples) - least):
        raise ConfigError(
            f"loop.loop_on_at x pid.sample_rate must leave at least {least} of "
            f"the {round(samples)} samples on each side, got {split}"
        )
    limits = config["pid"]["output_limits"]
    if not (len(limits) == 2 and all(map(math.isfinite, limits))
            and limits[0] < 0.0 < limits[1]):
        raise ConfigError(
            f"pid.output_limits must be a finite pair [lo, hi] with lo < 0 < hi, got {limits}"
        )


def _check_beat_record(hetero):
    """Reject beat records shorter than one Welch segment or longer than
    MAX_GRID_POINTS."""
    samples = hetero.fs * hetero.integration_time
    if not (math.isfinite(samples)
            and SEGMENT_LENGTH <= round(samples) <= MAX_GRID_POINTS):
        raise ConfigError(
            f"heterodyne.integration_time x the {hetero.fs} Hz sample rate must "
            f"give {SEGMENT_LENGTH} to {MAX_GRID_POINTS} samples, got {samples}"
        )


def _check_burn_in(drift, pid, duration):
    """Reject a 1/f burn-in longer than 4 x MAX_GRID_POINTS samples.  A
    corner at or above the record's lowest octave needs at most about
    3.2 records of burn-in, so only a corner below it is refused."""
    burn = burn_in_samples(drift.corner_hz, pid.sample_rate, duration)
    if burn > 4 * MAX_GRID_POINTS:
        raise ConfigError(
            f"drift.corner_hz of {drift.corner_hz} Hz needs a 1/f burn-in of "
            f"{burn:.3g} samples at pid.sample_rate; at most "
            f"{4 * MAX_GRID_POINTS} are allowed"
        )


def _built(paths, build, *args, **kwargs):
    """build(*args, **kwargs); a refusal keeps its category and is prefixed
    with the config paths it was built from."""
    try:
        return build(*args, **kwargs)
    except SimulationError as exc:
        raise type(exc)(f"{paths}: {exc}") from exc


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _model(cls, block, path):
    """The dataclass cls built from its checked config section: lists
    become tuples, and a nested object becomes its field's dataclass.
    Keys that are not fields, such as heterodyne.compare, are skipped."""
    kwargs = {}
    for field in fields(cls):
        value = block[field.name]
        if is_dataclass(field.default):
            value = _model(type(field.default), value, f"{path}.{field.name}")
        kwargs[field.name] = _tuples(value)
    return _built(path, cls, **kwargs)


def _pointer_models(block):
    """The pointer section's model objects, in key order: PreSelection and
    PostSelection where the section has an angle, then WeakCoupling and
    the centered BeamPointer. A refusal keeps its category and names the
    keys the refusing object was built from."""
    builders = [
        (("k",), WeakCoupling),
        (("w", "span_w", "points"), BeamPointer.centered),
    ]
    if "angle" in block:
        builders[:0] = [
            (("delta_phi", "delta_beta"), PreSelection),
            (("angle",), PostSelection),
        ]
    return [
        _built(", ".join(f"pointer.{key}" for key in keys), build,
               *(block[key] for key in keys))
        for keys, build in builders
    ]


def _loop_beam(block):
    """The loop's centered BeamPointer, with phi_f checked against it."""
    beam = _built("loop.beam_w", BeamPointer.centered, block["beam_w"])
    _built("loop.phi_f", plant_gain, block["phi_f"], beam)
    return beam


# ---------------------------------------------------------------------------
# experiment runners (each takes the echo and the models of load_config and
# returns the list of files written)


def _run_spectrum(config, models, out_dir, seed):
    medium = models["medium"]
    spectrum = susceptibility_spectrum(medium, detuning_grid(
        medium, config["grid"]["span_linewidths"], config["grid"]["points"]
    ))
    # the checks run before the columns exist, so that the columns reuse
    # the heap their transforms free
    notes = []
    try:
        residual = kk_residual(spectrum)
    except GridPolicyError as exc:
        residual = math.nan
        notes.append(str(exc))
    try:
        f_at = at_splitting(spectrum)
    except UnresolvedSplittingError as exc:
        f_at = math.nan
        notes.append(str(exc))
    delta_phi, delta_beta = phase_and_absorption(spectrum.chi, medium)
    columns = (
        spectrum.delta_p / (2.0 * math.pi),
        spectrum.chi.real,
        spectrum.chi.imag,
        delta_phi,
        delta_beta,
    )
    csv_path = os.path.join(out_dir, "spectrum.csv")
    write_csv(
        csv_path,
        ("delta_p_hz", "re_chi", "im_chi", "delta_phi_rad", "delta_beta"),
        columns,
    )
    report_path = os.path.join(out_dir, "report.json")
    write_json(
        report_path,
        {
            "kk_residual": residual,
            "at_splitting_hz": f_at,
            "points": len(spectrum),
            "span_linewidths": config["grid"]["span_linewidths"],
            "notes": notes,
        },
    )
    return [csv_path, report_path]


def _run_pointer(config, models, out_dir, seed):
    pre, post, coupling, beam = models["pointer"]
    centroid, eta, p_post = closed_readout(
        pre.delta_phi, pre.delta_beta, post.angle, coupling.k, beam.w
    )
    profile = np.abs(final_wavefunction(pre, post, coupling, beam)) ** 2
    csv_path = os.path.join(out_dir, "profile.csv")
    write_csv(csv_path, ("x_m", "intensity"), (beam.grid, profile))
    json_path = os.path.join(out_dir, "readout.json")
    write_json(
        json_path,
        {
            "delta_phi": pre.delta_phi,
            "delta_beta": pre.delta_beta,
            "k": coupling.k,
            "w": beam.w,
            "centroid_m": centroid,
            "eta": eta,
            "p_post": p_post,
        },
    )
    return [csv_path, json_path]


def _run_stabilize(config, models, out_dir, seed):
    pid = models["pid"]
    loop = config["loop"]
    trace = simulate_closed_loop_detailed(
        pid,
        models["drift"],
        loop["duration"],
        loop["loop_on_at"],
        seed,
        phi_f=loop["phi_f"],
        beam=models["loop"],
    )
    std_open, std_closed, ratio = suppression_report(trace.ts, loop["loop_on_at"])
    # no output holds the disturbance: freed here, its memory takes the
    # time column
    ts, pid_output = trace.ts, trace.pid_output
    del trace
    csv_path = os.path.join(out_dir, "timeseries.csv")
    write_csv(
        csv_path,
        ("t_s", "eta_con", "pid_output"),
        (ts.times(), ts.samples, pid_output),
    )
    report_path = os.path.join(out_dir, "report.json")
    phase_dev_rad = equivalent_phase_deviation(
        std_closed, loop["readout_kick"], loop["beam_w"]
    )
    write_json(
        report_path,
        {
            "std_open": std_open,
            "std_closed": std_closed,
            "ratio": ratio,
            "gains": {"kp": pid.kp, "ki": pid.ki, "kd": pid.kd},
            "phase_deviation_deg": math.degrees(phase_dev_rad),
            "loop_on_at_s": loop["loop_on_at"],
            "duration_s": loop["duration"],
        },
    )
    return [csv_path, report_path]


def _noise_floor_db(sweep):
    floors = sweep.floor_density[sweep.floor_density > 0.0]
    if not floors.size:
        return math.nan
    return 10.0 * math.log10(float(np.median(floors)))


def _scheme_files(out_dir, scheme, sweep, fit):
    points = {
        "e_vpercm": sweep.e_signal / _V_PER_M_PER_V_PER_CM,
        "beat_db": sweep.beat_db,
        "snr_db": sweep.snr_db,
        "peak_freq_hz": sweep.peak_freq_hz,
    }
    json_path = os.path.join(out_dir, f"sensitivity_{scheme}.json")
    write_json(
        json_path,
        {
            "scheme": scheme,
            "points": [dict(zip(points, row)) for row in zip(*points.values())],
            "e_min_vpercm": fit.e_min / _V_PER_M_PER_V_PER_CM,
            "fit": {
                "slope": fit.slope_db_per_db,
                "r2": fit.r_squared,
                "intercept_db": fit.intercept_db,
            },
            "noise_floor_db": _noise_floor_db(sweep),
        },
    )
    csv_path = os.path.join(out_dir, f"sweep_{scheme}.csv")
    header = ("e_vpercm", "beat_db", "snr_db")
    write_csv(csv_path, header, [points[name] for name in header])
    return [json_path, csv_path]


def _usable_cpus():
    """CPUs this process may run on (all of them where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_heterodyne(config, models, out_dir, seed):
    compare = config["heterodyne"]["compare"]
    hetero = models["heterodyne"]
    coupling, beam = models["pointer"]
    pointer = PointerSetup(post=PostSelection(math.pi / 4), coupling=coupling, beam=beam)

    sweep = scheme_comparison if compare else sensitivity_sweep
    workers = min(_usable_cpus(), len(hetero.e_signal))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        result = sweep(
            hetero, models["medium"], pointer, models["detector"], seed, map_fn=pool.map
        )

    if not compare:
        return _scheme_files(
            out_dir, hetero.readout, result, min_detectable_field(result)
        )
    written = _scheme_files(
        out_dir, "dispersion", result.points_dispersion, result.dispersion
    )
    written += _scheme_files(
        out_dir, "amplitude", result.points_amplitude, result.amplitude
    )
    comparison_path = os.path.join(out_dir, "comparison.json")
    write_json(
        comparison_path,
        {
            "delta_sensitivity_db": result.delta_sensitivity_db,
            "delta_min_field_db": result.delta_min_field_db,
            "delta_min_field_db_power": result.delta_min_field_db_power,
            "e_min_vpercm_dispersion": result.dispersion.e_min
            / _V_PER_M_PER_V_PER_CM,
            "e_min_vpercm_amplitude": result.amplitude.e_min
            / _V_PER_M_PER_V_PER_CM,
        },
    )
    return written + [comparison_path]


def _run_calibrate(config, models, out_dir, seed):
    block = config["calibrate"]
    result = _calibration_curve(
        block["powers_w"],
        block["horn_factor"],
        models["medium"],
        dipole_mw=block["dipole_mw"],
        points=block["points"],
    )
    header = ("power_w", "e_applied_vperm", "f_at_hz", "e_recovered_vperm", "resolved")
    columns = (
        result.power_w,
        result.e_applied,
        result.f_at_hz,
        result.e_recovered,
        result.resolved,
    )
    csv_path = os.path.join(out_dir, "calibration.csv")
    write_csv(csv_path, header, columns)
    json_path = os.path.join(out_dir, "calibration.json")
    write_json(
        json_path,
        {
            "slope": result.slope,
            "r_squared": result.r_squared,
            "horn_factor": block["horn_factor"],
            "entries": [dict(zip(header, row)) for row in zip(*columns)],
        },
    )
    return [csv_path, json_path]


def _run_limits(config, models, out_dir, seed):
    json_path = os.path.join(out_dir, "limits.json")
    write_json(json_path, limits_report(models["limits"]))
    return [json_path]


_POINTER = {"k": 10.0, "w": 1.0e-3, "span_w": 10.0, "points": 1001}

# Each experiment's runner and config sections, in schema order.  A section
# is a model dataclass, whose field defaults are its schema and which
# load_config builds, or a literal schema block; load_config builds the
# pointer and loop blocks' models too.
_EXPERIMENTS = {
    "spectrum": (_run_spectrum, {
        "medium": LadderSystemParams,
        "grid": {"span_linewidths": 40.0, "points": 4096},
    }),
    "pointer": (_run_pointer, {
        "pointer": {**_POINTER, "delta_phi": 1.0e-3, "delta_beta": 0.0, "angle": math.pi / 4},
    }),
    "stabilize": (_run_stabilize, {
        "pid": PidParams,
        "drift": DriftModel,
        "loop": {
            "duration": 10.0,
            "loop_on_at": 5.0,
            "phi_f": 0.2,
            "beam_w": 1.0e-3,
            "readout_kick": 10.0,
        },
    }),
    "heterodyne": (_run_heterodyne, {
        "medium": LadderSystemParams,
        "detector": DetectorParams,
        "pointer": _POINTER,
        "heterodyne": HeterodyneConfig,
    }),
    "calibrate": (_run_calibrate, {
        "medium": LadderSystemParams,
        "calibrate": {
            "powers_w": [1.0e-6, 4.0e-6, 1.0e-5, 4.0e-5, 1.0e-4],
            "horn_factor": 1000.0,
            "dipole_mw": 1.27e-26,
            "points": 8192,
        },
    }),
    "limits": (_run_limits, {"limits": LimitInputs}),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def _run_imports(config):
    """The numpy and scipy modules that a run of this config imports on
    first use, which load_config imports first, so that their import time
    counts as set-up, not as run time: scipy.special for the Gauss-Hermite
    rule of the Doppler average, which finds its nodes with scipy.linalg;
    numpy.random for the drift and detector noise of stabilize and
    heterodyne; numpy.fft for the heterodyne Welch spectrum and numpy.ma,
    which np.median imports, for its noise floor."""
    modules = []
    if config.get("medium", {}).get("doppler_enabled"):
        modules += ["scipy.special", "scipy.linalg"]
    if config["experiment"] in ("stabilize", "heterodyne"):
        modules.append("numpy.random")
    if config["experiment"] == "heterodyne":
        modules += ["numpy.fft", "numpy.ma"]
    return modules


# ---------------------------------------------------------------------------
# orchestration


def _resolve_output_dir(config, cli_dir):
    if cli_dir:
        return cli_dir
    env_dir = os.environ.get(OUTPUT_DIR_ENV, "")
    if env_dir:
        return env_dir
    return config.get("output_dir") or "."


def run(config, models, out_dir, seed):
    """Run one config with its models, as load_config returns them; returns
    the manifest path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    experiment = config["experiment"]
    started = time.perf_counter()
    written = _EXPERIMENTS[experiment][0](config, models, out_dir, seed)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(
        manifest_path,
        {
            "experiment": experiment,
            "config": config,
            "seed": seed,
            "versions": {
                "rydsag": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "wall_time_s": time.perf_counter() - started,
            "outputs": [os.path.basename(p) for p in written],
        },
    )
    return manifest_path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rydsag",
        description="Deterministic experiment runner for the vapor-cell "
        "microwave receiver simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment config")
    sim.add_argument("config_path")
    sim.add_argument("--output-dir", default="")
    sim.add_argument("--seed", type=int, default=None)

    val = sub.add_parser("validate", help="check a config and echo defaults")
    val.add_argument("config_path")

    sch = sub.add_parser("schema", help="print an experiment's config schema")
    sch.add_argument("experiment")

    args = parser.parse_args(argv)
    try:
        if args.command == "schema":
            print(json.dumps(sanitize(_schema_for(args.experiment)), indent=2,
                             sort_keys=True))
            return 0
        config, models = load_config(args.config_path)
        if args.command == "validate":
            print(json.dumps(sanitize(config), indent=2, sort_keys=True))
            return 0
        seed = config["seed"] if args.seed is None else args.seed
        _check_seed(seed)
        out_dir = _resolve_output_dir(config, args.output_dir)
        manifest = run(config, models, out_dir, seed)
        print(manifest)
        return 0
    except SimulationError as exc:
        print(json.dumps({"error": {"category": exc.category, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

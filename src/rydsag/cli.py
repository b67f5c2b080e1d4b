"""Command-line runner: config loading, dispatch and result emission.

Experiments are described by a single JSON config, which `load_config`
reads in one walk: each key given is checked against its model field's
default (an unknown key is refused by its dotted path), and each section
is built as its model, which checks its own ranges; so a config that
`validate` accepts fails in `simulate` only on something the run computes
(README.md names the known exceptions).  The config echo is the models'
fields, the config as the run read it: `validate` prints it, the manifest
holds it, and `schema` prints the same over the model classes' defaults.
Each experiment's runner computes its data files and returns them by
name; `run` alone writes them, then a manifest (config echo, seed,
package versions, wall time) into one output directory.  The versions
are those of rydsag, Python and numpy: no run loads scipy.  Errors are
serialized as machine-readable JSON on stdout with a nonzero exit status:
2 for a command-line usage error, 1 for any other, an output that cannot
be written as an `io` error; a reader that closes stdout early ends the
command with exit status 1 and no traceback.

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
import importlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import __version__
from .detector_chain import MAX_GRID_POINTS, DetectorParams
from .eit_medium import (
    LadderSystemParams,
    at_splitting,
    detuning_grid,
    kk_residual,
    phase_and_absorption,
    rabi_from_field,
    splitting_span,
    susceptibility_spectrum,
)
from .emit import sanitize, write_csv, write_json
from .errors import (
    ConfigError,
    GridPolicyError,
    InvalidParameterError,
    OutputError,
    SimulationError,
    UnresolvedSplittingError,
    check_ranges,
)
from .heterodyne import (
    DEFAULT_DIPOLE_MW,
    HeterodyneConfig,
    calibration_powers,
    median,
    min_detectable_field,
    scheme_comparison,
    sensitivity_sweep,
)
from .heterodyne import calibration_curve as _calibration_curve
from .noise_limits import LimitInputs, limits_report
from .stabilization import (
    DEFAULT_BEAM_W,
    DEFAULT_PHI_F,
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


# the JSON name of each type that json.load returns
_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}

# what a value must be to replace a scalar default of each type
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _plain(value):
    """A model's fields, or a model class's defaults, as config data:
    nested dataclasses become objects (tuples print as lists)."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _echo(experiment, sections, seed=0, output_dir=""):
    """The config of experiment whose sections are the given models, or
    model classes for their defaults: what `validate` prints and the
    manifest holds, and over the classes what `schema` prints."""
    return {"experiment": experiment, "seed": seed, "output_dir": output_dir,
            **{name: _plain(section) for name, section in sections.items()}}


def _experiment(name):
    """The _EXPERIMENTS row of the named experiment."""
    if name not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of " + ", ".join(EXPERIMENTS)
        )
    return _EXPERIMENTS[name]


def _read(defaults, supplied, path):
    """The values of the config object supplied at path, each checked
    against its key's entry in defaults; an unknown key is refused by its
    dotted path."""
    if not isinstance(supplied, dict):
        raise ConfigError(
            f"config section {path} must be an object, got {_JSON_TYPES[type(supplied)]}"
        )
    values = {}
    for key, value in supplied.items():
        full = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {full}")
        values[key] = _checked(defaults[key], value, full)
    return values


def _checked(default, value, path, nested=False):
    """A user value checked against its default's type, as its model takes
    it.  An object is read into the default's dataclass (a model class, or
    the default instance of a nested model) and built; a list becomes a
    tuple whose elements follow the default's first element, and a list
    inside a list (a frequency/amplitude pair) must also keep the default's
    length."""
    if is_dataclass(default):
        cls = default if isinstance(default, type) else type(default)
        given = _read({f.name: getattr(cls, f.name) for f in fields(cls)}, value, path)
        return _built(path, cls, **given)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        if nested and len(value) != len(default):
            raise ConfigError(f"{path} must have {len(default)} entries")
        return tuple(
            _checked(default[0], item, f"{path}[{index}]", nested=True)
            for index, item in enumerate(value)
        )
    kind = type(default)
    if kind is float and type(value) is int:
        # an integer past the largest float overflows in the first float
        # operation on it
        if abs(value) > sys.float_info.max:
            raise ConfigError(
                f"{path} must lie within the float range, got an integer of "
                f"{len(str(abs(value)))} digits"
            )
    elif type(value) is not kind:
        raise ConfigError(f"{path} must be {_KINDS[kind]}")
    return value


def load_config(path):
    """Parse a config file and read it into its sections' models, each
    checked and built once; returns the config as the run reads it (the
    models' fields, as `validate` prints it) and the models by section
    name."""
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
    _, sections, check, imports = _experiment(experiment)
    given = _read({"experiment": experiment, "seed": 0, "output_dir": "", **sections}, raw, "")
    seed = given.get("seed", 0)
    _check_seed(seed)
    models = {name: given[name] if name in given else cls() for name, cls in sections.items()}
    if check:
        check(models)
    # the modules the run imports on first use are imported here, so that
    # their import time counts as set-up, not as run time
    for module in imports:
        importlib.import_module(module)
    return _echo(experiment, models, seed, given.get("output_dir", "")), models


def _check_seed(seed):
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def _built(paths, build, *args, **kwargs):
    """build(*args, **kwargs); a refusal keeps its category and is prefixed
    with the config paths it was built from."""
    try:
        return build(*args, **kwargs)
    except SimulationError as exc:
        raise type(exc)(f"{paths}: {exc}") from exc


def _check_points(points, least):
    if not least <= points <= MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"points must be {least} to {MAX_GRID_POINTS}, got {points}")


# the sections that no library model serves; each checks its ranges when
# built, and the pointer and loop sections build their pointer models then
@dataclass(frozen=True)
class Grid:
    """The spectrum's probe-detuning grid: its span in gamma_2 linewidths
    (finite and > 0) and 16 (detuning_grid's least) to MAX_GRID_POINTS
    points."""

    span_linewidths: float = 40.0
    points: int = 4096

    def __post_init__(self):
        check_ranges(self, positive=("span_linewidths",))
        _check_points(self.points, 16)


@dataclass(frozen=True)
class Calibrate:
    """Input powers in W (as calibration_powers admits), the horn factor in
    V/m per root W and the microwave dipole in C*m (both finite and > 0),
    and 16 to MAX_GRID_POINTS points per splitting spectrum."""

    powers_w: tuple = (1.0e-6, 4.0e-6, 1.0e-5, 4.0e-5, 1.0e-4)
    horn_factor: float = 1000.0
    dipole_mw: float = DEFAULT_DIPOLE_MW
    points: int = 8192

    def __post_init__(self):
        check_ranges(self, positive=("horn_factor", "dipole_mw"))
        _check_points(self.points, 16)
        _built("powers_w", calibration_powers, self.powers_w)


@dataclass(frozen=True)
class Pointer:
    """The heterodyne pointer: kick k in rad/m, as its WeakCoupling
    ``coupling``, and the centered BeamPointer ``beam`` of width w in m,
    sampled at 3 to MAX_GRID_POINTS points over span_w widths.  The
    readout's 0.5 * (2 k w)**2 must not overflow."""

    k: float = 10.0
    w: float = 1.0e-3
    span_w: float = 10.0
    points: int = 1001

    def __post_init__(self):
        _check_points(self.points, 3)
        object.__setattr__(self, "coupling", WeakCoupling(self.k))
        object.__setattr__(self, "beam", _built(
            "w, span_w, points", BeamPointer.centered, self.w, self.span_w, self.points))
        # closed_readout takes 0.5 * (2 k w)**2
        kick = 2.0 * self.k * self.w
        if 0.5 * kick * kick == math.inf:
            raise InvalidParameterError(
                f"k {self.k!r} is too large at w = {self.w!r}: "
                "0.5 * (2 k w)**2 overflows")


@dataclass(frozen=True)
class PointerRun(Pointer):
    """The pointer experiment: the heterodyne pointer, the prepared state
    as its PreSelection ``pre``, the analyzer angle as its PostSelection
    ``post``, and their closed-form (centroid, eta, p_post) as ``readout``,
    which refuses an orthogonal post-selection."""

    delta_phi: float = 1.0e-3
    delta_beta: float = 0.0
    angle: float = math.pi / 4

    def __post_init__(self):
        object.__setattr__(self, "pre", PreSelection(self.delta_phi, self.delta_beta))
        object.__setattr__(self, "post", PostSelection(self.angle))
        super().__post_init__()
        object.__setattr__(self, "readout", _built(
            "delta_phi, delta_beta, angle, k, w", closed_readout,
            self.delta_phi, self.delta_beta, self.angle, self.k, self.w))


@dataclass(frozen=True)
class HeterodyneRun(HeterodyneConfig):
    """The heterodyne experiment's drive and readout, and whether it
    compares both readouts or runs the configured one alone."""

    compare: bool = True


@dataclass(frozen=True)
class Loop:
    """The stabilize record: its duration and loop-on time in s, the
    which-path pointer's phase phi_f and its centered BeamPointer ``beam``
    of width beam_w in m, checked against each other by plant_gain, and
    the readout kick in rad/m (finite and > 0) that maps the closed-loop
    spread to a phase.  _check_stabilize checks the times."""

    duration: float = 10.0
    loop_on_at: float = 5.0
    phi_f: float = DEFAULT_PHI_F
    beam_w: float = DEFAULT_BEAM_W
    readout_kick: float = 10.0

    def __post_init__(self):
        check_ranges(self, positive=("readout_kick",))
        object.__setattr__(self, "beam", _built("beam_w", BeamPointer.centered, self.beam_w))
        plant_gain(self.phi_f, self.beam)


# ---------------------------------------------------------------------------
# experiment runners (each takes the models of load_config and the seed, and
# returns its files by name in the order run writes them: a CSV file as its
# (header, columns), a JSON file as its payload)


def _run_spectrum(models, seed):
    medium, grid = models["medium"], models["grid"]
    spectrum = susceptibility_spectrum(
        medium, detuning_grid(medium, grid.span_linewidths, grid.points))
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
    return {
        "spectrum.csv": (
            ("delta_p_hz", "re_chi", "im_chi", "delta_phi_rad", "delta_beta"),
            columns,
        ),
        "report.json": {
            "kk_residual": residual,
            "at_splitting_hz": f_at,
            "points": len(spectrum),
            "span_linewidths": grid.span_linewidths,
            "notes": notes,
        },
    }


def _run_pointer(models, seed):
    pointer = models["pointer"]
    centroid, eta, p_post = pointer.readout
    profile = np.abs(final_wavefunction(
        pointer.pre, pointer.post, pointer.coupling, pointer.beam)) ** 2
    return {
        "profile.csv": (("x_m", "intensity"), (pointer.beam.grid, profile)),
        "readout.json": {
            "delta_phi": pointer.delta_phi,
            "delta_beta": pointer.delta_beta,
            "k": pointer.k,
            "w": pointer.w,
            "centroid_m": centroid,
            "eta": eta,
            "p_post": p_post,
        },
    }


def _check_edge(span_linewidths, medium, keys):
    """Refuse a grid whose edge detuning overflows when cubed: the general
    branch of the resolvent is cubic in detuning."""
    half = 0.5 * span_linewidths * medium.gamma_2
    if not math.isfinite(half * half * half):
        raise ConfigError(
            f"{keys} must leave the cube of the grid's edge detuning finite, "
            f"got an edge of {half} rad/s"
        )


def _check_spectrum(models):
    """Refuse a grid whose edge detuning overflows when cubed, or whose step
    is below the smallest normal float: a subnormal step's rounding, summed
    over up to 2**21 points, can leave detuning_grid not strictly
    increasing; a normal step's, one part in 2**53, cannot."""
    grid, medium = models["grid"], models["medium"]
    keys = "grid.span_linewidths x medium.gamma_2"
    _check_edge(grid.span_linewidths, medium, keys)
    step = grid.span_linewidths * medium.gamma_2 / (grid.points - 1)
    if step < sys.float_info.min:
        raise ConfigError(
            f"{keys} over grid.points - 1 must leave a grid step of at least "
            f"{sys.float_info.min}, got {step} rad/s"
        )


def _check_calibrate(models):
    """Refuse a strongest drive whose Rabi frequency overflows, and check
    the edge of the widest splitting grid, that of the strongest drive."""
    block, medium = models["calibrate"], models["medium"]
    omega = rabi_from_field(block.horn_factor * math.sqrt(max(block.powers_w)),
                            block.dipole_mw)
    if not math.isfinite(omega):
        raise ConfigError(
            "calibrate.horn_factor x the root of the largest calibrate.powers_w x "
            "calibrate.dipole_mw must leave the strongest drive's Rabi frequency "
            f"finite, got {omega} rad/s"
        )
    _check_edge(splitting_span(medium, omega), medium,
                "medium.gamma_2 and the strongest drive of calibrate.powers_w")


def _check_stabilize(models):
    """Refuse records longer than MAX_GRID_POINTS or too short to compare
    the open and closed halves, and a 1/f burn-in longer than
    4 x MAX_GRID_POINTS samples.  A corner at or above the record's lowest
    octave needs at most about 3.2 records of burn-in, so only a corner
    below it is refused."""
    loop, rate, corner = models["loop"], models["pid"].sample_rate, models["drift"].corner_hz
    samples = loop.duration * rate
    if not (math.isfinite(samples) and 1 <= round(samples) <= MAX_GRID_POINTS):
        raise ConfigError(
            "loop.duration x pid.sample_rate must be a finite count of 1 to "
            f"{MAX_GRID_POINTS} samples, got {samples}"
        )
    split = loop.loop_on_at * rate
    least = MIN_SEGMENT_SAMPLES
    if not (math.isfinite(split) and least <= round(split) <= round(samples) - least):
        raise ConfigError(
            f"loop.loop_on_at x pid.sample_rate must leave at least {least} of "
            f"the {round(samples)} samples on each side, got {split}"
        )
    burn = burn_in_samples(corner, rate, loop.duration)
    if burn > 4 * MAX_GRID_POINTS:
        raise ConfigError(
            f"drift.corner_hz of {corner} Hz needs a 1/f burn-in of "
            f"{burn:.3g} samples at pid.sample_rate; at most "
            f"{4 * MAX_GRID_POINTS} are allowed"
        )


def _run_stabilize(models, seed):
    pid, loop = models["pid"], models["loop"]
    trace = simulate_closed_loop_detailed(
        pid, models["drift"], loop.duration, loop.loop_on_at, seed,
        phi_f=loop.phi_f, beam=loop.beam)
    std_open, std_closed, ratio = suppression_report(trace.ts, loop.loop_on_at)
    # no output holds the disturbance: freed here, its memory takes the
    # time column
    ts, pid_output = trace.ts, trace.pid_output
    del trace
    phase_dev_rad = equivalent_phase_deviation(std_closed, loop.readout_kick, loop.beam_w)
    return {
        "timeseries.csv": (
            ("t_s", "eta_con", "pid_output"),
            (ts.times(), ts.samples, pid_output),
        ),
        "report.json": {
            "std_open": std_open,
            "std_closed": std_closed,
            "ratio": ratio,
            "gains": {"kp": pid.kp, "ki": pid.ki, "kd": pid.kd},
            "phase_deviation_deg": math.degrees(phase_dev_rad),
            "loop_on_at_s": loop.loop_on_at,
            "duration_s": loop.duration,
        },
    }


def _noise_floor_db(sweep):
    floors = sweep.floor_density[sweep.floor_density > 0.0]
    if not floors.size:
        return math.nan
    return 10.0 * math.log10(median(floors))


def _scheme_files(scheme, sweep, fit):
    points = {
        "e_vpercm": sweep.e_signal / _V_PER_M_PER_V_PER_CM,
        "beat_db": sweep.beat_db,
        "snr_db": sweep.snr_db,
        "peak_freq_hz": sweep.peak_freq_hz,
    }
    header = ("e_vpercm", "beat_db", "snr_db")
    return {
        f"sensitivity_{scheme}.json": {
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
        f"sweep_{scheme}.csv": (header, [points[name] for name in header]),
    }


def _usable_cpus():
    """CPUs this process may run on (all of them where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_heterodyne(models, seed):
    from concurrent.futures import ThreadPoolExecutor

    hetero = models["heterodyne"]
    section = models["pointer"]
    pointer = PointerSetup(
        post=PostSelection(math.pi / 4), coupling=section.coupling, beam=section.beam)

    sweep = scheme_comparison if hetero.compare else sensitivity_sweep
    workers = min(_usable_cpus(), len(hetero.e_signal))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        result = sweep(
            hetero, models["medium"], pointer, models["detector"], seed, map_fn=pool.map
        )

    if not hetero.compare:
        return _scheme_files(hetero.readout, result, min_detectable_field(result))
    return {
        **_scheme_files("dispersion", result.points_dispersion, result.dispersion),
        **_scheme_files("amplitude", result.points_amplitude, result.amplitude),
        "comparison.json": {
            "delta_sensitivity_db": result.delta_sensitivity_db,
            "delta_min_field_db": result.delta_min_field_db,
            "delta_min_field_db_power": result.delta_min_field_db_power,
            "e_min_vpercm_dispersion": result.dispersion.e_min / _V_PER_M_PER_V_PER_CM,
            "e_min_vpercm_amplitude": result.amplitude.e_min / _V_PER_M_PER_V_PER_CM,
        },
    }


def _run_calibrate(models, seed):
    block = models["calibrate"]
    result = _calibration_curve(block.powers_w, block.horn_factor, models["medium"],
                                dipole_mw=block.dipole_mw, points=block.points)
    header = ("power_w", "e_applied_vperm", "f_at_hz", "e_recovered_vperm", "resolved")
    columns = (
        result.power_w,
        result.e_applied,
        result.f_at_hz,
        result.e_recovered,
        result.resolved,
    )
    return {
        "calibration.csv": (header, columns),
        "calibration.json": {
            "slope": result.slope,
            "r_squared": result.r_squared,
            "horn_factor": block.horn_factor,
            "entries": [dict(zip(header, row)) for row in zip(*columns)],
        },
    }


def _run_limits(models, seed):
    return {"limits.json": limits_report(models["limits"])}


# Each experiment's runner; its config sections in schema order, each a model
# dataclass whose field defaults are its schema and which load_config builds;
# the check across those sections, if any; and the modules beyond those of
# import rydsag.cli that its run imports: numpy.random for the drift and
# detector noise, numpy.fft for the Kramers-Kronig check and the Welch
# spectrum, and the heterodyne sweep's thread pool.  No run loads scipy or
# numpy.ma: the Doppler average reads its Gauss-Hermite rules with np.load.
_EXPERIMENTS = {
    "spectrum": (_run_spectrum, {"medium": LadderSystemParams, "grid": Grid},
                 _check_spectrum, ("numpy.fft",)),
    "pointer": (_run_pointer, {"pointer": PointerRun}, None, ()),
    "stabilize": (_run_stabilize, {"pid": PidParams, "drift": DriftModel, "loop": Loop},
                  _check_stabilize, ("numpy.random",)),
    "heterodyne": (_run_heterodyne, {
        "medium": LadderSystemParams,
        "detector": DetectorParams,
        "pointer": Pointer,
        "heterodyne": HeterodyneRun,
    }, None, ("numpy.random", "numpy.fft", "concurrent.futures.thread")),
    "calibrate": (_run_calibrate, {"medium": LadderSystemParams, "calibrate": Calibrate},
                  _check_calibrate, ()),
    "limits": (_run_limits, {"limits": LimitInputs}, None, ()),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# orchestration


def _resolve_output_dir(config, cli_dir):
    if cli_dir:
        return cli_dir
    env_dir = os.environ.get(OUTPUT_DIR_ENV, "")
    if env_dir:
        return env_dir
    return config.get("output_dir") or "."


def _output(path, write, *args):
    """write(path, *args); an OSError becomes an OutputError naming path."""
    try:
        write(path, *args)
    except OSError as exc:
        raise OutputError(f"cannot write output {path}: {exc}") from exc


def run(config, models, out_dir, seed):
    """Run one config with its models, as load_config returns them, and
    write the runner's files into out_dir in its order, then the manifest;
    returns the manifest path.  An earlier run's manifest is removed before
    the runner starts, so a run that fails leaves none."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    experiment = config["experiment"]
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.lexists(manifest_path):
        _output(manifest_path, os.remove)
    started = time.perf_counter()
    files = _EXPERIMENTS[experiment][0](models, seed)
    for name, payload in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            _output(path, write_csv, *payload)
        else:
            _output(path, write_json, payload)
    versions = {
        "rydsag": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    _output(manifest_path, write_json, {
        "experiment": experiment,
        "config": config,
        "seed": seed,
        "versions": versions,
        "wall_time_s": time.perf_counter() - started,
        "outputs": list(files),
    })
    return manifest_path


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, which the
    command prints as error JSON with exit status 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _Parser(
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

    try:
        status = _command(parser, argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: as the signal module's docs advise, the
        # rest of the output goes to devnull, so that the flush at exit
        # raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _command(parser, argv):
    """Parse argv and run its subcommand; returns the exit status, 2 for a
    usage error and 1 for any other error."""
    status = 2
    try:
        args = parser.parse_args(argv)
        status = 1
        if args.command == "schema":
            config = _echo(args.experiment, _experiment(args.experiment)[1])
        else:
            config, models = load_config(args.config_path)
        if args.command != "simulate":
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
        return status


if __name__ == "__main__":
    sys.exit(main())

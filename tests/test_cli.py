"""Config handling, experiment dispatch and reproducibility of the CLI."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import rydsag
from rydsag import cli, stabilization
from rydsag.cli import EXPERIMENTS, MAX_GRID_POINTS, load_config, main
from rydsag.eit_medium import LadderSystemParams, detuning_grid
from rydsag.errors import ConfigError, RegimeWarning

DATA = pathlib.Path(__file__).parent / "data"
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

FAST_HETERODYNE = {
    "experiment": "heterodyne",
    "seed": 2,
    "medium": {"density": 1.0e15, "omega_c": 1.2566370614359172e7},
    "detector": {"rin": 7.0e-7},
    "heterodyne": {"e_signal": [5.0e-4, 1.0e-3, 2.0e-3], "compare": False},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_schema_command_covers_every_experiment(capsys):
    for experiment in EXPERIMENTS:
        code, out = run_cli(capsys, "schema", experiment)
        assert code == 0
        schema = json.loads(out)
        assert schema["experiment"] == experiment
        assert schema["seed"] == 0


def test_schema_output_is_frozen(capsys):
    # the schema is derived from the model dataclasses; this is the printed
    # text of every experiment's schema, in EXPERIMENTS order
    expected = (DATA / "schema.txt").read_text(encoding="utf-8")
    printed = []
    for experiment in EXPERIMENTS:
        code, out = run_cli(capsys, "schema", experiment)
        assert code == 0
        printed.append(out)
    assert "".join(printed) == expected


def test_schema_unknown_experiment(capsys):
    code, out = run_cli(capsys, "schema", "interferometry")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "config"
    assert "interferometry" in error["message"]


def test_validate_echoes_merged_defaults(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "pointer", "seed": 3})
    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    echoed = json.loads(out)
    assert echoed["seed"] == 3
    assert echoed["pointer"]["k"] == 10.0
    assert echoed["pointer"]["w"] == 1.0e-3


def test_validate_echoes_the_config_as_the_run_reads_it(tmp_path, capsys):
    # the echo is the models' fields: the heterodyne model reads integer
    # amplitudes as floats, so they echo as floats
    path = write_config(tmp_path, {
        "experiment": "heterodyne", "heterodyne": {"e_signal": [1, 2, 3]}})
    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    assert [repr(e) for e in json.loads(out)["heterodyne"]["e_signal"]] == ["1.0", "2.0", "3.0"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_validate_of_the_bare_experiment_prints_its_schema(experiment, tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": experiment})
    assert run_cli(capsys, "validate", path) == run_cli(capsys, "schema", experiment)


def test_section_of_the_wrong_type_names_its_json_type(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "spectrum", "medium": None})
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert json.loads(out)["error"] == {
        "category": "config",
        "message": "config section medium must be an object, got null",
    }


@pytest.mark.parametrize("argv", [
    ["simulate", "configs/pointer.json", "--seed", "1.5"],
    ["frobnicate"],
    ["simulate"],
    ["validate", "configs/pointer.json", "extra"],
])
def test_usage_error_prints_config_error_json_with_status_2(argv, capsys):
    # these used to print argparse's usage text to stderr, with nothing on
    # stdout
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["category"] == "config" and error["message"].startswith("rydsag")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rydsag")


def test_unknown_key_reports_dotted_path(tmp_path, capsys):
    path = write_config(
        tmp_path, {"experiment": "spectrum", "medium": {"gamma_9": 1.0}})
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert "medium.gamma_9" in json.loads(out)["error"]["message"]


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "experiment": ???\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(path))


def test_integer_beyond_the_float_range_is_config_error(tmp_path, capsys):
    # 10**400 under a float key, written out in 401 digits, used to end in
    # an OverflowError traceback: in validate for medium.omega_c, and only
    # in simulate for calibrate.horn_factor
    for experiment, section, key, command in (
        ("spectrum", "medium", "omega_c", ["validate"]),
        ("calibrate", "calibrate", "horn_factor",
         ["simulate", "--output-dir", str(tmp_path / "o")]),
    ):
        path = write_config(
            tmp_path, {"experiment": experiment, section: {key: 10**400}}, "c.json")
        code, out = run_cli(capsys, command[0], path, *command[1:])
        assert code == 1 and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["category"] == "config"
        assert error["message"].startswith(f"{section}.{key} must lie within the float range")
    # the largest float itself is a number like any other; the dipole keeps
    # the strongest drive's Rabi frequency finite, which validate requires
    path = write_config(tmp_path, {"experiment": "calibrate", "calibrate": {
        "horn_factor": 1.0e308, "dipole_mw": 1.0e-300}}, "d.json")
    assert run_cli(capsys, "validate", path)[0] == 0


@pytest.mark.parametrize("text", [
    # more digits than int() reads, and a byte that UTF-8 never holds; both
    # used to end in a ValueError traceback
    b'{"experiment": "spectrum", "seed": ' + b"1" * 5000 + b"}",
    b'{"experiment": "\xff"}',
])
def test_undecodable_config_is_parse_error(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_bytes(text)
    with pytest.raises(ConfigError, match="config parse error"):
        load_config(str(path))


def test_missing_file_is_config_error(capsys):
    code, out = run_cli(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 1
    assert json.loads(out)["error"]["category"] == "config"


def test_wrong_value_types_rejected(tmp_path, capsys):
    path = write_config(
        tmp_path, {"experiment": "pointer", "pointer": {"k": "ten"}})
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert "pointer.k" in json.loads(out)["error"]["message"]

    path = write_config(tmp_path, {"experiment": "pointer", "seed": 1.5}, "b.json")
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert "seed" in json.loads(out)["error"]["message"]

    # the 0.5 s beat record of the benchmark stays within the bounds
    path = write_config(
        tmp_path, {"experiment": "heterodyne", "heterodyne": {"integration_time": 0.5}},
        "d.json")
    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["heterodyne"]["integration_time"] == 0.5

    # each of these used to pass validate and crash simulate, or be truncated.
    # A wrong type or a limit across sections is a config error that names
    # the dotted path; a section's own range is refused by the section
    # itself, as invalid-argument, under the section's name
    own = "invalid-argument"
    for experiment, section, key, value, category in (
        ("spectrum", "grid", "points", 100.7, "config"),
        ("calibrate", "calibrate", "powers_w", ["a", 1.0e-4], "config"),
        ("heterodyne", "heterodyne", "e_signal", ["x"], "config"),
        ("stabilize", "drift", "sinusoids", [[50.0]], "config"),
        # grids and records above MAX_GRID_POINTS
        ("spectrum", "grid", "points", MAX_GRID_POINTS + 1, own),
        ("pointer", "pointer", "points", MAX_GRID_POINTS + 1, own),
        ("heterodyne", "pointer", "points", MAX_GRID_POINTS + 1, own),
        ("calibrate", "calibrate", "points", MAX_GRID_POINTS + 1, own),
        ("stabilize", "loop", "duration", 1.0e3, "config"),
        # beat records shorter than one Welch segment (300 samples) or
        # longer than MAX_GRID_POINTS (90 M and 3 G samples); validate only,
        # the long records would need gigabytes to simulate
        ("heterodyne", "heterodyne", "integration_time", 1.0e-4, own),
        ("heterodyne", "heterodyne", "integration_time", 30.0, own),
        ("heterodyne", "heterodyne", "integration_time", 1.0e3, own),
        # the open-loop actuator rests at u = 0, outside these limits
        ("stabilize", "pid", "output_limits", [1.0, 10.0], own),
        # 10 samples, not the 1000 on each side of loop_on_at the report needs
        ("stabilize", "pid", "sample_rate", 1.0, "config"),
        # a record that rounds to no samples (10 s x 1e-3 Hz)
        ("stabilize", "pid", "sample_rate", 1.0e-3, "config"),
    ):
        path = write_config(
            tmp_path, {"experiment": experiment, section: {key: value}}, "c.json")
        code, out = run_cli(capsys, "validate", path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["category"] == category
        if category == "config":
            assert f"{section}.{key}" in error["message"]
        else:
            assert error["message"].startswith(f"{section}: {key} ")

    # simulate refuses the last of them, the empty record, the same way
    code, out = run_cli(
        capsys, "simulate", path, "--output-dir", str(tmp_path / "empty_record"))
    assert code == 1
    assert "loop.duration x pid.sample_rate" in json.loads(out)["error"]["message"]

    # and the short record, which it used to run before failing unattributed
    path = write_config(
        tmp_path, {"experiment": "stabilize", "pid": {"sample_rate": 1.0}}, "e.json")
    code, out = run_cli(
        capsys, "simulate", path, "--output-dir", str(tmp_path / "short_record"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "config"
    assert "loop.loop_on_at x pid.sample_rate" in error["message"]

    # and limits that exclude u = 0, which it used to blame on the gains
    path = write_config(
        tmp_path, {"experiment": "stabilize", "pid": {"output_limits": [1.0, 10.0]}},
        "g.json")
    code, out = run_cli(
        capsys, "simulate", path, "--output-dir", str(tmp_path / "pinned_actuator"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "invalid-argument"
    assert error["message"].startswith("pid: output_limits ")
    assert "kp=" not in error["message"]

    # the cap admits a 2**20-point spectrum and a 60 s loop at 10 kHz
    for experiment, section, key, value in (
        ("spectrum", "grid", "points", 2**20),
        ("stabilize", "loop", "duration", 60.0),
    ):
        path = write_config(
            tmp_path, {"experiment": experiment, section: {key: value}}, "d.json")
        assert run_cli(capsys, "validate", path)[0] == 0


def test_simulate_pointer_writes_manifest_and_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "pointer", "seed": 0})
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["experiment"] == "pointer"
    assert sorted(manifest["outputs"]) == ["profile.csv", "readout.json"]
    for name in manifest["outputs"]:
        assert (out_dir / name).is_file()
    # the printed line is the manifest path
    assert out.strip().endswith("manifest.json")


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "limits", "seed": 1})
    out_dir = tmp_path / "out"
    code, _ = run_cli(
        capsys, "simulate", cfg, "--output-dir", str(out_dir), "--seed", "7")
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 7


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "limits", "seed": -3})
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(tmp_path / "a"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "config"
    assert "seed must be a non-negative integer" in error["message"]

    cfg = write_config(tmp_path, {"experiment": "limits", "seed": 1}, "b.json")
    code, out = run_cli(
        capsys, "simulate", cfg, "--output-dir", str(tmp_path / "b"), "--seed", "-1")
    assert code == 1
    assert "seed must be a non-negative integer" in json.loads(out)["error"]["message"]
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_uncreatable_output_dir_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "limits", "seed": 0})
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(blocker))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "config"
    assert str(blocker) in error["message"]


def test_unwritable_output_is_io_error(tmp_path, capsys):
    # a directory where an output file goes used to end in an
    # IsADirectoryError traceback
    cfg = write_config(tmp_path, {"experiment": "limits"})
    out_dir = tmp_path / "o"
    (out_dir / "limits.json").mkdir(parents=True)
    code = main(["simulate", cfg, "--output-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.count("\n") == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["category"] == "io"
    assert error["message"].startswith(f"cannot write output {out_dir / 'limits.json'}: ")


def test_failed_run_leaves_no_manifest(tmp_path, capsys):
    # an earlier run's manifest is removed before the runner starts
    cfg = write_config(tmp_path, {"experiment": "limits"})
    out_dir = tmp_path / "o"
    (out_dir / "limits.json").mkdir(parents=True)
    (out_dir / "manifest.json").write_text("{}", encoding="utf-8")
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(out_dir))
    assert code == 1 and json.loads(out)["error"]["category"] == "io"
    assert not (out_dir / "manifest.json").exists()
    # a manifest that cannot be removed fails the run before it starts
    (out_dir / "limits.json").rmdir()
    (out_dir / "manifest.json").mkdir()
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(out_dir))
    assert code == 1 and json.loads(out)["error"]["category"] == "io"
    assert str(out_dir / "manifest.json") in json.loads(out)["error"]["message"]
    assert not (out_dir / "limits.json").exists()


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_manifest_lists_the_files_in_the_order_written(config, tmp_path, capsys, monkeypatch):
    # run writes the runner's files in its order, then the manifest, and
    # the manifest lists exactly the other files of the directory
    written = []

    def recording(write):
        def spy(path, *args):
            written.append(os.path.basename(path))
            return write(path, *args)
        return spy

    monkeypatch.setattr(cli, "write_csv", recording(cli.write_csv))
    monkeypatch.setattr(cli, "write_json", recording(cli.write_json))
    out_dir = tmp_path / "o"
    assert run_cli(capsys, "simulate", str(config), "--output-dir", str(out_dir))[0] == 0
    outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert written == outputs + ["manifest.json"]
    assert sorted(os.listdir(out_dir)) == sorted(written)


def test_output_dir_precedence(tmp_path, capsys, monkeypatch):
    config_dir = tmp_path / "from_config"
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    cfg = write_config(
        tmp_path,
        {"experiment": "limits", "seed": 0, "output_dir": str(config_dir)},
    )

    monkeypatch.setenv("RYDSAG_OUTPUT_DIR", str(env_dir))
    code, _ = run_cli(capsys, "simulate", cfg, "--output-dir", str(flag_dir))
    assert code == 0
    assert (flag_dir / "manifest.json").is_file()
    assert not env_dir.exists() and not config_dir.exists()

    code, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    assert (env_dir / "manifest.json").is_file()
    assert not config_dir.exists()

    monkeypatch.delenv("RYDSAG_OUTPUT_DIR")
    code, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    assert (config_dir / "manifest.json").is_file()


def test_repeat_runs_byte_identical_except_manifest(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize",
            "seed": 5,
            "loop": {"duration": 1.0, "loop_on_at": 0.5},
        },
    )
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        code, _ = run_cli(capsys, "simulate", cfg, "--output-dir", str(d))
        assert code == 0
    names = json.loads((dirs[0] / "manifest.json").read_text())["outputs"]
    assert names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    # manifests agree except for the wall-clock entry
    m1 = json.loads((dirs[0] / "manifest.json").read_text())
    m2 = json.loads((dirs[1] / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_heterodyne_pool_has_a_worker_per_usable_cpu_up_to_the_amplitudes(
    tmp_path, capsys, monkeypatch
):
    # the sweep's three records run on min(usable CPUs, 3) threads, and the
    # output bytes do not depend on how many
    from concurrent.futures import ThreadPoolExecutor

    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path, FAST_HETERODYNE)
    for cpus in (1, 8):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        code, _ = run_cli(
            capsys, "simulate", cfg, "--output-dir", str(tmp_path / str(cpus)))
        assert code == 0
    assert sizes == [1, 3]
    for name in ("sensitivity_dispersion.json", "sweep_dispersion.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "8" / name).read_bytes()


def test_spectrum_checks_run_before_the_csv_and_keep_their_note_order(
    tmp_path, capsys, monkeypatch
):
    # the KK check runs before the CSV columns exist, so its transforms
    # free heap that the columns then reuse
    out_dir = tmp_path / "o"
    csv_existed = []
    kk_residual = cli.kk_residual

    def spy(spectrum):
        csv_existed.append((out_dir / "spectrum.csv").exists())
        return kk_residual(spectrum)

    monkeypatch.setattr(cli, "kk_residual", spy)
    # a 1.5-linewidth span leaves absorption at the edges and no microwave
    # drive leaves one transparency dip, so both checks fail
    cfg = write_config(
        tmp_path,
        {"experiment": "spectrum", "grid": {"span_linewidths": 1.5, "points": 512}},
    )
    code, _ = run_cli(capsys, "simulate", cfg, "--output-dir", str(out_dir))
    assert code == 0
    assert csv_existed == [False]
    assert (out_dir / "spectrum.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    notes = report["notes"]
    assert len(notes) == 2
    assert notes[0].startswith("absorption has not decayed at the grid edges")
    assert notes[1].startswith("expected two transparency dips")
    assert report["kk_residual"] == report["at_splitting_hz"] == "undefined"


def test_stabilize_frees_the_disturbance_before_the_csv(tmp_path, capsys, monkeypatch):
    # no output holds the disturbance, so the time column and the CSV
    # blocks reuse its memory
    records = []
    synthesize_drift = stabilization.synthesize_drift

    def keep_weakref(*args):
        record = synthesize_drift(*args)
        records.append(weakref.ref(record))
        return record

    alive_at_write = []
    write_csv = cli.write_csv

    def spy(path, header, columns):
        alive_at_write.append([ref() is not None for ref in records])
        return write_csv(path, header, columns)

    monkeypatch.setattr(stabilization, "synthesize_drift", keep_weakref)
    monkeypatch.setattr(cli, "write_csv", spy)
    cfg = write_config(
        tmp_path,
        {"experiment": "stabilize", "loop": {"duration": 0.4, "loop_on_at": 0.2}},
    )
    code, _ = run_cli(capsys, "simulate", cfg, "--output-dir", str(tmp_path / "o"))
    assert code == 0
    assert alive_at_write == [[False]]


def test_runtime_failure_reports_error_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "limits", "seed": 0, "limits": {"temperature": 500.0}},
    )
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(tmp_path / "o"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "domain"
    assert set(error) == {"category", "message"}

    # a drift whose (k w)^2 overflows the plant used to exit 0 with an
    # undefined suppression ratio
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize",
            "drift": {"white_amplitude": 1.0e300},
            "loop": {"duration": 1.0, "loop_on_at": 0.5},
        },
        "huge_drift.json",
    )
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(tmp_path / "d"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "domain"
    assert "drift" in error["message"]
    assert not (tmp_path / "d" / "report.json").exists()

    # components near the float limit overflow inside the drift synthesis;
    # that used to print numpy warnings and report an offset of nan rad/m
    cfg = write_config(
        tmp_path,
        {
            "experiment": "stabilize",
            "drift": {"white_amplitude": 1.0e308, "one_over_f_amplitude": 1.0e308},
            "loop": {"duration": 1.0, "loop_on_at": 0.5},
        },
        "overflowing_drift.json",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", cfg, "--output-dir", str(tmp_path / "f")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["category"] == "domain"
    assert "drift" in error["message"] and "nan" not in error["message"]

    # an arm imbalance whose state norm 2 cosh(2 delta_beta) overflows
    cfg = write_config(
        tmp_path,
        {"experiment": "pointer", "pointer": {"delta_beta": 1000.0}},
        "huge_imbalance.json",
    )
    code, out = run_cli(capsys, "simulate", cfg, "--output-dir", str(tmp_path / "p"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "domain"
    assert "delta_beta" in error["message"]
    assert not (tmp_path / "p" / "readout.json").exists()
    # validate builds the pointer's models too, so it refuses the same config
    code, out = run_cli(capsys, "validate", cfg)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "domain"
    assert error["message"].startswith("pointer: |delta_beta| ")


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "stabilize", "loop": {"phi_f": float("inf")}}, "phi_f"),
    ({"experiment": "stabilize", "loop": {"phi_f": 1.0e-300}}, "phi_f"),
    ({"experiment": "pointer", "pointer": {"w": 1.0e-300}}, "pointer: w, span_w, points"),
    ({**FAST_HETERODYNE, "detector": {"responsivity": 1.0e-300}}, "responsivity"),
    ({"experiment": "calibrate", "calibrate": {"horn_factor": float("nan")}},
     "horn_factor"),
])
def test_degenerate_phi_f_and_underflowing_squares_exit_with_error_json(
        tmp_path, capsys, payload, key):
    # each of these used to end simulate in a ValueError or ZeroDivisionError
    # traceback, or, for the NaN horn factor, in an error naming omega_mw
    cfg = write_config(tmp_path, payload)
    code = main(["simulate", cfg, "--output-dir", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "" and captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert set(error) == {"category", "message"}
    assert error["category"] == "invalid-argument"
    assert key in error["message"]


@pytest.mark.parametrize("experiment, key, value, prefix", [
    ("spectrum", "medium.gamma_2", 0.0, "medium: gamma_2"),
    ("calibrate", "medium.omega_c", -1.0, "medium: omega_c"),
    ("heterodyne", "detector.bandwidth", 0.0, "detector: bandwidth"),
    ("heterodyne", "detector.responsivity", 1.0e300, "detector: responsivity"),
    ("heterodyne", "detector.nep", 1.0e300, "detector: nep"),
    ("stabilize", "pid.kp", float("nan"), "pid: kp"),
    ("stabilize", "drift.corner_hz", 0.0, "drift: corner_hz"),
    ("stabilize", "loop.phi_f", 1.0e-300, "loop: phi_f "),
    ("stabilize", "loop.beam_w", 1.0e-300, "loop: beam_w: "),
    ("pointer", "pointer.w", 1.0e300, "pointer: w, span_w, points: "),
    ("limits", "limits.geometry.beam_radius", 1.0, "limits.geometry: beam_radius"),
    # squares that overflow used to end simulate in an OverflowError, and a
    # corner this low in a ValueError from allocating the 1/f burn-in
    ("spectrum", "medium.omega_c", 1.0e300, "medium: omega_c"),
    ("heterodyne", "medium.omega_c", 1.0e300, "medium: omega_c"),
    ("calibrate", "medium.omega_c", 1.0e300, "medium: omega_c"),
    ("spectrum", "medium.dipole_probe", 1.0e300, "medium: dipole_probe"),
    ("heterodyne", "medium.dipole_probe", 1.0e300, "medium: dipole_probe"),
    ("calibrate", "medium.dipole_probe", 1.0e300, "medium: dipole_probe"),
    ("heterodyne", "heterodyne.omega_local", 1.0e300, "heterodyne: omega_local"),
    ("limits", "limits.geometry.cell_radius", 1.0e300, "limits.geometry: cell_radius"),
    ("stabilize", "drift.corner_hz", 1.0e-300, "drift: corner_hz"),
    # ranges that only the run used to check, in messages that mostly named
    # no key: grids, calibration inputs, the vapor-pressure temperature, and
    # a readout kick that wrote a zero spread
    ("spectrum", "grid.points", 0, "grid: points "),
    ("spectrum", "grid.span_linewidths", -1.0, "grid: span_linewidths "),
    ("calibrate", "calibrate.points", 3, "calibrate: points "),
    ("calibrate", "calibrate.horn_factor", 0.0, "calibrate: horn_factor "),
    ("calibrate", "calibrate.dipole_mw", -1.0, "calibrate: dipole_mw "),
    ("calibrate", "calibrate.powers_w", [], "calibrate: powers_w: "),
    ("limits", "limits.temperature", 1.0e12, "limits: temperature "),
    ("stabilize", "loop.readout_kick", 0.0, "loop: readout_kick "),
    # a kick whose 0.5 * (2 k w)**2 overflows used to run with an overflow
    # warning, and an infinite width or span to warn from np.linspace
    ("pointer", "pointer.k", 1.0e300, "pointer: k "),
    ("heterodyne", "pointer.k", -1.0e300, "pointer: k "),
    ("pointer", "pointer.w", math.inf, "pointer: w, span_w, points: w must be finite"),
    ("pointer", "pointer.span_w", math.inf, "pointer: w, span_w, points: span_w must be finite"),
    ("heterodyne", "pointer.w", math.inf, "pointer: w, span_w, points: w must be finite"),
    ("stabilize", "loop.beam_w", math.inf, "loop: beam_w: w must be finite"),
    # an edge detuning whose cube overflows used to run with overflow
    # warnings from the resolvent
    ("spectrum", "grid.span_linewidths", 1.0e300, "grid.span_linewidths x medium.gamma_2 "),
    # a strongest drive whose Rabi frequency overflows, and a beam whose atom
    # number underflows to 0, used to fail only in simulate
    ("calibrate", "calibrate.dipole_mw", 1.0e300, "calibrate.horn_factor x the root of "),
    ("limits", "limits.geometry.beam_radius", 1.0e-300, "limits: geometry.beam_radius 1e-300 "),
])
@pytest.mark.filterwarnings("error")
def test_validate_refuses_what_simulate_refuses(
        tmp_path, capsys, experiment, key, value, prefix):
    # validate builds every section's model, so a model's refusal comes from
    # validate too, named by its section path; each of these used to pass
    # validate and then fail simulate, some with a traceback
    payload = dict(FAST_HETERODYNE) if experiment == "heterodyne" else {
        "experiment": experiment}
    *sections, leaf = key.split(".")
    block = payload
    for section in sections:
        block[section] = dict(block.get(section, {}))
        block = block[section]
    block[leaf] = value
    assert _refusal(tmp_path, capsys, payload)["message"].startswith(prefix)


def _refusal(tmp_path, capsys, payload):
    """The one-line error that validate and simulate both print for payload."""
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / "out"
    errors = []
    for argv in (["validate", cfg], ["simulate", cfg, "--output-dir", str(out_dir)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "" and captured.out.count("\n") == 1
        errors.append(json.loads(captured.out)["error"])
    assert errors[0] == errors[1]
    assert not out_dir.exists()
    return errors[0]


@pytest.mark.filterwarnings("error")
def test_validate_refuses_a_calibration_grid_edge_that_overflows(tmp_path, capsys):
    # the strongest drive's splitting span, 3 omega_mw / gamma_2, is inf here,
    # and simulate used to fail in np.linspace with RuntimeWarnings; omega_p
    # 0 keeps the medium in the weak-probe regime
    error = _refusal(tmp_path, capsys, {
        "experiment": "calibrate", "medium": {"gamma_2": 1.0e-300, "omega_p": 0.0}})
    assert error["message"].startswith("medium.gamma_2 and the strongest drive ")


@pytest.mark.parametrize("payload, category, prefix", [
    # post-selected power below the orthogonality floor
    ({"experiment": "pointer", "pointer": {"k": 1.0e-150, "delta_phi": 1.0e-300}},
     "orthogonal-postselection", "pointer: delta_phi, delta_beta, angle, k, w: "),
    # an edge detuning that underflows to 0, so every grid point is 0;
    # omega_p 0 keeps the medium in the weak-probe regime
    ({"experiment": "spectrum", "medium": {"gamma_2": 1.0e-300, "omega_p": 0.0},
      "grid": {"span_linewidths": 1.0e-150}},
     "config", "grid.span_linewidths x medium.gamma_2 over grid.points - 1 "),
], ids=["orthogonal-postselection", "subnormal-grid-step"])
@pytest.mark.filterwarnings("error")
def test_validate_refuses_a_run_its_closed_form_or_grid_refuses(
        tmp_path, capsys, payload, category, prefix):
    # each of these used to pass validate and then fail simulate
    error = _refusal(tmp_path, capsys, payload)
    assert error["category"] == category
    assert error["message"].startswith(prefix)


def test_a_regime_warning_of_validate_names_a_source_file(tmp_path, capsys):
    # the weak-probe warning names the frame that built the medium, not the
    # __init__ that dataclass compiles from a string ("<string>")
    cfg = write_config(tmp_path, {"experiment": "spectrum", "medium": {"gamma_2": 1.0e-300}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", cfg]) == 0
    capsys.readouterr()
    assert [w.category for w in caught] == [RegimeWarning]
    assert caught[0].filename.endswith(".py")


@pytest.mark.parametrize("points", [16, 4097, 262_145])
@pytest.mark.parametrize("factor", [1.0, 1.5, 3.0])
def test_a_grid_step_of_a_normal_float_is_strictly_increasing(points, factor):
    # the bound that _check_spectrum refuses below
    medium = LadderSystemParams(gamma_2=1.0, omega_p=0.0)
    span = factor * sys.float_info.min * (points - 1)
    grid = detuning_grid(medium, span, points)
    assert grid.size == points and np.all(np.diff(grid) > 0.0)


@pytest.mark.parametrize("limits, prefix", [
    ({"t_meas": 1.0e-300, "geometry": {"beam_radius": 1.0e-150}},
     "limits: t_meas 1e-300 x the root of the beam's atom number "),
    ({"t_meas": 1.0e-300, "n_atoms": 5.0e-324}, "limits: t_meas 1e-300 x the root of n_atoms "),
])
@pytest.mark.filterwarnings("error")
def test_validate_refuses_an_atom_noise_floor_that_divides_by_zero(
        tmp_path, capsys, limits, prefix):
    # each of these used to end simulate in a ZeroDivisionError traceback
    error = _refusal(tmp_path, capsys, {"experiment": "limits", "limits": limits})
    assert error["message"].startswith(prefix)


def test_burn_in_longer_than_the_cap_is_refused(tmp_path, capsys):
    # a corner above the lowest octave but below the record's lowest
    # resolved frequency is one pole, whose burn-in grows with the sample
    # rate: here 1.6e10 samples, which used to fail to allocate
    cfg = write_config(tmp_path, {
        "experiment": "stabilize",
        "drift": {"corner_hz": 0.05},
        "pid": {"sample_rate": 1.0e9},
        "loop": {"duration": 1.0e-3, "loop_on_at": 5.0e-4},
    })
    for argv in (["validate", cfg], ["simulate", cfg, "--output-dir", str(tmp_path / "o")]):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["category"] == "config"
        assert error["message"].startswith("drift.corner_hz of 0.05 Hz needs a 1/f burn-in")
    # the same corner on the shipped 10 s record runs
    assert load_config(write_config(tmp_path, {
        "experiment": "stabilize", "drift": {"corner_hz": 0.05}}))[1]["drift"].corner_hz == 0.05


def _package_env():
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(rydsag.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(code, *argv):
    """stdout of a fresh interpreter running code on this package: the
    oracle tests import scipy modules into this one."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=_package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


@pytest.mark.parametrize("argv", [
    ["schema", "heterodyne"],
    ["validate", "configs/heterodyne.json"],
    ["simulate", "configs/pointer.json", "--output-dir", "{tmp}"],
])
def test_closed_stdout_exits_1_without_traceback(argv, tmp_path):
    # a reader that closes stdout at once used to end the command in a
    # BrokenPipeError traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "rydsag.cli", *(a.format(tmp=tmp_path) for a in argv)],
            cwd=CONFIGS.parent, env=_package_env(), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


# packages that only some runs load: scipy, and with it numpy.ma, for a
# Doppler medium and the thread pool for heterodyne; and fractions and
# decimal, which no run loads
_RUN_ONLY = ("scipy", "concurrent", "fractions", "decimal")
_LOADED = f"sorted(m for m in sys.modules if m.split('.')[0] in {('numpy',) + _RUN_ONLY!r})"


def _is_numpy_ma(module):
    return module == "numpy.ma" or module.startswith("numpy.ma.")


def test_cli_import_loads_no_scipy_integrate_optimize_or_signal():
    # nor any other scipy module, nor any module that only some runs use:
    # the runs that use them import them during set-up
    loaded = json.loads(_python(f"import json, sys, rydsag.cli; print(json.dumps({_LOADED}))"))
    assert [m for m in loaded if m.split(".")[0] in _RUN_ONLY or _is_numpy_ma(m)] == []


# records the numpy modules and those of _RUN_ONLY loaded when load_config
# returns and when main does
_SETUP_PROBE = f"""
import json, sys
from rydsag import cli

load_config, setup = cli.load_config, []

def probe(path):
    built = load_config(path)
    setup.extend({_LOADED})
    return built

cli.load_config = probe
code = cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "setup": setup, "end": {_LOADED}}}))
"""

_DOPPLER_SPECTRUM = {
    "experiment": "spectrum",
    "medium": {
        "doppler_enabled": True,
        "gamma_2": 2.0 * math.pi * 80e6,
        "gamma_3": 2.0 * math.pi * 10e6,
        "gamma_4": 2.0 * math.pi * 10e6,
        "omega_c": 2.0 * math.pi * 20e6,
        "omega_mw": 2.0 * math.pi * 100e6,
    },
    "grid": {"points": 64},
}

_PROBED = [f"{name}.json" for name in EXPERIMENTS] + ["doppler"]


@pytest.fixture(scope="module")
def probed_run(tmp_path_factory):
    """probed_run(config) -> (the _SETUP_PROBE report, the manifest) of a
    fresh `simulate` of a shipped config or of "doppler", run once per
    config for all the tests of this module."""
    runs = {}

    def probed(config):
        if config not in runs:
            tmp_path = tmp_path_factory.mktemp("probed")
            if config == "doppler":
                path = write_config(tmp_path, _DOPPLER_SPECTRUM)
            else:
                path = str(pathlib.Path(__file__).parent.parent / "configs" / config)
            printed = _python(
                _SETUP_PROBE, "simulate", path, "--output-dir", str(tmp_path / "o"))
            report = json.loads(printed.splitlines()[-1])
            assert report["code"] == 0
            manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
            runs[config] = report, manifest
        return runs[config]

    return probed


@pytest.mark.parametrize("config", _PROBED)
def test_no_run_loads_scipy_and_setup_loads_every_run_module(probed_run, config):
    # no run loads a scipy module, the Doppler medium included: its
    # Gauss-Hermite rules come from the package's table.  No run imports a
    # numpy module either: set-up imports the numpy.random and numpy.fft
    # that a run uses
    report, _ = probed_run(config)
    assert [m for m in report["end"] if m.split(".")[0] == "scipy"] == []
    assert report["end"] == report["setup"]


@pytest.mark.parametrize("config", _PROBED)
def test_only_heterodyne_loads_the_thread_pool_and_no_run_numpy_ma(probed_run, config):
    # the sweep's thread pool is imported during set-up, and only for
    # heterodyne; no run loads numpy.ma, neither the noise floor's median
    # nor the Doppler medium
    report, _ = probed_run(config)
    pool = [m for m in report["end"] if m.split(".")[0] == "concurrent"]
    assert pool == [m for m in report["setup"] if m.split(".")[0] == "concurrent"]
    assert ("concurrent.futures.thread" in pool) == (config == "heterodyne.json")
    assert [m for m in report["end"] if _is_numpy_ma(m)] == []
    assert "fractions" not in report["end"] and "decimal" not in report["end"]


@pytest.mark.parametrize("config", _PROBED)
def test_manifest_versions_are_rydsag_python_and_numpy(probed_run, config):
    # no run loads scipy, so no manifest names its version
    _, manifest = probed_run(config)
    assert set(manifest["versions"]) == {"rydsag", "python", "numpy"}


@pytest.mark.parametrize("limits, prefix", [
    ({"t_meas": 1.0e-300, "probe_power": 1.0e-300},
     "limits: t_meas 1e-300 x the photon rate of probe_power 1e-300 underflows to 0 photons"),
    ({"t_meas": 1.0e-300, "n_photons_rate": 1.0e-300},
     "limits: t_meas 1e-300 x the photon rate of n_photons_rate 1e-300 underflows to 0 photons"),
])
@pytest.mark.filterwarnings("error")
def test_validate_refuses_a_photon_count_that_underflows(tmp_path, capsys, limits, prefix):
    # each of these used to pass validate and then fail simulate with
    # "n_photons must be > 0, got 0.0"
    error = _refusal(tmp_path, capsys, {"experiment": "limits", "limits": limits})
    assert error["message"].startswith(prefix)


@pytest.mark.parametrize("medium", [{"omega_c": 1.9e154}, {"dipole_probe": 1.0e100}])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::rydsag.errors.RegimeWarning")
def test_heterodyne_channel_powers_that_are_not_finite_fail_before_the_draw(
        tmp_path, capsys, medium):
    # each of these used to draw every record and then fail with "samples
    # contain non-finite values", naming no key; the medium's resolvent
    # still overflows on the way, with numpy's RuntimeWarnings, and the
    # dipole_probe case leaves the thin-medium regime
    cfg = write_config(tmp_path, {
        "experiment": "heterodyne", "medium": medium,
        "heterodyne": {"integration_time": 0.002}})
    code = main(["simulate", cfg, "--output-dir", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["category"] == "invalid-argument"
    assert error["message"].startswith("the clean dispersion channel powers ")
    for section in ("medium", "heterodyne.omega_local", "heterodyne.e_signal"):
        assert section in error["message"]

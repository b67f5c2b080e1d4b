"""Config handling, experiment dispatch and reproducibility of the CLI."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import rydsag
from rydsag import cli
from rydsag.cli import EXPERIMENTS, MAX_GRID_POINTS, load_config, main
from rydsag.errors import ConfigError

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

    # each of these used to pass validate and crash simulate, or be truncated
    for experiment, section, key, value in (
        ("spectrum", "grid", "points", 100.7),
        ("calibrate", "calibrate", "powers_w", ["a", 1.0e-4]),
        ("heterodyne", "heterodyne", "e_signal", ["x"]),
        ("stabilize", "drift", "sinusoids", [[50.0]]),
        # grids and records above MAX_GRID_POINTS
        ("spectrum", "grid", "points", MAX_GRID_POINTS + 1),
        ("pointer", "pointer", "points", MAX_GRID_POINTS + 1),
        ("heterodyne", "pointer", "points", MAX_GRID_POINTS + 1),
        ("calibrate", "calibrate", "points", MAX_GRID_POINTS + 1),
        ("stabilize", "loop", "duration", 1.0e3),
        # beat records shorter than one Welch segment (300 samples) or
        # longer than MAX_GRID_POINTS (90 M and 3 G samples); validate only,
        # the long records would need gigabytes to simulate
        ("heterodyne", "heterodyne", "integration_time", 1.0e-4),
        ("heterodyne", "heterodyne", "integration_time", 30.0),
        ("heterodyne", "heterodyne", "integration_time", 1.0e3),
        # the open-loop actuator rests at u = 0, outside these limits
        ("stabilize", "pid", "output_limits", [1.0, 10.0]),
        # 10 samples, not the 1000 on each side of loop_on_at the report needs
        ("stabilize", "pid", "sample_rate", 1.0),
        # a record that rounds to no samples (10 s x 1e-3 Hz)
        ("stabilize", "pid", "sample_rate", 1.0e-3),
    ):
        path = write_config(
            tmp_path, {"experiment": experiment, section: {key: value}}, "c.json")
        code, out = run_cli(capsys, "validate", path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["category"] == "config"
        assert f"{section}.{key}" in error["message"]

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
    assert error["category"] == "config"
    assert "pid.output_limits" in error["message"]
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

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path, FAST_HETERODYNE)
    for cpus in (1, 8):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        code, _ = run_cli(
            capsys, "simulate", cfg, "--output-dir", str(tmp_path / str(cpus)))
        assert code == 0
    assert sizes == [1, 3]
    for name in ("sensitivity_dispersion.json", "sweep_dispersion.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "8" / name).read_bytes()


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
    assert "pointer.delta_beta" in error["message"]


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "stabilize", "loop": {"phi_f": float("inf")}}, "phi_f"),
    ({"experiment": "stabilize", "loop": {"phi_f": 1.0e-300}}, "phi_f"),
    ({"experiment": "pointer", "pointer": {"w": 1.0e-300}}, "pointer.w"),
    ({**FAST_HETERODYNE, "detector": {"responsivity": 1.0e-300}}, "responsivity"),
])
def test_degenerate_phi_f_and_underflowing_squares_exit_with_error_json(
        tmp_path, capsys, payload, key):
    # each of these used to end simulate in a ValueError or ZeroDivisionError
    # traceback
    cfg = write_config(tmp_path, payload)
    code = main(["simulate", cfg, "--output-dir", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "" and captured.out.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert set(error) == {"category", "message"}
    assert error["category"] == "invalid-argument"
    assert key in error["message"]


def test_cli_import_loads_no_scipy_integrate_optimize_or_signal():
    # a fresh interpreter: the oracle tests import these into this one.
    # scipy.integrate serves only the pointer's quadrature oracle and pulls
    # in scipy.optimize; scipy.signal was replaced by scipy.fft code
    src = os.path.dirname(os.path.dirname(rydsag.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, rydsag.cli; "
            "print([m for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.optimize', 'scipy.signal'))])",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"

"""rydsag benchmark: `rydsag simulate` processes timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload examples --seed 0 --seconds 30 --trace 0

Each operation ("op") is one ``rydsag simulate <config> --output-dir D
--seed S`` process, started through ``perfbench/op.py``, which does what
the console script does and records when config validation ended.  Ops
run one at a time from this process: a closed loop with one client.  A
"pass" runs a workload's op list once, in order; passes repeat until the
next one would overrun ``--seconds`` (at least ``MIN_PASSES``).  Every
metric is the median over passes; the report also prints quartiles and
the sample count.  The benchmark seed is passed to the program only as
``--seed``; every op's outputs are checked (see check.py).

``--trace 0`` reports the end-to-end metrics, measured untraced:

- wall_s: spawn-to-exit time of the pass's processes, summed;
- setup_s: spawn until ``load_config`` returned (interpreter start,
  ``import rydsag.cli``, validation), summed over the pass;
- run_s: validation end until ``main`` returned, summed over the pass;
- peak_rss_mb: the largest peak resident set of any op in the pass, as the
  op reads it from /proc (see op.py for why not from wait4).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see op.py for the spans); it prints
the end-to-end metrics of its untraced passes too, so one command shows
every metric.  Traced
ops also run under ``python -X importtime``.  ``trace.overhead_s`` is
traced run_s minus untraced run_s.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(ROOT, ".perfbench_work")
OP_SCRIPT = os.path.join(HERE, "op.py")

sys.path.insert(0, SRC)
from check import check_outputs  # noqa: E402

clock = time.monotonic
TWO_PI = 2.0 * math.pi
MIN_PASSES = 2

EXAMPLES = ("spectrum", "pointer", "stabilize", "heterodyne", "calibrate", "limits")

# Broad-line Doppler fixture of tests/test_eit_medium.py (DOPPLER_BROAD),
# driven at 100 MHz: the Gauss-Hermite ladder converges on it today.
DOPPLER_BROAD = {
    "experiment": "spectrum",
    "seed": 0,
    "medium": {
        "doppler_enabled": True,
        "gamma_2": TWO_PI * 80e6,
        "gamma_3": TWO_PI * 10e6,
        "gamma_4": TWO_PI * 10e6,
        "omega_c": TWO_PI * 20e6,
        "omega_mw": TWO_PI * 100e6,
    },
    "grid": {"span_linewidths": 40.0, "points": 128},
}

# workload -> [(op name, shipped config, overrides or a whole config)]
WORKLOADS = {
    "examples": [(name, f"{name}.json", None) for name in EXAMPLES],
    "spectrum_wide": [
        ("spectrum_262144", "spectrum.json", {"grid": {"points": 262144}}),
        ("doppler_broad", None, DOPPLER_BROAD),
    ],
    "stabilize_long": [
        ("stabilize_60s", "stabilize.json", {"loop": {"duration": 60.0, "loop_on_at": 30.0}}),
    ],
    "heterodyne_long": [
        ("heterodyne_0.5s", "heterodyne.json", {"heterodyne": {"integration_time": 0.5}}),
    ],
}

PHYSICS_LAYERS = (
    "eit_medium",
    "weak_pointer",
    "detector_chain",
    "stabilization",
    "heterodyne",
    "noise_limits",
)
IMPORT_MODULES = (
    "rydsag",
    "cli",
    "detector_chain",
    "eit_medium",
    "emit",
    "errors",
    "heterodyne",
    "noise_limits",
    "stabilization",
    "weak_pointer",
)
WORK_COUNTS = (
    "eit_medium.points",
    "eit_medium.doppler_points",
    "stabilization.loop_samples",
    "detector_chain.samples",
    "detector_chain.psd_calls",
    "heterodyne.records",
    "weak_pointer.elements",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {"import.total_s": "s", "import.modules": "count"}
    units.update({f"import.{m}_s": "s" for m in IMPORT_MODULES})
    units.update({"cli.validate_s": "s", "cli.self_s": "s"})
    for layer in PHYSICS_LAYERS:
        units.update(
            {f"{layer}.self_s": "s", f"{layer}.calls": "count", f"{layer}.failed": "count"}
        )
    units.update({name: "count" for name in WORK_COUNTS})
    units["stabilization.samples_per_s"] = "1/s"
    units.update(
        {
            "emit.self_s": "s",
            "emit.files": "count",
            "emit.rows": "count",
            "emit.bytes": "B",
            "emit.mb_per_s": "MB/s",
            "trace.overhead_s": "s",
            "failed_ratio": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# set-up


def merge(base, overrides):
    merged = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            merged[key] = merge(base[key], value)
        else:
            merged[key] = value
    return merged


def materialize(workload):
    """[(op name, config path)]; shipped configs run as they are."""
    ops = []
    os.makedirs(os.path.join(WORK, "configs"), exist_ok=True)
    for name, shipped, overrides in WORKLOADS[workload]:
        if shipped is not None:
            path = os.path.join(CONFIGS, shipped)
            if overrides is None:
                ops.append((name, path))
                continue
            with open(path, "r", encoding="utf-8") as handle:
                config = merge(json.load(handle), overrides)
        else:
            config = overrides
        path = os.path.join(WORK, "configs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=2)
        ops.append((name, path))
    return ops


def child_env():
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME", "RYDSAG_OUTPUT_DIR"):
        env.pop(name, None)
    env.update(PYTHONPATH=SRC, PERFBENCH_SRC=SRC)
    return env


def git_commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def environment():
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one op


def spawn_op(out_dir, config_path, seed, traced, env):
    """Spawn one op and wait for it; its outputs stay in out_dir.

    Returns wall time and, when the op succeeded, set-up and run time, peak
    RSS and the record op.py wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    record_path = out_dir + ".record.json"
    argv = [sys.executable]
    if traced:
        argv += ["-X", "importtime"]
    argv += [OP_SCRIPT, "simulate", config_path, "--output-dir", out_dir, "--seed", str(seed)]
    op_env = dict(env, PERFBENCH_RECORD=record_path, PERFBENCH_TRACE=str(int(traced)))
    with open(out_dir + ".stderr.txt", "w", encoding="utf-8") as stderr:
        spawned = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr, env=op_env)
        _, status = os.waitpid(proc.pid, 0)
        exited = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"wall": exited - spawned, "problems": []}
    if proc.returncode != 0:
        result["problems"].append(f"exit status {proc.returncode}")
        return result
    try:
        with open(record_path, "r", encoding="utf-8") as handle:
            result["record"] = json.load(handle)
        result["setup"] = result["record"]["validated"] - spawned
        result["run"] = result["record"]["returned"] - result["record"]["validated"]
        result["rss_mb"] = result["record"]["peak_rss_kb"] / 1024.0
    except (OSError, ValueError, KeyError) as exc:
        result["problems"].append(f"no timing record: {exc!r}")
    return result


def remove_op_files(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    for suffix in (".record.json", ".stderr.txt"):
        if os.path.exists(out_dir + suffix):
            os.remove(out_dir + suffix)


def run_op(op_id, config_path, seed, traced, env, reference):
    """Spawn one op, check its outputs and reduce its trace; returns its result."""
    out_dir = os.path.join(WORK, op_id)
    result = spawn_op(out_dir, config_path, seed, traced, env)
    if not result["problems"]:
        result["problems"] = check_outputs(out_dir, reference, seed)
    if traced and not result["problems"]:
        result["layers"] = layer_record(result["record"], out_dir + ".stderr.txt")
    if result["problems"]:
        with open(out_dir + ".stderr.txt", "r", encoding="utf-8") as handle:
            tail = handle.read()[-2000:]
        print(f"FAILED {op_id}: {result['problems']}\n{tail}", file=sys.stderr)
    result.pop("record", None)
    remove_op_files(out_dir)
    return result


# ---------------------------------------------------------------------------
# trace reduction


def import_times(stderr_path):
    """Seconds per rydsag module from `-X importtime`, attributed to the first
    importer: a module's cumulative time less that of rydsag modules nested
    under it, so third-party imports count against the rydsag module that
    pulled them in and the times add up."""
    times = {}
    stack = []  # (depth, cumulative us, us of nested rydsag modules, is rydsag)
    with open(stderr_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            name = name.strip()
            cumulative = int(cumulative)
            nested = 0
            while stack and stack[-1][0] > depth:
                _, child_cumulative, child_nested, child_is_rydsag = stack.pop()
                nested += child_cumulative if child_is_rydsag else child_nested
            is_rydsag = name == "rydsag" or name.startswith("rydsag.")
            if is_rydsag:
                short = name.split(".", 1)[1] if "." in name else name
                times[short] = (cumulative - nested) / 1e6
            stack.append((depth, cumulative, nested, is_rydsag))
    return times


def emitted_size(kind, path):
    """(data rows, bytes) of one emitted file.  The manifest's wall time is
    the one output that varies between identical runs, so its digits are
    not counted."""
    with open(path, "rb") as handle:
        data = handle.read()
    if os.path.basename(path) == "manifest.json":
        data = re.sub(rb'"wall_time_s": [^,\n]*', b'"wall_time_s": 0', data)
    rows = data.count(b"\n") - 1 if kind == "write_csv" else 0
    return rows, len(data)


def layer_record(record, stderr_path):
    """Per-layer self times, calls and counts of one traced op."""
    validated, returned = record["validated"], record["returned"]
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {n: 0 if u in ("count", "B") else 0.0 for n, u in per_layer_units().items()}
    top_level = 0.0
    for i, (layer, name, start, end, parent) in enumerate(spans):
        if start < validated:
            if layer == "cli" and name == "load_config":
                out["cli.validate_s"] += end - start
            continue
        if parent is None:
            top_level += end - start
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + end - start - child_time[i]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
    out["cli.self_s"] = (returned - validated) - top_level
    for layer, failed in record["failed"].items():
        out[f"{layer}.failed"] = out.get(f"{layer}.failed", 0) + failed
    for name, amount in record["counts"].items():
        out[name] += amount
    out["emit.files"] = len(record["emitted"])
    for kind, path in record["emitted"]:
        rows, size = emitted_size(kind, path)
        out["emit.rows"] += rows
        out["emit.bytes"] += size
    out["import.total_s"] = record["import_s"]
    out["import.modules"] = record["modules"]
    for module, seconds in import_times(stderr_path).items():
        out[f"import.{module}_s"] = seconds
    out["run_s"] = returned - validated
    return out


def traced_pass_metrics(ops):
    """Sum the per-op layer records of one traced pass."""
    total = {}
    for op in ops:
        for name, value in op["layers"].items():
            if name == "import.modules":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    self_keys = [k for k in total if k.endswith(".self_s") and k != "cli.validate_s"]
    total["trace.accounted_s"] = sum(total[k] for k in self_keys)
    stab = total["stabilization.self_s"]
    total["stabilization.samples_per_s"] = (
        total["stabilization.loop_samples"] / stab if stab > 0 else 0.0
    )
    emit = total["emit.self_s"]
    total["emit.mb_per_s"] = total["emit.bytes"] / 1e6 / emit if emit > 0 else 0.0
    return total


# ---------------------------------------------------------------------------
# passes and report


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3, len(values)


def report_line(name, values, unit):
    median, q1, q3, n = summary(values)
    if len(set(values)) == 1:
        median = values[0]  # counts stay integers
    print(f"  {name:32s} {median:14.6g} {unit:6s} [q1 {q1:.6g}, q3 {q3:.6g}] n={n}")
    return {"value": median, "unit": unit}


def run_passes(ops, seed, seconds, trace, env, references):
    """Run passes until the next would overrun; returns (passes, attempted, failed)."""
    # the first passes run whatever the time; a traced run needs one untraced
    # pass for trace.overhead_s and two traced ones to show counts repeat
    kinds = [False, True, True] if trace else [False] * MIN_PASSES
    started = clock()
    passes = []
    longest = 0.0
    attempted = failed = 0
    while True:
        if len(passes) < len(kinds):
            traced = kinds[len(passes)]
        elif clock() + longest > started + seconds:
            break
        else:
            traced = trace and not passes[-1]["traced"]
        pass_start = clock()
        results = []
        for name, config_path in ops:
            op_id = f"p{len(passes)}-{name}"
            result = run_op(op_id, config_path, seed, traced, env, references[name])
            attempted += 1
            failed += bool(result["problems"])
            results.append(result)
        passes.append({"traced": traced, "ops": results})
        longest = max(longest, clock() - pass_start)
    return passes, attempted, failed


def end_to_end(results):
    return {
        "wall_s": sum(r["wall"] for r in results),
        "setup_s": sum(r.get("setup", 0.0) for r in results),
        "run_s": sum(r.get("run", 0.0) for r in results),
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in results),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    needed = [os.path.join(SRC, "rydsag", "cli.py"), CONFIGS, REFERENCE]
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        print(f"perfbench: program not found: {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(REFERENCE, f"{args.workload}.json"), "r", encoding="utf-8") as handle:
        references = json.load(handle)

    env = child_env()
    ops = materialize(args.workload)
    # compile bytecode and warm the file cache before anything is timed
    warm = subprocess.run([sys.executable, "-c", "import rydsag.cli"], env=env)
    if warm.returncode != 0:
        print("perfbench: rydsag.cli does not import", file=sys.stderr)
        return 1
    passes, attempted, failed = run_passes(
        ops, args.seed, args.seconds, bool(args.trace), env, references
    )

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} ops {attempted}")
    correct = failed == 0
    untraced = [end_to_end(p["ops"]) for p in passes if not p["traced"]]
    print("end-to-end (median over untraced passes):")
    end_to_end_metrics = {
        name: report_line(name, [p[name] for p in untraced], unit)
        for name, unit in END_TO_END_UNITS.items()
    }
    print(f"  failed_ratio {failed / attempted} ({failed} of {attempted} ops)")
    metrics = {} if args.trace else end_to_end_metrics
    if args.trace and correct:
        traced = [traced_pass_metrics(p["ops"]) for p in passes if p["traced"]]
        overhead = (
            statistics.median(t["run_s"] for t in traced)
            - statistics.median(u["run_s"] for u in untraced)
        )
        for t in traced:
            t["trace.overhead_s"] = overhead
            t["failed_ratio"] = failed / attempted
        print("per-layer (median over traced passes):")
        for name, unit in per_layer_units().items():
            metrics[name] = report_line(name, [t[name] for t in traced], unit)
        correct = self_check(traced, untraced, overhead) and correct
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_check(traced, untraced, overhead):
    """Self times add up to run_s, and work counts repeat exactly."""
    ok = True
    for t in traced:
        if abs(t["trace.accounted_s"] - t["run_s"]) > 1e-6:
            print(f"self times {t['trace.accounted_s']} != traced run_s {t['run_s']}")
            ok = False
    accounted = statistics.median(t["trace.accounted_s"] for t in traced)
    run_s = statistics.median(u["run_s"] for u in untraced)
    print(
        f"self times account for {accounted:.6g} s against untraced run_s "
        f"{run_s:.6g} s (trace.overhead_s {overhead:.6g} s)"
    )
    counted = [n for n, unit in per_layer_units().items() if unit in ("count", "B")]
    for name in counted:
        if len({t[name] for t in traced}) != 1:
            print(f"work count {name} differs between traced passes")
            ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main())

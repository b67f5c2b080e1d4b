"""Output checks for benchmark operations.

Two parts, both run on every operation:

- Reference outputs.  ``reference/<workload>.json`` holds, for each
  operation, a snapshot of every file it wrote at seed 0: JSON files whole
  and CSV files as header, row count and a fixed sample of rows (every row
  when there are at most ``SAMPLE_ROWS``).  Files whose bytes do not depend
  on the seed are compared at every seed; the others only at seed 0, and at
  any other seed at least one of them must differ from its snapshot, which
  shows that the seed reached the program.  JSON numbers must agree to
  ``JSON_RTOL`` relative, CSV cells to one unit in their ninth significant
  digit.  The manifest's ``wall_time_s``, ``versions`` and ``seed`` are left
  out of the snapshot; ``seed`` is checked against ``--seed`` instead.
- Physics invariants from the acceptance criteria that apply to the
  experiment, checked at any seed.
"""

import json
import math
import os

SAMPLE_ROWS = 512
JSON_RTOL = 1e-9
MANIFEST_VOLATILE = ("wall_time_s", "versions", "seed")
MIN_SUPPRESSION = 4.0


def read_csv(path):
    """(header cells, data lines); lines are split only where needed."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return lines[0].split(","), lines[1:]


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_outputs(out_dir):
    """{file name: parsed content} for every file an operation wrote."""
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            outputs[name] = read_csv(path)
        elif name.endswith(".json"):
            outputs[name] = read_json(path)
        else:
            raise ValueError(f"unexpected output file {name}")
    return outputs


def stable_manifest(manifest):
    return {k: v for k, v in manifest.items() if k not in MANIFEST_VOLATILE}


def snapshot(outputs):
    """The reference form of read_outputs(): CSV files reduced to a sample."""
    files = {}
    for name, content in outputs.items():
        if name == "manifest.json":
            files[name] = {"json": stable_manifest(content)}
        elif name.endswith(".json"):
            files[name] = {"json": content}
        else:
            header, rows = content
            stride = max(1, math.ceil(len(rows) / SAMPLE_ROWS))
            files[name] = {
                "header": header,
                "rows": len(rows),
                "stride": stride,
                "sample": [row.split(",") for row in rows[::stride]],
            }
    return files


def json_mismatch(value, reference, where):
    """First place where two JSON values differ beyond JSON_RTOL, or None."""
    numbers = (int, float)
    if isinstance(reference, dict):
        if not isinstance(value, dict) or sorted(value) != sorted(reference):
            return f"{where}: keys differ"
        for key in reference:
            found = json_mismatch(value[key], reference[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(reference, list):
        if not isinstance(value, list) or len(value) != len(reference):
            return f"{where}: list length differs"
        for i, (v, r) in enumerate(zip(value, reference)):
            found = json_mismatch(v, r, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(reference, numbers) and not isinstance(reference, bool):
        if isinstance(value, bool) or not isinstance(value, numbers):
            return f"{where}: {value!r} is not a number"
        if abs(value - reference) > JSON_RTOL * max(abs(value), abs(reference)):
            return f"{where}: {value!r} != {reference!r}"
        return None
    if value != reference:
        return f"{where}: {value!r} != {reference!r}"
    return None


def cell_matches(value, reference):
    """Equal to one unit in the ninth significant digit of the reference."""
    try:
        v, r = float(value), float(reference)
    except ValueError:
        return value == reference
    if not (math.isfinite(v) and math.isfinite(r)) or r == 0.0:
        return value == reference
    unit = 10.0 ** (math.floor(math.log10(abs(r))) - 8)
    return abs(v - r) <= unit * (1.0 + 1e-9)


def csv_mismatch(content, reference, where):
    header, rows = content
    if header != reference["header"]:
        return f"{where}: header {header} != {reference['header']}"
    if len(rows) != reference["rows"]:
        return f"{where}: {len(rows)} rows, reference has {reference['rows']}"
    stride = reference["stride"]
    for k, expected in enumerate(reference["sample"]):
        row = rows[k * stride].split(",")
        if len(row) != len(expected) or not all(map(cell_matches, row, expected)):
            return f"{where} row {k * stride + 1}: {row} != {expected}"
    return None


def mismatch(name, content, reference):
    if name == "manifest.json":
        return json_mismatch(stable_manifest(content), reference["json"], name)
    if "json" in reference:
        return json_mismatch(content, reference["json"], name)
    return csv_mismatch(content, reference, name)


def against_reference(outputs, reference, seed):
    """Problems found comparing one operation's outputs with its reference."""
    if sorted(outputs) != sorted(reference["files"]):
        return [f"files {sorted(outputs)} != reference {sorted(reference['files'])}"]
    problems = []
    seeded_differs = False
    for name, expected in reference["files"].items():
        found = mismatch(name, outputs[name], expected)
        if name in reference["seeded"]:
            seeded_differs = seeded_differs or found is not None
            if seed != 0:
                continue
        if found:
            problems.append(found)
    if seed != 0 and reference["seeded"] and not seeded_differs:
        problems.append(f"seed {seed} gave the seed-0 outputs of {reference['seeded']}")
    return problems


# ---------------------------------------------------------------------------
# physics invariants (tests/test_acceptance.py criteria)


def column(content, name):
    header, rows = content
    index = header.index(name)
    return [float(row.split(",")[index]) for row in rows]


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def spectrum_invariants(config, out):
    report, csv = out["report.json"], out["spectrum.csv"]
    medium = config["medium"]
    points = config["grid"]["points"]
    yield report["points"] == points == len(csv[1]), "points != grid.points"
    yield min(column(csv, "im_chi")) >= 0.0, "absorption is negative (not passive)"
    if not medium["doppler_enabled"]:
        yield report["kk_residual"] < 2e-2, f"KK residual {report['kk_residual']}"
    if medium["omega_mw"] > 0.0:
        recovered = 2.0 * math.pi * report["at_splitting_hz"]
        yield rel_err(recovered, medium["omega_mw"]) <= 0.05, "AT splitting off drive"


def pointer_invariants(config, out):
    from rydsag.weak_pointer import closed_centroid, closed_icr, closed_p_post

    p = config["pointer"]
    readout = out["readout.json"]
    args = (p["delta_phi"], p["delta_beta"], p["k"], p["w"])
    for key, closed in (
        ("centroid_m", closed_centroid),
        ("eta", closed_icr),
        ("p_post", closed_p_post),
    ):
        yield rel_err(readout[key], closed(*args)) <= 1e-9, f"{key} off closed form"
    yield len(out["profile.csv"][1]) == p["points"], "profile rows != points"


def stabilize_invariants(config, out):
    report = out["report.json"]
    loop = config["loop"]
    samples = round(loop["duration"] * config["pid"]["sample_rate"])
    # criterion 9 asserts a ratio of at least 5 at seed 2; the ratio is a
    # random variable, and seeds 0-299 of configs/stabilize.json give
    # 4.89-7.17, so the bound that holds at every seed is lower
    yield report["ratio"] >= MIN_SUPPRESSION, f"suppression ratio {report['ratio']}"
    yield len(out["timeseries.csv"][1]) == samples, "timeseries rows != samples"


def heterodyne_invariants(config, out):
    for name in ("sensitivity_dispersion.json", "sensitivity_amplitude.json"):
        if name in out:
            e_min = out[name]["e_min_vpercm"]
            first = out[name]["points"][0]["e_vpercm"]
            yield 0.0 < e_min < first, f"{name}: e_min {e_min}"
    if "sensitivity_dispersion.json" in out:
        # criterion 10 fits the default (dispersion) readout only
        slope = out["sensitivity_dispersion.json"]["fit"]["slope"]
        yield abs(slope - 2.0) <= 0.05, f"dispersion fit slope {slope}"
    if "comparison.json" in out:
        c = out["comparison.json"]
        ratio = c["e_min_vpercm_amplitude"] / c["e_min_vpercm_dispersion"]
        yield 2.0 <= ratio <= 5.0, f"scheme ratio {ratio}"


def calibrate_invariants(config, out):
    result = out["calibration.json"]
    horn = config["calibrate"]["horn_factor"]
    yield result["r_squared"] > 0.999, f"r_squared {result['r_squared']}"
    yield rel_err(result["slope"], horn) <= 0.05, f"slope {result['slope']}"


def limits_invariants(config, out):
    report = out["limits.json"]
    phase = 1.0 / math.sqrt(report["photon_number"])
    yield rel_err(report["photon_phase_noise_rad"], phase) <= 1e-9, "shot noise"
    yield 1e14 < report["photon_rate_per_s"] < 1e16, "photon rate"


INVARIANTS = {
    "spectrum": spectrum_invariants,
    "pointer": pointer_invariants,
    "stabilize": stabilize_invariants,
    "heterodyne": heterodyne_invariants,
    "calibrate": calibrate_invariants,
    "limits": limits_invariants,
}


def check_outputs(out_dir, reference, seed):
    """All problems with one operation's outputs; an empty list passes."""
    try:
        outputs = read_outputs(out_dir)
        manifest = outputs["manifest.json"]
        problems = [] if manifest["seed"] == seed else [f"manifest seed != {seed}"]
        problems += against_reference(outputs, reference, seed)
        config = manifest["config"]
        for ok, what in INVARIANTS[config["experiment"]](config, outputs):
            if not ok:
                problems.append(what)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    return problems

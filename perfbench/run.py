#!/usr/bin/env python3
"""Repository benchmark: builds atm_perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload runtime_off --seed 1 --seconds 20 --trace 0

The workloads, metrics, units and directions are declared in BENCHMARK.json;
perfbench/layers.json says which end-to-end metric and workload each
per-layer metric should move. Before building, the script checks those
declarations (unique names, a unit and a direction on every metric, a
mapping for every per-layer metric). After the run it checks that the
program emitted exactly the declared metrics, under the declared units, with
no duplicate JSON key.

Output: one line per metric (name, value, unit, sample count), a `report:`
line with the seed, the host block, the failed operations and the
approximate runs that missed their error bound, and as the
last line the result object {"correct", "attempted", "failed", "metrics"}.
The full report is also written to .bench_out/.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import time

T_START = time.monotonic()
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "atm_perfbench"
RUN_TIMEOUT_S = 175
DIRECTIONS = {"higher", "lower"}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def strict_json(text):
    """json.loads that refuses duplicate object keys."""

    def pairs(items):
        obj = {}
        for key, value in items:
            if key in obj:
                raise BenchError(f"duplicate JSON key {key!r}")
            obj[key] = value
        return obj

    return json.loads(text, object_pairs_hook=pairs)


def load_declarations():
    spec = strict_json((ROOT / "BENCHMARK.json").read_text())
    layers = strict_json((HERE / "layers.json").read_text())
    return spec, layers


def self_check(spec, layers):
    """Fails on a duplicated or missing name, or a metric without unit or direction."""
    problems = []
    workloads = [w.get("name") for w in spec.get("workloads", [])]
    if len(set(workloads)) != len(workloads):
        problems.append("duplicate workload name")
    for w in spec.get("workloads", []):
        if not w.get("why"):
            problems.append(f"workload {w.get('name')!r} has no rationale")
    e2e = spec.get("end_to_end", [])
    per_layer = spec.get("per_layer", [])
    names = [m.get("name") for m in e2e + per_layer]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        problems.append(f"duplicate metric names {dupes}")
    for m in e2e + per_layer:
        if not m.get("name"):
            problems.append("metric without a name")
        if not m.get("unit"):
            problems.append(f"metric {m.get('name')!r} has no unit")
        if m.get("better") not in DIRECTIONS:
            problems.append(f"metric {m.get('name')!r} has no direction")
    for m in e2e:
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append(f"metric {m.get('name')!r} has no bound in (0, 0.25]")
    if "setup_s" not in names:
        problems.append("setup_s is missing")
    e2e_names = {m.get("name") for m in e2e}
    layer_names = {m.get("name") for m in per_layer}
    mapped = set(layers)
    for name in sorted(layer_names - mapped):
        problems.append(f"per-layer metric {name!r} has no entry in layers.json")
    for name in sorted(mapped - layer_names):
        problems.append(f"layers.json names {name!r}, which BENCHMARK.json does not declare")
    for name, entry in layers.items():
        moves = entry.get("moves")
        where = entry.get("workloads", [])
        # An empty list states that no end-to-end metric is expected to move.
        if not isinstance(moves, list) or any(m not in e2e_names for m in moves):
            problems.append(f"layers.json {name!r}: 'moves' must list end-to-end metrics")
        if not where or any(w not in workloads for w in where):
            problems.append(f"layers.json {name!r}: 'workloads' must name workloads")
    if problems:
        raise BenchError("BENCHMARK.json self-check failed: " + "; ".join(problems))


def run_quiet(cmd, **kwargs):
    """Runs a build step, sending its output to stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited with {proc.returncode}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"repository sources not found under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", "atm_perfbench",
               "-j", jobs])


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_times():
    """The aggregate cpu line of /proc/stat (user ... steal), or None."""
    try:
        return [int(x) for x in pathlib.Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec, layers = load_declarations()
    self_check(spec, layers)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads}")

    build()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(OUT_DIR / f"{stem}.spans.json")]
    cpu_before = cpu_times()
    remaining = RUN_TIMEOUT_S - (time.monotonic() - T_START)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        raise BenchError(f"atm_perfbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"atm_perfbench exited with {proc.returncode}")
    report = strict_json(proc.stdout)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    emitted = report["metrics"]
    missing = sorted(set(units) - set(emitted))
    extra = sorted(set(emitted) - set(units))
    if missing or extra:
        raise BenchError(f"emitted metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    for name, m in emitted.items():
        if m["unit"] != units[name]:
            raise BenchError(f"{name}: emitted unit {m['unit']!r}, declared {units[name]!r}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise BenchError(f"{name}: no finite value")

    cpu_after = cpu_times()
    host = report["host"]
    if cpu_before and cpu_after:
        # CPU time the hypervisor gave to other guests while the run lasted:
        # a run with a high share is suspect, whatever its figures.
        delta = [b - a for a, b in zip(cpu_before, cpu_after)]
        host["steal_pct"] = round(100.0 * delta[7] / max(1, sum(delta)), 2)
    host["cpu_model"] = cpu_model()
    host["git_sha"] = git_sha()
    host["release"] = host["build_type"] == "Release" and host["ndebug"]
    if not host["release"]:
        log(f"WARNING: not a Release build ({host['build_type']}); timings are not comparable")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for m in declared:
        e = emitted[m["name"]]
        print(f"{m['name']:<44} {e['value']:>16.6g} {e['unit']:<6} n={e['n']}")
    summary = {k: report[k] for k in ("workload", "seed", "seconds", "measured_s", "trace",
                                      "rounds", "rounds_kept", "kept_steal_max",
                                      "attempted", "failed", "approx_misses", "failures", "host")}
    print("report: " + json.dumps(summary))
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": emitted[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"error: {err}")
        sys.exit(1)

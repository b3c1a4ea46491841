#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark from source (CMake + Ninja, the
repository's default RelWithDebInfo configuration with EMU_ANALYSIS and
EMU_TRACE on) into .bench_build/e2ebench, runs one workload and prints a
human-readable report followed, as the last line of standard output, by one
JSON object with the keys correct, attempted, failed and metrics.

setup_s (and, traced, setup.build_s and setup.warm_s) is the median over
SETUP_PROCESSES fresh processes of each one's single cold set-up: the timed
run itself and SETUP_PROCESSES - 1 set-up-only runs of the same seed. Set-ups
during which the hypervisor stole CPU time from this host are left out while
at least MIN_CLEAN_SETUPS others remain.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from the untraced
binary. --trace 1 runs the untraced binary and then the traced one (profiler,
runner pulse and heap hooks attached), reports the per-layer metrics, and
writes every value with its unit, direction, the end-to-end metric it should
move, and the metrics the workload cannot report to
.bench_out/trace_<workload>_seed<N>.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
OUT_DIR = ".bench_out"
WORKLOADS = ("switch_line_rate", "memcached_cluster", "chain_pipeline")
SPEC = os.path.join("specs", "chain_soak.spec")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
SETUP_PROCESSES = 15
MIN_CLEAN_SETUPS = 5
SETUP_KEYS = ("setup_s", "setup.build_s", "setup.warm_s")


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets Ninja decide what is stale."""
    for tool in ("cmake", "ninja"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DEMU_ANALYSIS=ON", "-DEMU_TRACE=ON"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "e2ebench", "e2ebench_traced"]
    remaining = max(1.0, deadline - time.monotonic())
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=remaining).returncode != 0:
        fail("build failed", 1)


def run_binary(name, args, timeout):
    cmd = [os.path.join(BUILD_DIR, name)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {timeout:.0f} s", 1)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        fail(f"{name} printed no result (exit {proc.returncode})", 1)
    result = json.loads(lines[-1])
    for line in result.get("failures", []):
        print(f"  failure: {line}", file=sys.stderr)
    return result


def unavailable_reason(name, reasons):
    """The reason given for the longest prefix of `name`, or None."""
    matches = [prefix for prefix in reasons if name.startswith(prefix)]
    return reasons[max(matches, key=len)] if matches else None


def metadata(result, args):
    keys = ("workload", "seed", "seconds", "threads", "nproc", "compiler", "build_type",
            "emu_analysis", "emu_trace")
    meta = {k: result[k] for k in keys}
    meta["trace"] = args.trace
    return meta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # Everything is relative to the repository root: the library sources,
    # the chain spec and BENCHMARK.json must all be there.
    for needed in ("BENCHMARK.json", os.path.join("src", "CMakeLists.txt"), SPEC):
        if not os.path.isfile(needed):
            fail(f"run from the repository root: {needed} not found")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "layer_map.json")) as f:
        layer_map = json.load(f)

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--spec", SPEC]
    started = time.monotonic()
    untraced = run_binary("e2ebench", common + ["--seconds", repr(args.seconds)], RUN_TIMEOUT_S)
    setups = [untraced]
    for _ in range(SETUP_PROCESSES - 1):
        setups.append(run_binary("e2ebench", common + ["--setup-only"], RUN_TIMEOUT_S))
    clean = [s for s in setups if s["setup_stolen_s"] == 0]
    used = clean if len(clean) >= MIN_CLEAN_SETUPS else setups
    setup = {key: statistics.median([s[key] for s in used]) for key in SETUP_KEYS}
    meta = metadata(untraced, args)
    print("# e2ebench " + json.dumps(meta))
    print(f"# ops: attempted {untraced['attempted']}, completed {untraced['completed']}, "
          f"failed {untraced['failed']}, generator late {untraced['late']}, "
          f"digest {untraced['digest']}, {untraced['windows_kept']} of {untraced['windows']} "
          f"windows free of host steal, "
          f"{len(used)} of {len(setups)} cold set-ups free of host steal, {untraced['rtt_samples']} RTT samples")

    if args.trace == 0:
        specs = bench["end_to_end"]
        values = {m["name"]: setup[m["name"]] if m["name"] in setup else untraced[m["name"]]
                  for m in specs}
        attempted, failed = untraced["attempted"], untraced["failed"]
        correct = untraced["correct"]
        print(f"  {'ops_attempted':<16} {attempted:>20} count")
        print(f"  {'ops_failed':<16} {failed:>20} count (lower is better)")
    else:
        budget = max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started))
        traced = run_binary("e2ebench_traced",
                            common + ["--seconds", repr(args.seconds), "--profile"], budget)
        specs = bench["per_layer"]
        layers = dict(traced["layers"])
        layers.update(setup)
        for key in ("host.cpu_s", "host.cpu_util", "host.ctx_switches"):
            layers[key] = untraced[key]
        layers["obs.trace_overhead"] = (untraced["ops_per_s"] / traced["ops_per_s"] - 1
                                        if traced["ops_per_s"] > 0 else 0.0)
        unavailable = {}
        for m in specs:
            if m["name"] not in layers:
                unavailable[m["name"]] = (unavailable_reason(m["name"], traced["unavailable"])
                                          or "not produced by this workload's observers")
        values = {m["name"]: (0.0 if m["name"] in unavailable else layers[m["name"]])
                  for m in specs}
        attempted, failed = traced["attempted"], traced["failed"]
        correct = untraced["correct"] and traced["correct"]
        artifact = {
            "meta": meta,
            "workload": layer_map["workloads"][args.workload],
            "predictions": layer_map["predictions"],
            "metrics": {m["name"]: {
                "value": None if m["name"] in unavailable else values[m["name"]],
                "unit": m["unit"], "better": m["better"],
                **layer_map["layers"].get(m["name"], {})} for m in specs},
            "unavailable": unavailable,
            "setups": setups[1:],
            "untraced": untraced,
            "traced": traced,
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(artifact, f, indent=1, sort_keys=True)
        print(f"# per-layer artifact: {path}")
        for name, why in sorted(unavailable.items()):
            print(f"# not reported: {name}: {why}")

    for m in specs:
        shown = "n/a" if args.trace == 1 and m["name"] in unavailable else f"{values[m['name']]:.6g}"
        print(f"  {m['name']:<36} {shown:>20} {m['unit']} ({m['better']} is better)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

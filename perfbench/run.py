#!/usr/bin/env python3
"""The repository benchmark: builds routesim from source, runs one workload
(or all of them) and prints every metric with its unit and sample count.

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                       # every workload, untraced then traced

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_cells", "fault_topology_grid", "serve_mix"]
# A run takes --seconds plus its set-up, probes and checks.
RUN_OVERHEAD_S = 140


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build(build_dir):
    """Configures (once) and builds the benchmark package; returns its dir.
    A build directory configured beforehand keeps its own settings."""
    if not os.path.isfile(os.path.join(ROOT, "src", "routesim.hpp")) or not os.path.isfile(
        os.path.join(ROOT, "tools", "routesim_serve.cpp")
    ):
        log("perfbench: routesim sources (src/, tools/) not found next to perfbench/")
        sys.exit(2)
    binary_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"]
        configure += ["-G", "Ninja"] if shutil.which("ninja") else []
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(3)
    jobs = str(min(4, nproc()))
    if subprocess.run(["cmake", "--build", binary_dir, "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(3)
    return binary_dir


def fingerprint(binary_dir):
    """Machine and build fingerprint; exits when the build must not be timed."""
    cache = {}
    with open(os.path.join(binary_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    version = ""
    for entry in sorted(os.listdir(os.path.join(binary_dir, "CMakeFiles"))):
        path = os.path.join(binary_dir, "CMakeFiles", entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                for line in f:
                    if line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                        version = line.split('"')[1]
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            try:
                fields = [open(os.path.join(base, index, n)).read().strip() for n in ("level", "type", "size")]
                caches.append("L%s %s %s" % tuple(fields))
            except OSError:
                pass
    flags = " ".join(
        x for x in (cache.get("CMAKE_CXX_FLAGS", ""), cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x
    )
    # The package has no sanitizer or kernel-trace option; only flags passed
    # in by hand at configure time could turn either on.
    info = {
        "nproc": nproc(),
        "caches": caches,
        "compiler": "%s %s" % (cache.get("CMAKE_CXX_COMPILER", "?"), version),
        "flags": flags,
        "build_type": build_type,
        "ROUTESIM_SANITIZE": "OFF (fixed by the package)",
        "ROUTESIM_KERNEL_TRACE": "OFF (fixed by the package)",
    }
    refusals = []
    if build_type in ("", "Debug"):
        refusals.append("build type '%s' is not optimised" % build_type)
    if "-fsanitize" in flags:
        refusals.append("sanitizer build")
    if "-DROUTESIM_KERNEL_TRACE" in flags:
        refusals.append("kernel-trace build")
    if refusals:
        log("perfbench: refusing to report timings: " + "; ".join(refusals))
        sys.exit(4)
    return info


def binaries_hash(binary_dir):
    digest = hashlib.sha256()
    for name in ("perfbench", "routesim_serve"):
        with open(os.path.join(binary_dir, name), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def check_ledger(build_dir, key, raw, failures):
    """Digest and count.* must repeat exactly for one seed and one build,
    traced or untraced; drift is nondeterminism, not noise."""
    path = os.path.join(build_dir, "ledger.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as f:
            ledger = json.load(f)
    counts = {k: v["value"] for k, v in raw["metrics"].items() if k.startswith("count.")}
    entry = {"digest": raw["digest"], "counts": counts}
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = entry
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return
    if previous["digest"] != entry["digest"]:
        failures.append("result digest %s differs from an earlier run's %s" % (entry["digest"], previous["digest"]))
    for name, value in counts.items():
        if previous["counts"].get(name) != value:
            failures.append("%s = %s differs from an earlier run's %s (nondeterminism)"
                            % (name, value, previous["counts"].get(name)))


def run_workload(binary_dir, build_dir, workload, seed, seconds, trace):
    work_dir = os.path.relpath(
        os.path.join(build_dir, "work", "%s-s%d-t%d" % (workload, seed, trace)), os.getcwd()
    )
    command = [
        os.path.join(binary_dir, "perfbench"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work_dir,
        "--serve-bin", os.path.join(binary_dir, "routesim_serve"),
    ]
    # Its own session, so a timeout also stops the serve daemon it started.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timeout = seconds + RUN_OVERHEAD_S
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s did not finish within %d s, so it has no result to check" % (workload, timeout))
        return None
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log("perfbench: %s printed no result (exit %d)" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def report(raw, wanted, failures, finger):
    """Prints the human-readable table; returns the selected metrics."""
    print("== %s  seed=%d  trace=%d  pool_width=%d  digest=%s"
          % (raw["workload"], raw["seed"], raw["trace"], raw["pool_width"], raw["digest"]))
    print("   build: %s | %s | %s | sanitize=%s kernel_trace=%s"
          % (finger["compiler"], finger["build_type"], finger["flags"],
             finger["ROUTESIM_SANITIZE"], finger["ROUTESIM_KERNEL_TRACE"]))
    print("   machine: nproc=%d | %s" % (finger["nproc"], ", ".join(finger["caches"])))
    selected = {}
    for name in wanted:
        metric = raw["metrics"].get(name)
        if metric is None or metric["value"] is None:
            failures.append("metric %s missing or not finite" % name)
            continue
        selected[name] = {"value": metric["value"], "unit": metric["unit"]}
        print("   %-42s %16.6g %-6s n=%d" % (name, metric["value"], metric["unit"], metric["samples"]))
    attempted = max(1, raw["attempted"])
    print("   %-42s %16.6g %-6s n=%d" % ("failed_frac", raw["failed"] / attempted, "ratio", attempted))
    for failure in raw["failures"] + failures:
        print("   FAIL: " + failure)
    return selected


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--build-dir", default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, args.build_dir) if not os.path.isabs(args.build_dir) else args.build_dir
    binary_dir = build(build_dir)
    finger = fingerprint(binary_dir)
    build_hash = binaries_hash(binary_dir)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else [0, 1]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for trace in traces:
        wanted = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
        for workload in workloads:
            raw = run_workload(binary_dir, build_dir, workload, args.seed, args.seconds, trace)
            if raw is None:
                correct, attempted, failed = False, attempted + 1, failed + 1
                continue
            failures = []
            check_ledger(build_dir, "%s:%d:%s" % (workload, args.seed, build_hash), raw, failures)
            selected = report(raw, wanted, failures, finger)
            attempted += raw["attempted"]
            failed += raw["failed"] + len(failures)
            correct = correct and raw["failed"] == 0 and not failures
            if len(workloads) == 1 and len(traces) == 1:
                metrics = selected
            else:
                metrics.update({"%s/%s" % (workload, k): v for k, v in selected.items()})
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

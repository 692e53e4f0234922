#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 ilqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 ilqbench/run.py --selftest

Configures ilqbench/ as its own CMake project (Release) in .bench_build/ilqbench
under the source root, builds the ilqbench binary (a no-op when it is up to
date; build output goes to stderr) and runs it. Run outputs go to .ilqbench/
under the source root.

The binary's last output line is its result. run.py holds it against
BENCHMARK.json: every metric must be one the manifest lists, in its unit,
and an untraced run must report every end-to-end metric. A traced run
reports the per-layer metrics its workload measures; run.py adds the
manifest's other per-layer metrics as 0 and prints their names. A result that does
not hold makes run.py exit 1 without printing it.
"""
import json
import os
import shutil
import signal
import subprocess
import sys


def build(root, here):
    build_dir = os.path.join(root, ".bench_build", "ilqbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(
        ["cmake", "--build", build_dir, "--target", "ilqbench", "-j", jobs],
        stdout=sys.stderr,
    ) != 0:
        return None
    return os.path.join(build_dir, "ilqbench")


def run(binary, args):
    """Runs the binary, echoing its output; returns (exit code, last line)."""
    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    last = ""
    for line in child.stdout:
        if last:
            sys.stdout.write(last)
        last = line
    return child.wait(), last


def complete(result, manifest, traced):
    """Checks the result against the manifest and fills in the per-layer
    metrics the workload does not measure; returns an error message or None."""
    listed = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if traced:
        listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    metrics = result.get("metrics", {})
    for name, metric in metrics.items():
        if listed.get(name) != metric.get("unit"):
            return "metric %s (%s) is not in BENCHMARK.json with that unit" % (
                name, metric.get("unit"))
    missing = [name for name in listed if name not in metrics]
    if missing and not traced:
        return "end-to-end metrics missing: " + ", ".join(missing)
    for name in missing:
        metrics[name] = {"value": 0, "unit": listed[name]}
    if missing:
        print("not measured on this workload (reported as 0): " + ", ".join(missing))
    result["metrics"] = {name: metrics[name] for name in listed}
    return None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(root, "src", "CMakeLists.txt")
    ):
        sys.stderr.write("ilqbench: no library sources under %s\n" % root)
        return 1
    binary = build(root, here)
    if binary is None:
        return 1
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.stdout.flush()
        return subprocess.call([binary] + args)
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(root, ".ilqbench")]
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    sys.stdout.flush()
    code, last = run(binary, args)
    if code != 0:
        if last:
            sys.stdout.write(last)
        return code
    result = json.loads(last)
    error = complete(result, manifest, "--trace" in args and
                     args[args.index("--trace") + 1] == "1")
    if error:
        sys.stderr.write("ilqbench: %s\n" % error)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

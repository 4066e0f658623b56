#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (a CMake
package that compiles the airshed libraries from this source tree, in
Release) under $CARGO_TARGET_DIR or .bench_build/, then runs the perfbench binary.
The binary's lines are relayed; its last line, one JSON object with
correct/attempted/failed/metrics, stays the last line of stdout. Each run's
full record (provenance, arguments, metrics) is appended to
<build dir>/perfbench/results/results.jsonl, or to $PERFBENCH_RESULTS.

Exit codes: 0 ok, 1 a correctness check failed, 2 the sources or the build
are missing or broken.
"""
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once, Release) and builds the perfbench binary; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no airshed sources under {ROOT} (src/CMakeLists.txt missing)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(cfg, stdout=log, stderr=log) != 0:
                die(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            die(f"build failed, see {log_path}")
    return os.path.join(bdir, "perfbench")


def cmake_cache(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """SHA-256 over the tracked-by-convention sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_info():
    model, flags = platform.processor() or "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags" and not flags:
                    wanted = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vl")
                    flags = [x for x in value.split() if x in wanted]
    except OSError:
        pass
    return model, flags


def provenance(bdir, args, run_index):
    cache = cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                   cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    optimized = any(f in flags.split() for f in ("-O2", "-O3", "-Os"))
    # Only this tree's own repository counts, not one that encloses it.
    top = git("rev-parse", "--show-toplevel")
    own = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = git("rev-parse", "HEAD") if own else None
    status = git("status", "--porcelain") if commit else None
    model, isa = cpu_info()
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": bool(status) if commit else None,
        "source_digest": source_digest(),
        "build_type": build_type,
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "cxx_flags": flags,
        "optimized": optimized,
        "cpu_model": model,
        "isa_flags": isa,
        "nproc": os.cpu_count(),
        "workload": args["workload"],
        "seed": args["seed"],
        "seconds": args["seconds"],
        "trace": args["trace"],
        "run_index": run_index,
    }


def parse_args(argv):
    args = {"workload": None, "seed": None, "seconds": None, "trace": None}
    extra = []
    i = 0
    while i < len(argv):
        key = argv[i][2:] if argv[i].startswith("--") else None
        if key in args and i + 1 < len(argv):
            args[key] = argv[i + 1]
            i += 2
        else:
            extra.append(argv[i])
            i += 1
    missing = [k for k, v in args.items() if v is None]
    if missing:
        die("missing --" + ", --".join(missing))
    return args, extra


def main():
    args, extra = parse_args(sys.argv[1:])
    bdir = build_dir()
    exe = build(bdir)
    results = os.environ.get("PERFBENCH_RESULTS") or os.path.join(bdir, "results", "results.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(results)), exist_ok=True)
    run_index = 0
    if os.path.exists(results):
        with open(results) as f:
            run_index = sum(1 for _ in f)
    prov = provenance(bdir, args, run_index)
    if not prov["optimized"]:
        print(f"WARNING: measuring an unoptimized build ({prov['build_type'] or 'no build type'})")

    work = os.path.join(bdir, "work", str(os.getpid()))
    cmd = [exe, "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"],
           "--work-dir", work, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("perfbench binary exceeded 170 s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        final = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        die(f"perfbench binary exited {proc.returncode} without a result line")
    print("\n".join(lines[:-1]))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    with open(results, "a") as f:
        f.write(json.dumps({"provenance": prov, "result": final}, sort_keys=True) + "\n")
    print(json.dumps(final), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

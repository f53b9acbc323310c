#!/usr/bin/env python3
"""The repository benchmark: build perfbench and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <old records> <new records>
    python3 perfbench/run.py selftest

Run from the repository root. The first run configures and builds the
benchmark (with the library from ../src) into .bench_build/. Each run
prints every metric with its unit and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. It also writes a
full record (all metrics, failed checks, host stamp) to
.bench_build/results/, and a traced run writes its spans to
.bench_build/spans/. `compare` sets two sets of records side by side and
refuses to compare records taken on hosts with a different CPU count or
build type. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-sweep", "fleet-scaleout", "fleet-control")
DEFAULT_SEED = 1
# Not used while the benchmark was tuned; kept for confirming later claims.
HELD_OUT_SEED = 20161

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Stamp fields that must agree before two records may be compared.
COMPARABLE = ("nproc", "build_type")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return BUILD / target


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_stamp():
    """git sha when the checkout is a git repository, and always a digest
    of the library sources (the benchmark may run from a plain copy)."""
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def run(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary = build("perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = BUILD / "results" / f"{tag}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", str(record)]
    if args.trace:
        spans = BUILD / "spans" / f"{tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}", 1)

    result = json.loads(record.read_text())
    sha, digest = source_stamp()
    result["stamp"].update({"cpu_model": cpu_model(), "git_sha": sha, "src_digest": digest})
    record.write_text(json.dumps(result, indent=1) + "\n")
    stamp = result["stamp"]
    print(f"stamp: {stamp['cpu_model']}, git {sha or 'n/a'}, src {digest}, record {record}")
    sys.stdout.write(done.stdout)
    return 0


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    if not records:
        raise ValueError(f"no records in {path}")
    return records


def comparable(old, new):
    """None when every record shares the COMPARABLE stamp fields, else
    the reason the comparison is refused."""
    stamps = {tuple(r["stamp"].get(k) for k in COMPARABLE) for r in old + new}
    if len(stamps) > 1:
        listed = "; ".join(", ".join(f"{k}={v}" for k, v in zip(COMPARABLE, s))
                           for s in sorted(stamps, key=str))
        return f"records come from different hosts or builds ({listed})"
    return None


def medians(records):
    """{(workload, trace, metric): (median, unit)} over the records."""
    values = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            values.setdefault(key, ([], m["unit"]))[0].append(m["value"])
    return {k: (statistics.median(v), unit) for k, (v, unit) in values.items()}


def compare(old_path, new_path):
    old, new = load_records(old_path), load_records(new_path)
    reason = comparable(old, new)
    if reason:
        fail(f"refusing to compare: {reason}", 3)
    a, b = medians(old), medians(new)
    print(f"{'workload':16} {'metric':28} {'old':>12} {'new':>12} {'change':>8}")
    for key in sorted(a.keys() & b.keys()):
        (va, unit), (vb, _) = a[key], b[key]
        change = f"{(vb / va - 1) * 100:+.1f}%" if va else "n/a"
        print(f"{key[0]:16} {key[2]:28} {va:12.5g} {vb:12.5g} {change:>8} {unit}")
    return 0


def selftest():
    binary = build("perfbench_selftest")
    code = subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run"],
                           cwd=BENCH_DIR, timeout=RUN_TIMEOUT_S).returncode
    return code or tests


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare <old records> <new records>")
        return compare(argv[1], argv[2])
    if argv[:1] == ["selftest"]:
        return selftest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run of one workload, as the benchmark contract asks:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

prints every metric by name with its unit, the error rate and the
host/build fingerprint, then as its last line one JSON object with
exactly the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. `--workload all` runs every workload in turn.

    python3 perfbench/run.py ... --out result.json
    python3 perfbench/run.py --compare a.json b.json

--out keeps the full record (fingerprint included); --compare prints
two records side by side and refuses when they were measured on
different hosts, builds or benchmark code.

Run it from the root of a checkout. The binary is built from the
checkout's own sources into $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then (re)build the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no DHDL sources (src/) next to perfbench/; run from a "
             "full checkout")
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def digest(paths):
    h = hashlib.sha256()
    for base in paths:
        for f in sorted(p for p in base.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # An exported checkout; never look above it.
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


# Fingerprint fields two results must share to be compared. The code
# under test (commit, source digest) is what a comparison varies.
COMPARABLE = ("nproc", "cpu", "compiler", "build_type", "dhdl_native",
              "bench_digest")


def fingerprint(host):
    fp = dict(host)
    fp["bench_digest"] = digest([HERE])
    fp["source_digest"] = digest([ROOT / "src"])
    fp["git_commit"] = git_commit()
    return fp


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload} exited {r.returncode} without a result", 3)
    return json.loads(lines[-1])


def expected_metrics(trace):
    s = spec()
    return s["per_layer"] if trace else s["end_to_end"]


def check_metrics(raw, trace):
    """Names or units that differ from BENCHMARK.json; [] when none."""
    problems = []
    for m in expected_metrics(trace):
        got = raw["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
    return problems


def contract_line(raw, trace):
    metrics = {m["name"]: raw["metrics"][m["name"]]
               for m in expected_metrics(trace)}
    return {"correct": bool(raw["correct"]) and raw["failed"] == 0,
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def report(workload, raw, fp):
    print(f"== {workload}  ({fp['nproc']} cpus, {fp['cpu']}, "
          f"{fp['compiler']} {fp['build_type']}, "
          f"native={fp['dhdl_native']}, commit={fp['git_commit']}, "
          f"src={fp['source_digest']})")
    for name, m in raw["metrics"].items():
        print(f"  {name:32s} {m['value']:16.6g} {m['unit']}")
    rate = raw["failed"] / max(1, raw["attempted"])
    print(f"  {'error_rate':32s} {rate:16.6g} frac "
          f"({raw['failed']} of {raw['attempted']} checked operations)")
    for why in raw.get("failures", []):
        print(f"  FAILED: {why}")


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    diff = [k for k in COMPARABLE
            if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        for k in diff:
            print(f"  {k}: {a['fingerprint'].get(k)!r} != "
                  f"{b['fingerprint'].get(k)!r}", file=sys.stderr)
        fail("refusing to compare results whose fingerprints differ", 1)
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        fail("refusing to compare different workloads or trace modes", 1)
    def code(r):
        fp = r["fingerprint"]
        return fp["git_commit"] or f"src {fp['source_digest']}"

    print(f"{a['workload']}: {code(a)} -> {code(b)}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:32s} {ma['value']:14.6g} {mb['value']:14.6g} "
              f"{ratio:8.3f}x {ma['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    if args.workload == "all":
        workloads = names
    elif args.workload in names:
        workloads = [args.workload]
    else:
        fail(f"--workload must be one of {names} or all")
    seconds = args.seconds if args.seconds else s["run_seconds"]

    binary = build()
    lines, records = {}, {}
    for w in workloads:
        raw = run_binary(binary, w, args.seed, seconds, args.trace)
        problems = check_metrics(raw, args.trace)
        if problems:
            fail(f"{w}: " + "; ".join(problems), 3)
        fp = fingerprint(raw["host"])
        fp.update(raw["build"])
        report(w, raw, fp)
        lines[w] = contract_line(raw, args.trace)
        records[w] = {"workload": w, "seed": args.seed, "seconds": seconds,
                      "trace": args.trace, "fingerprint": fp,
                      "result": lines[w]}
    if args.out:
        out = records[workloads[0]] if len(workloads) == 1 else records
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    last = lines[workloads[0]] if len(workloads) == 1 else lines
    print(json.dumps(last), flush=True)


if __name__ == "__main__":
    main()

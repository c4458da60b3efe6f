#!/usr/bin/env python3
"""ADCMiner benchmark: build, run one workload, check its output, report.

Run from the repository root:

    python3 perfbench/run.py --workload adult-f1-enum --seed 7 --seconds 30 --trace 0

The first call compiles the miner's sources together with the benchmark
(sbt, into .bench_build/); later calls reuse the build while the sources are
unchanged. The workload then runs in one JVM with one local SparkSession.
Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. The full result,
with the environment record and the spans of a traced run, is written to
.bench_build/perfbench/results/. The exit code is 0 only when every run
returned the expected DC set.
"""

import argparse
import hashlib
import json
import os
import selectors
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
MINER_SOURCES = os.path.join(ROOT, "src", "main", "scala")
RESULT_PREFIX = "PERFBENCH_RESULT "
DEFAULT_DATA_SEED = 7
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Have the kernel kill a child process when this script exits."""
    import ctypes
    import signal
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(BENCH, "src", "main"), MINER_SOURCES]
    files = [os.path.join(BENCH, f) for f in ("build.sbt", "jvm.opts", "project/build.properties")]
    for r in roots:
        for d, _, fs in os.walk(r):
            files += [os.path.join(d, f) for f in fs]
    return sorted(files)


def build():
    """Compile with sbt when the sources changed; return the classpath."""
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    stamp_file = os.path.join(WORK, "build.stamp")
    cp_file = os.path.join(WORK, "classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    os.makedirs(WORK, exist_ok=True)
    t0 = time.time()
    try:
        p = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
            cwd=BENCH, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S, preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")
    lines = [l for l in p.stdout.splitlines() if "perfbench-target" in l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(p.stdout)
        fail("build printed no classpath")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    print(f"[perfbench] built in {time.time() - t0:.1f} s", file=sys.stderr)
    return cp


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_jvm(cp, args):
    """Run the workload JVM; echo its lines and return the parsed result."""
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    with open(os.path.join(BENCH, "jvm.opts")) as fh:
        jvm_opts = [l.strip() for l in fh if l.strip()]
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, "-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", f"-Djava.io.tmpdir={tmp}", *jvm_opts, "-cp", cp, "perfbench.Main",
           *args, "--work-dir", WORK, "--commit", git_commit()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    result = None
    deadline = time.time() + RUN_TIMEOUT_S
    try:
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            if time.time() > deadline:
                raise TimeoutError
            if not sel.select(timeout=1.0):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(RESULT_PREFIX):
                result = json.loads(line[len(RESULT_PREFIX):])
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        proc.wait(timeout=max(1.0, deadline - time.time()))
    except (TimeoutError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or result is None:
        fail(f"workload JVM exited with code {proc.returncode}", 3)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42,
                    help="shuffles the relation's row order and seeds the sample")
    ap.add_argument("--data-seed", type=int, default=DEFAULT_DATA_SEED,
                    help="seed of the relation's content")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="store this run's DC set as the expected one for the seed")
    a = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(MINER_SOURCES, "repro", "core", "AdcMiner.scala")):
        fail(f"miner sources not found under {MINER_SOURCES}; run from a full checkout")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at the repository root")
    with open(bench_json) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")

    cp = build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--data-seed", str(a.data_seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    r = run_jvm(cp, args)

    errors = list(r["errors"])
    outcome = {"dcs": r["dcs"], "sha256": r["dc_sha256"], "nodes": r["nodes"]}
    expected_file = os.path.join(BENCH, "expected.json")
    with open(expected_file) as fh:
        expected = json.load(fh)
    pinned = a.data_seed == DEFAULT_DATA_SEED
    if pinned and a.record_expected:
        expected.setdefault(a.workload, {})[str(a.seed)] = outcome
        with open(expected_file, "w") as fh:
            json.dump(expected, fh, indent=2, sort_keys=True)
            fh.write("\n")
    # An entry under "*" holds for every seed. It suits a workload that does
    # not sample, where the seed only reorders rows: that changes neither the
    # evidence nor the DC set, but may change the order ADCEnum visits
    # classes in, so such an entry pins no node count.
    per_workload = expected.get(a.workload, {}) if pinned else {}
    exp = per_workload.get(str(a.seed), per_workload.get("*"))
    failed = r["failed"]
    if exp is not None and any(outcome[k] != v for k, v in exp.items()):
        errors.append(f"expected {exp}, got {outcome}")
        failed = r["attempted"]
    for m in wanted:
        got = r["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} missing or not in {m['unit']}: {got}")
    metrics = {m["name"]: r["metrics"][m["name"]] for m in wanted if m["name"] in r["metrics"]}
    correct = not errors and failed == 0

    r.update(correct=correct, failed=failed, errors=errors, expected=exp)
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}.json"), "w") as fh:
        json.dump(r, fh, indent=1)
    for e in errors:
        print(f"[perfbench] ERROR {e}")
    print(f"[perfbench] environment {json.dumps(r['env'])}")
    print(f"[perfbench] output gate: {'pinned ' + str(exp) if exp else 'not pinned for this seed'}")
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

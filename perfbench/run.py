#!/usr/bin/env python3
"""Repository benchmark: builds the program and the benchmark from source with
sbt, then runs one workload in a fresh JVM.

Run from the repository root:

    python3 perfbench/run.py --workload em_pipeline --seed 1 --seconds 5 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Build output goes to stderr; build
products, span files and per-job scores go to `.bench_build/`.
"""
import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

WORKLOADS = ("em_pipeline", "lf_iterate")
DEFAULT_SEED = 1  # the held-out seed, never used while tuning, is 20231
RUN_LIMIT_S = 170      # every run, build included, ends well inside 180 s
BUILD_LIMIT_S = 840
DRIVER_HEAP = "2g"

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build"

# Sources whose change means the classpath must be rebuilt.
BUILD_INPUTS = ("build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties",
                "perfbench/src", "perfbench/resources")

# Module opens Spark needs on Java 17 (as Spark's own launcher passes them).
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        p = ROOT / rel
        files = sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build(deadline_s):
    """Compiles program + benchmark once per source state; returns the classpath."""
    stamp_file, cp_file = WORK / "build.stamp", WORK / "classpath.txt"
    stamp = source_stamp()
    if stamp_file.exists() and cp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", " ".join([
        "-Dsbt.override.build.repos=true",
        f"-Dsbt.repository.config={pathlib.Path.home() / '.sbt' / 'repositories'}",
        "-Dsbt.offline=true", "-Xmx2g"]))
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Djava.io.tmpdir={WORK / 'tmp'}", "writeClasspath"]
    try:
        subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=deadline_s)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    cp = (BENCH / "target" / "runtime-classpath.txt").read_text().strip()
    cp_file.write_text(cp)
    stamp_file.write_text(stamp)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail("run from the repository root: the program's build.sbt and src/main/scala are missing")
    for d in ("tmp", "spark-local"):
        (WORK / d).mkdir(parents=True, exist_ok=True)

    cp = build(BUILD_LIMIT_S)
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", "-XX:+IgnoreUnrecognizedVMOptions",
           *JAVA_OPENS, "-Djdk.reflect.useDirectMethodHandle=false",
           "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Djava.io.tmpdir={WORK / 'tmp'}", "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK), "--expected", str(BENCH / "expected_quality.tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()

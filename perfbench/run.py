#!/usr/bin/env python3
"""Benchmark entry point for the online tuning service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload session --seed 1 --seconds 15 --trace 0

It builds the library and the harness from the checkout's sources with sbt
(once per source state; the classpath is cached under .bench_build/), then
starts one JVM that runs the workload and prints, as its last line, the
result object {"correct", "attempted", "failed", "metrics"}. The line before
it is an "info" object with the run environment, sizes, quality figures and
the outcome of every output check.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("session", "fleet", "compare")
BUILD_DIR = ".bench_build"
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

# Spark 4 on JDK 17 needs these modules opened (the list spark-submit passes).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files(root):
    """Every file the build reads, in a stable order."""
    dirs = [os.path.join("src", "main"), "jobs", os.path.join("perfbench", "src", "main")]
    files = [os.path.join("perfbench", "build.sbt"),
             os.path.join("perfbench", "project", "build.properties")]
    for d in dirs:
        for base, _, names in os.walk(os.path.join(root, d)):
            files += [os.path.relpath(os.path.join(base, n), root) for n in names]
    return sorted(files)


def source_hash(root):
    h = hashlib.sha256()
    for f in source_files(root):
        h.update(f.encode())
        with open(os.path.join(root, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(root, stamp):
    """Compile with sbt unless the cached classpath matches the sources."""
    out = os.path.join(root, BUILD_DIR)
    cp_file = os.path.join(out, "classpath.txt")
    stamp_file = os.path.join(out, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return cp_file
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    opts = ["-Dsbt.offline=true", "-Dsbt.log.noformat=true",
            "-Dsbt.global.base=" + os.path.join(out, "sbt-global"),
            "-Djava.io.tmpdir=" + os.path.join(out, "tmp")]
    repos = os.path.join(os.path.expanduser("~"), ".sbt", "repositories")
    if os.path.exists(repos):
        opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
    env = dict(os.environ, COURSIER_MODE="offline",
               SBT_OPTS=" ".join(opts + ["-Xmx2g", "-XX:-UsePerfData"]))
    # sbt's log goes to stderr: stdout carries only the benchmark's result.
    proc = subprocess.run([sbt, "--batch", "writeClasspath"], cwd=os.path.join(root, "perfbench"),
                          env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(cp_file):
        fail("build failed", 3)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp_file


def git_sha(root):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for need in (os.path.join("src", "main", "scala", "repro"), "jobs",
                 os.path.join("perfbench", "build.sbt")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a checkout: %s is missing" % need)
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not os.path.isdir(os.path.join(spark_home, "jars")):
        fail("SPARK_HOME must point at a Spark distribution")

    stamp = source_hash(root)
    with open(build(root, stamp)) as fh:
        classpath = fh.read().strip()

    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    # The parallel collector gave steadier rounds than G1 on this workload mix.
    cmd = [java, "-Xmx" + HEAP, "-Xms" + HEAP, "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(root, "perfbench", "log4j2.properties"),
           "-Dperfbench.git_sha=" + git_sha(root),
           "-Dperfbench.source_sha256=" + stamp,
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1"]
    cmd += ["--add-opens=%s=ALL-UNNAMED" % p for p in ADD_OPENS]
    cmd += ["-cp", classpath, "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    # Spark's scratch space stays inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(root, BUILD_DIR, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()

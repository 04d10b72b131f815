"""Build file of the benchmark.

Compiles the repository's main Scala sources (``src/main/scala``) together
with the benchmark's own sources (``perfbench/src``) into one class
directory, using the Scala compiler that ships in the Spark distribution's
``jars`` directory. No build tool and no dependency resolution is involved,
so a build needs neither sbt nor a network.

The Spark distribution is found through ``SPARK_HOME`` or, failing that,
through ``spark-submit`` on ``PATH``. Output goes to ``CARGO_TARGET_DIR``
when it is set, else to ``.bench_build`` at the repository root; a build is
skipped when the sources and compiler are unchanged since the last one.

    python3 perfbench/build.py      # builds and prints the class directory
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = pathlib.Path(home, "bin", "java") if home else None
    if exe is not None and exe.is_file():
        return str(exe)
    found = shutil.which("java")
    if found is None:
        raise BuildError("perfbench: no java on PATH and no JAVA_HOME")
    return found


def spark_jars() -> pathlib.Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(pathlib.Path(submit).resolve().parent.parent)
    jars = pathlib.Path(home) / "jars" if home else None
    if jars is None or not jars.is_dir():
        raise BuildError("perfbench: set SPARK_HOME to a Spark (Scala 2.13) distribution")
    return jars


def out_dir() -> pathlib.Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def sources() -> list:
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        raise BuildError(f"perfbench: no Scala sources at {main.relative_to(ROOT)}; "
                         "run from a checkout of the repository")
    return sorted(main.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))


def build() -> pathlib.Path:
    """Compile if needed; return the class directory."""
    jars = spark_jars()
    compiler = sorted(jars.glob("scala-compiler-*.jar"))
    if not compiler:
        raise BuildError(f"perfbench: no scala-compiler jar in {jars}")
    scala_cp = compiler + sorted(jars.glob("scala-library-*.jar")) + sorted(jars.glob("scala-reflect-*.jar"))
    srcs = sources()
    digest = hashlib.sha256(" ".join(p.name for p in scala_cp).encode())
    for src in srcs:
        digest.update(str(src.relative_to(ROOT)).encode())
        digest.update(src.read_bytes())
    stamp = digest.hexdigest()

    out = out_dir()
    classes = out / "classes"
    stamp_file = out / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes

    staging = out / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join(map(str, scala_cp)),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(staging),
           "-classpath", str(jars / "*")] + [str(s) for s in srcs]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        raise BuildError(f"perfbench: scalac failed with exit code {done.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(str(e))

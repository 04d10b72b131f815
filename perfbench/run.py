"""Repository benchmark: higher-order truss decomposition, end to end and per layer.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--tiny]

Builds the program from source (see build.py), then runs one workload in one
JVM. A workload decomposes a few graphs of one dataset analogue, generated
with seeds seed + 1000003*i. The run sets the graphs up several times,
computes a BaselinePeeling reference for each, warms up, and then passes over
the graphs for --seconds seconds, checking every result against its
reference. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics, timed from
outside the program around calls into each layer, and writes the spans to
run/trace-<workload>-<seed>.jsonl in the build directory. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

Workloads: local-sync, local-pruned, base-peel (BENCHMARK.json says why each
was chosen). Without --seed each dataset uses its usual seed (the hash of its
code), so the first graph is the one EXPERIMENTS.md describes. Seed 1729 is
set aside for hold-out checks of claimed gains and is not to be used while a
change is written. --tiny runs every workload on one YT analogue at h=1, for
the self-test (selftest.py).

Exit codes: 0 correct results; 1 a wrong result, an exception or a timeout;
2 bad arguments or no sources to build.
"""

import argparse
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

JVM_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
        java = build.java()
    except build.BuildError as e:
        print(e, file=sys.stderr)
        return 2

    out = build.out_dir() / "run"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [java, "-Xms2g", "-Xmx2g",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
           "-cp", os.pathsep.join([str(classes), str(jars / "*")]),
           "repro.core.PerfBench",
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")

    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: no result within {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    print(f"perfbench: JVM exited {proc.returncode} after {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

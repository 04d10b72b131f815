"""Self-test of the benchmark: runs every workload of BENCHMARK.json on the tiny
input (YT analogue, h=1), untraced and traced, through the same path as a real
run, and checks that each run succeeds, reports correct results, and emits
exactly the metrics BENCHMARK.json names, with their units.

    python3 perfbench/selftest.py
"""

import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"attempted={result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{where}: missing {sorted(want.keys() - got.keys())}, "
                      f"unexpected {sorted(got.keys() - want.keys())}, "
                      f"wrong units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors


def main() -> int:
    errors = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload, each in a process of its own so that its peak memory
is its own, and summarize the results.

Run from the repository root, for example:

    python3 benchmarks/run_all.py --seed 1 --seconds 55 --trace 0

Each workload's full output is passed through; the summary lists every
metric with its unit and whether the workload's outputs were correct.  The
exit code is 0 only if every workload ran and was correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every utrop benchmark workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            summary.append(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary.append(f"{name}: correct={result['correct']} "
                       f"failed {result['failed']}/{result['attempted']}")
        summary += [f"  {metric}: {m['value']:.6g} {m['unit']}"
                    for metric, m in result["metrics"].items()]
    print("\n".join(["summary"] + summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

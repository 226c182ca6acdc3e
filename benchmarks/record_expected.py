"""Write ``expected.json`` from one pass of every workload.

Run from the repository root with ``python3 benchmarks/record_expected.py``,
only at a commit whose results are known to be right: the benchmark counts
every later difference from this file as a failed operation.
"""

import json
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    expected = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmpdir:
        for name, w in workloads.WORKLOADS.items():
            inputs = w.setup(0)
            expected[name] = w.record(inputs, w.run(inputs, tmpdir))
            print(name, json.dumps(expected[name])[:80])
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

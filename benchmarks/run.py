"""Benchmark of the utrop certification pipeline.

Run from the repository root, for example:

    python3 benchmarks/run.py --workload certify-c3 --seed 1 --seconds 55 --trace 0

One process drives the load serially in a closed loop: the next pass starts
when the previous one and its output check have ended.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see ``spans.py``).  The
last line of standard output is one JSON object with the result; the run
also writes it, with its environment and per-pass figures, under
``.bench_out/``.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def pin_environment():
    """Drop settings that would change what a workload computes."""
    for key in list(os.environ):
        if key == "UTROP_MAX_PAIRS" or key.startswith("UTROP_CERTIFY_MAX_N_"):
            del os.environ[key]


def timed_setup(workload, seed: int):
    """Import ``utrop`` afresh and build the workload's inputs; returns the
    seconds this took and the inputs."""
    for name in [m for m in sys.modules if m == "utrop" or m.startswith("utrop.")]:
        del sys.modules[name]
    start = time.perf_counter()
    inputs = workload.setup(seed)
    return time.perf_counter() - start, inputs


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "utrop": sys.modules["utrop"].__version__,
        "commit": git_commit(),
    }


def measure(workload, seed: int, seconds: float, tracer, tmpdir: str) -> list[dict]:
    """Passes until the next one, taking the median time of those so far,
    would end after ``seconds``.  Each pass is preceded by a timed set-up of
    its own, so the set-up times sample the same stretch of the run as the
    pass times do.  With a tracer, odd passes are traced, and at least one
    pass of each kind runs."""
    passes, durations, start = [], [], time.perf_counter()
    while True:
        setup_s, inputs = timed_setup(workload, seed)
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = workload.run(inputs, tmpdir)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        recs = tracer.take() if traced else None
        try:
            check = workload.check(inputs, outcome)
        except Exception as exc:  # output the check cannot read fails the whole pass
            check = Check(workload.operations, workload.operations, "", [repr(exc)])
        passes.append({"traced": traced, "wall_s": wall, "setup_s": setup_s,
                       "check": check, "spans": recs})
        durations.append(time.perf_counter() - t0 + setup_s)
        enough = len(passes) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def totals(passes) -> tuple[int, int]:
    """Operations attempted and failed over all passes."""
    return (sum(p["check"].attempted for p in passes),
            sum(p["check"].failed for p in passes))


def end_to_end(passes) -> dict:
    attempted, failed = totals(passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "success_ratio": (1 - failed / attempted, "ratio"),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers, cone_s, coverage, root_self = [], [], [], []
    for p in traced:
        metrics, cones = spans.layer_metrics(p["spans"])
        layers.append(metrics)
        cone_s += cones
        layer_s = sum(metrics[f"{layer}.self_s"] for layer in set(spans.LAYERS.values()))
        coverage.append(layer_s / p["wall_s"])
        root_self.append(spans.root_self_s(p["spans"]) / p["wall_s"])
    out = {
        name: (statistics.median(m[name] for m in layers), unit)
        for name, unit in spans.PASS_METRICS.items()
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out.update({
        "signed.cone_s.p50": (spans.percentile(cone_s, 0.5), "s"),
        "signed.cone_s.p90": (spans.percentile(cone_s, 0.9), "s"),
        "signed.cone_s.samples": (len(cone_s), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.coverage_ratio": (statistics.median(coverage), "ratio"),
        "trace.root_self_ratio": (statistics.median(root_self), "ratio"),
        "trace.spans": (statistics.median(len(p["spans"]) for p in traced), "count"),
    })
    return out


def report(args, env, passes, metrics) -> dict:
    attempted, failed = totals(passes)
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    q1, med, q3 = quartiles(walls)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for i, p in enumerate(passes, 1):
        c = p["check"]
        kind = "traced" if p["traced"] else "untraced"
        lines.append(f"pass {i} {kind}: wall_s {p['wall_s']:.4f}  attempted {c.attempted}  "
                     f"failed {c.failed}  digest {c.digest}  {'; '.join(c.problems)}".rstrip())
    lines.append(f"untraced wall_s: median {med:.4f} s, quartiles {q1:.4f}/{q3:.4f} s, "
                 f"n={len(walls)} passes")
    setups = [p["setup_s"] for p in passes]
    lines.append(f"setup_s: median {statistics.median(setups):.4f} s of {len(setups)} set-ups, "
                 f"one before each pass")
    lines.append(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6f}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description="utrop benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    pin_environment()
    if not (SRC / "utrop" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no utrop sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)  # imports, so compiles, the sources once, outside any timing
    if not Path(sys.modules["utrop"].__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("benchmark: utrop was imported from outside this checkout\n")
        return 2
    env = environment()

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        passes = measure(workload, args.seed, args.seconds, tracer, tmpdir)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    result = report(args, env, passes, metrics)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "env": env,
              "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "setup_s": p["setup_s"],
                          **vars(p["check"])} for p in passes]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for i, p in enumerate(passes):
                for rec in p["spans"] or ():
                    fh.write(json.dumps([i, *rec]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

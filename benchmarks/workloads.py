"""The benchmark's workloads: inputs from a seed, one timed pass, and the
check of that pass's outputs against ``expected.json``.

Every workload is a fixed mathematical instance, so a seed can only change
the order of independent operations, never what is computed.  Checks
compare verdicts and cones, not the CLI's ``output_hash``: that hash covers
Groebner counters, which a faster kernel legitimately changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

SIGNS = ("+,+,+,+,-,+", "+,+,-,+,+,+")  # the two published c3 sign patterns
C3_CONES = 34  # proper faces of the doubled-polygon complex at n = 3
C3_PATTERNS = 64  # 2^6 sign patterns over the six c3 coordinates


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def item_hash(item) -> str:
    return hashlib.sha256(canonical(item).encode()).hexdigest()[:16]


def digest(items) -> str:
    """Digest of a collection of JSON-able items, independent of their order."""
    hashes = sorted(item_hash(i) for i in items)
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()[:16]


@dataclass
class Check:
    attempted: int
    failed: int
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def items_entry(items) -> dict:
    """The ``expected.json`` entry of a workload whose results are items."""
    return {"digest": digest(items), "items": sorted(item_hash(i) for i in items)}


def compare_items(items, expected_entry, attempted: int, per_item: int = 1) -> Check:
    """Count failed operations from the items a pass produced.  A changed
    item shows as one missing and one unexpected hash, so the larger of the
    two counts is the number of wrong items; each fails ``per_item``
    operations."""
    seen, expected = [item_hash(i) for i in items], set(expected_entry["items"])
    missing = expected - set(seen)
    extra = [h for h in seen if h not in expected]
    wrong = max(len(missing), len(extra), len(seen) - len(set(seen)))
    problems = [f"{wrong} item(s) differ from the expected results"] if wrong else []
    return Check(attempted, min(attempted, wrong * per_item), digest(items), problems)


def mismatches(summary) -> list[str]:
    """Problems in a ``{name: (got, expected)}`` summary."""
    return [f"{k}={got} (expected {want})" for k, (got, want) in summary.items() if got != want]


def run_cli(cli, argv, out: str):
    """One CLI command in this process; its exit code, or the exception it
    raised, which the check counts as a failure."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([*argv, "--out", out])
        except Exception as exc:  # a crash is a measured failure, not the end of the run
            return exc


def load_report(code, path):
    if code != 0:
        return None, f"exit {code!r}"
    with open(path) as fh:
        return json.load(fh), None


def read_report(code, path):
    """The report of a command that must have succeeded."""
    report, error = load_report(code, path)
    if report is None:
        raise RuntimeError(error)
    return report


def _sign_text(tau) -> str:
    return ",".join("+" if t > 0 else "-" for t in tau)


class CertifyC3:
    name = "certify-c3"
    why = ("the two published c3 sign patterns through the CLI: 34 weighted Groebner "
           "initial ideals dominate, so it shows a Groebner-kernel change")
    operations = C3_CONES * len(SIGNS)  # one (cone, pattern) verdict each

    def setup(self, seed: int):
        cli = importlib.import_module("utrop.cli")
        symtrees = importlib.import_module("utrop.symtrees")
        signs = list(SIGNS)
        random.Random(seed).shuffle(signs)
        cx = symtrees.build_complex("as", 3)
        tree_key = {tuple(sorted(f)): cx.face_tree(f).canonical_key.decode() for f in cx.faces}
        return {"cli": cli, "signs": signs, "tree_key": tree_key}

    def run(self, inputs, tmpdir: str):
        out = os.path.join(tmpdir, "certify.json")
        argv = ["certify", "--kind", "c", "--n", "3",
                *(f"--sign={s}" for s in inputs["signs"]), "--jobs", "1"]
        return run_cli(inputs["cli"], argv, out), out

    def items(self, report, tree_key):
        return [
            [tree_key.get(tuple(rec["face"]), "?"), rec["in_trop"], pattern, cert["verdict"]]
            for rec in report["cones"]
            for pattern, cert in rec["signed"].items()
        ]

    def record(self, inputs, outcome) -> dict:
        """The ``expected.json`` entry for a pass's outputs."""
        return items_entry(self.items(read_report(*outcome), inputs["tree_key"]))

    def check(self, inputs, outcome) -> Check:
        report, error = load_report(*outcome)
        if report is None:
            return Check(self.operations, self.operations, "", [error])
        check = compare_items(self.items(report, inputs["tree_key"]),
                              EXPECTED[self.name], self.operations)
        summary = {
            "faces_in_trop": (report["faces_in_trop"], C3_CONES),
            "faces_total": (report["faces_total"], C3_CONES),
            "member_counts": (sorted(report["signed_member_counts"].values()), [10, 12]),
            "inconclusive": (report["inconclusive"], 0),
        }
        check.problems += mismatches(summary)
        if check.problems:
            check.failed = max(check.failed, 1)
        return check


class CensusC3:
    name = "census-c3"
    why = ("all 64 c3 sign patterns x 34 cones: cheap certifier construction, costly "
           "certify(), so the signed search dominates; the reverse balance of certify-c3")
    operations = C3_PATTERNS * C3_CONES

    def setup(self, seed: int):
        signed = importlib.import_module("utrop.ualgebra.signed")
        ideals = importlib.import_module("utrop.ualgebra.ideals")
        fans = importlib.import_module("utrop.fans")
        symtrees = importlib.import_module("utrop.symtrees")
        fan = fans.assemble_fan(symtrees.build_complex("as", 3), "c", check_intersections=False)
        return {"signed": signed, "fan": fan, "ideal": ideals.ideal_c(3)}

    def run(self, inputs, tmpdir: str):
        try:
            return inputs["signed"].search_sign_patterns_c(3, inputs["fan"], inputs["ideal"])
        except Exception as exc:  # a crash is a measured failure, not the end of the run
            return exc

    def items(self, report):
        # a matched ordering names the member set exactly, so this digests it
        return [
            [_sign_text(p["tau"]), p["member_count"],
             [p["matches"]["family"], p["matches"]["ordering"]] if p["matches"] else None,
             len(p["inconclusive"])]
            for p in report["patterns"]
        ]

    def record(self, inputs, report) -> dict:
        """The ``expected.json`` entry for a pass's outputs."""
        if isinstance(report, Exception):
            raise report
        return items_entry(self.items(report))

    def check(self, inputs, report) -> Check:
        if isinstance(report, Exception):
            return Check(self.operations, self.operations, "", [repr(report)])
        check = compare_items(self.items(report), EXPECTED[self.name],
                              self.operations, per_item=C3_CONES)
        families = [p["matches"]["family"] for p in report["patterns"] if p["matches"]]
        summary = {
            "patterns": (len(report["patterns"]), C3_PATTERNS),
            "nonempty": (report["nonempty_count"], 16),
            "axial": (families.count("as"), 12),
            "central": (families.count("cs"), 4),
            "inconclusive": (report["inconclusive_total"], 0),
            "skipped_faces": (len(report["skipped_faces"]), 0),
        }
        check.problems += mismatches(summary)
        if check.problems:  # a skipped cone fails its verdict under every pattern
            skipped = len(report["skipped_faces"]) * C3_PATTERNS
            check.failed = min(self.operations, max(check.failed, skipped, 1))
        return check


FAN_COMMANDS = {
    # the flag is explicit so a raised default check limit cannot change the workload
    "fan-a7": ["fan", "--kind", "a", "--n", "7", "--skip-intersections"],
    "fan-c3": ["fan", "--kind", "c", "--n", "3"],
    "fan-a5": ["fan", "--kind", "a", "--n", "5"],
}


def fan_items(doc):
    """Cones by tree key and the facet relation by tree key, so a complex
    that numbers its vertices differently yields the same items."""
    key_of = {tuple(c["face"]): c["tree_key"] for c in doc["cones"]}
    cones = [["cone", c["tree_key"], sorted(c["rays"])] for c in doc["cones"]]
    facets = [["facet", key_of[tuple(a)], key_of[tuple(b)]] for a, b in doc["facet_relation"]]
    return cones + facets


class FanBuild:
    name = "fan-build"
    why = ("three fan commands: the a7 complex build and the c3 and a5 pairwise "
           "intersection LPs, which neither certify workload runs")
    operations = len(FAN_COMMANDS)

    def setup(self, seed: int):
        cli = importlib.import_module("utrop.cli")
        order = sorted(FAN_COMMANDS)
        random.Random(seed).shuffle(order)
        return {"cli": cli, "order": order}

    def run(self, inputs, tmpdir: str):
        results = []
        for name in inputs["order"]:
            out = os.path.join(tmpdir, f"{name}.json")
            results.append((name, run_cli(inputs["cli"], FAN_COMMANDS[name], out), out))
        return results

    @staticmethod
    def command_entry(doc) -> dict:
        return {"cones": len(doc["cones"]), "digest": digest(fan_items(doc))}

    def record(self, inputs, outcome) -> dict:
        """The ``expected.json`` entry for a pass's outputs."""
        return {name: self.command_entry(read_report(code, path)) for name, code, path in outcome}

    def check(self, inputs, outcome) -> Check:
        failed, problems, digests = 0, [], []
        for name, code, path in outcome:
            doc, error = load_report(code, path)
            if doc is None:
                failed += 1
                problems.append(f"{name}: {error}")
                continue
            got, want = self.command_entry(doc), EXPECTED[self.name][name]
            digests.append(f"{name}:{got['digest']}")
            if got != want:
                failed += 1
                problems.append(f"{name}: {got} (expected {want})")
        return Check(self.operations, failed, digest(digests), problems)


WORKLOADS = {w.name: w for w in (CertifyC3(), CensusC3(), FanBuild())}
EXPECTED = json.loads(EXPECTED_FILE.read_text())

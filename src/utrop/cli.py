"""Command-line front end: enumeration, complex and fan construction,
tropical certification, and external-script emission, with reproducible
JSON/DOT artifacts.

Exit codes: 0 success, 1 usage error, 2 certification failure,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import random
import sys
import time

from . import __version__, linalg
from .errors import GroebnerBudgetError, InvalidArgumentError
from .fans import Fan, assemble_fan, index_set, interior_point
from .symtrees import DihedralOrdering, Symmetry, build_complex, enumerate_orderings
from .ualgebra import Ideal, Verdict, certify_trop, ideal_a, ideal_c
from .ualgebra.cas import emit_cas_script
from .ualgebra.groebner import DEFAULT_MAX_PAIRS
from .ualgebra.signed import ConeCertifier

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_N = {"c": 3, "a": 5}  # certification budget; --max-n overrides


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def make_manifest(command: str, parameters: dict, payload_hash: str, started: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "input_hash": _sha256(_canonical_json(parameters)),
        "output_hash": payload_hash,
        "timing_seconds": round(time.time() - started, 6),  # excluded from hashes
        "tool_version": __version__,
    }


def write_json(payload: dict, command: str, parameters: dict, started: float, out):
    payload_hash = _sha256(_canonical_json(payload))
    doc = dict(payload)
    doc["manifest"] = make_manifest(command, parameters, payload_hash, started)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def write_text(text: str, comment: str, command: str, parameters: dict, started: float, out):
    manifest = make_manifest(command, parameters, _sha256(text), started)
    stamped = text + f"{comment} manifest: {_canonical_json(manifest)}\n"
    if out in (None, "-"):
        sys.stdout.write(stamped)
    else:
        with open(out, "w") as fh:
            fh.write(stamped)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    symmetry = {"none": Symmetry.NONE, "axial": Symmetry.AXIAL, "central": Symmetry.CENTRAL}[
        args.symmetry
    ]
    started = time.time()
    orderings = enumerate_orderings(args.n, symmetry)
    payload = {
        "schema_version": 1,
        "kind": "orderings",
        "n": args.n,
        "symmetry": args.symmetry,
        "count": len(orderings),
        "orderings": [o.to_json() for o in orderings],
    }
    write_json(payload, "enumerate", {"n": args.n, "symmetry": args.symmetry}, started, args.out)
    return EXIT_OK


def _parse_ordering(text: str, symmetry: Symmetry) -> DihedralOrdering:
    labels = [int(x) for x in text.replace(" ", "").split(",")]
    return DihedralOrdering.make(labels, symmetry)


def cmd_complex(args) -> int:
    started = time.time()
    cx = build_complex(args.family, args.n)
    payload = cx.to_json()
    params = {"family": args.family, "n": args.n}
    write_json(payload, "complex", params, started, args.out)
    if args.dot:
        hi_as = _parse_ordering(args.highlight_as, Symmetry.AXIAL) if args.highlight_as else None
        hi_cs = _parse_ordering(args.highlight_cs, Symmetry.CENTRAL) if args.highlight_cs else None
        dot = cx.to_dot(f"{args.family}{args.n}", highlight_as=hi_as, highlight_cs=hi_cs)
        write_text(dot, "//", "complex", {**params, "dot": True}, started, args.dot)
    degs = set(cx.degree_sequence())
    shape = f", {degs.pop()}-regular, girth {cx.girth()}" if len(degs) == 1 else ""
    sys.stderr.write(
        f"complex {args.family} n={args.n}: {len(cx.vertices)} vertices, "
        f"{len(cx.edges())} edges{shape}\n"
    )
    return EXIT_OK


def _family_for_kind(kind: str) -> str:
    return "a" if kind == "a" else "as"


def cmd_fan(args) -> int:
    started = time.time()
    cx = build_complex(_family_for_kind(args.kind), args.n)
    # the exhaustive pairwise-intersection check is quadratic in the face
    # count; run it by default only at the sizes it is meant for
    small = args.n <= (3 if args.kind == "c" else 5)
    fan = assemble_fan(cx, args.kind, check_intersections=small and not args.skip_intersections)
    payload = fan.to_json()
    params = {"kind": args.kind, "n": args.n}
    write_json(payload, "fan", params, started, args.out)
    if args.rays:
        write_text(fan.ray_matrix_text(), "#", "fan", {**params, "rays": True}, started, args.rays)
    sys.stderr.write(
        f"fan {args.kind} n={args.n}: {len(fan.rays())} rays, "
        f"{sum(1 for f in fan.cones if len(f) == 2)} two-dimensional cones\n"
    )
    return EXIT_OK


def _parse_sign(text: str, expected_len: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected_len:
        raise InvalidArgumentError(
            f"sign pattern needs {expected_len} entries, got {len(parts)}"
        )
    out = []
    for p in parts:
        if p in ("+", "+1", "1"):
            out.append(1)
        elif p in ("-", "-1"):
            out.append(-1)
        else:
            raise InvalidArgumentError(f"bad sign entry {p!r}")
    return tuple(out)


def _the_ideal(kind: str, n: int) -> Ideal:
    return ideal_c(n) if kind == "c" else ideal_a(n)


def _support_contains(fan: Fan, w) -> bool:
    """Exact test whether ``w`` lies in the union of the candidate cones.
    Every cone lies in a maximal one, so only those are tried."""
    k = len(fan.index_set)
    for face in fan.complex.maximal_faces():
        rays = fan.cones[face].rays
        if not rays:
            if all(x == 0 for x in w):
                return True
            continue
        mat = [[r[t] for r in rays] for t in range(k)]
        if linalg.solve_nonneg(mat, list(w)) is not None:
            return True
    return False


def _certify_face(certifier: ConeCertifier, taus):
    in_trop = certifier.monomial_free
    out = {"in_trop": in_trop, "signed": {}}
    for tau in taus:
        cert = certifier.certify(tau)
        out["signed"][",".join("+" if t > 0 else "-" for t in tau)] = cert.to_json()
    return out


def _worker(payload):
    ideal = Ideal.from_json(payload["ideal"])
    certifier = ConeCertifier(ideal, payload["w"], payload["max_pairs"])
    return _certify_face(certifier, [tuple(t) for t in payload["taus"]])


def cmd_certify(args) -> int:
    started = time.time()
    kind, n = args.kind, args.n
    max_n = DEFAULT_MAX_N[kind] if args.max_n is None else args.max_n
    if n > max_n:
        sys.stderr.write(
            f"certify: n={n} exceeds the configured budget for kind {kind} "
            f"(max {max_n}); raise --max-n\n"
        )
        return EXIT_RESOURCE

    ideal = _the_ideal(kind, n)
    taus = [_parse_sign(s, len(ideal.variables)) for s in (args.sign or [])]
    cx = build_complex(_family_for_kind(kind), n)
    fan = assemble_fan(cx, kind, check_intersections=False)
    faces = fan.proper_faces()
    if args.cones:
        wanted = {int(x) for x in args.cones.split(",")}
        faces = [f for i, f in enumerate(faces) if i in wanted]

    weights = [interior_point(fan.cones[f]).vector for f in faces]
    try:
        if args.jobs > 1:
            payloads = [
                {"ideal": ideal.to_json(), "w": list(w), "taus": [list(t) for t in taus],
                 "max_pairs": args.max_pairs}
                for w in weights
            ]
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_worker, payloads))
        else:
            results = []
            for w in weights:
                certifier = ConeCertifier(ideal, w, args.max_pairs)
                results.append(_certify_face(certifier, taus))
    except GroebnerBudgetError as exc:
        sys.stderr.write(f"certify: {exc}\n")
        return EXIT_RESOURCE

    records = []
    all_in_trop = True
    inconclusive = 0
    for f, w, res in zip(faces, weights, results):
        all_in_trop = all_in_trop and res["in_trop"]
        for cert in res["signed"].values():
            inconclusive += cert["verdict"] == Verdict.INCONCLUSIVE.value
        records.append(
            {
                "face": sorted(f),
                "dimension": len(f),
                "weight": list(w),
                "in_trop": res["in_trop"],
                "signed": res["signed"],
            }
        )

    probe_records, probe_mismatch = [], 0
    if args.probes:
        rng = random.Random(args.probe_seed)
        k = len(fan.index_set)
        for _ in range(args.probes):
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            on_support = _support_contains(fan, w)
            in_trop = certify_trop(ideal, w, args.max_pairs)
            probe_mismatch += on_support != in_trop
            probe_records.append(
                {"weight": list(w), "on_candidate_fan": on_support, "in_trop": in_trop}
            )

    member_counts = {}
    for tau in taus:
        key = ",".join("+" if t > 0 else "-" for t in tau)
        member_counts[key] = sum(
            1 for r in records if r["signed"][key]["verdict"] == Verdict.MEMBER.value
        )
    payload = {
        "schema_version": 1,
        "kind": "certification",
        "family": kind,
        "n": n,
        "faces_total": len(records),
        "faces_in_trop": sum(r["in_trop"] for r in records),
        "all_in_trop": all_in_trop,
        "signed_member_counts": member_counts,
        "inconclusive": inconclusive,
        "cones": records,
        "probes": probe_records,
        "probe_mismatches": probe_mismatch,
    }
    params = {
        "kind": kind,
        "n": n,
        "sign": args.sign or [],
        "cones": args.cones,
        "probes": args.probes,
        "probe_seed": args.probe_seed,
    }
    write_json(payload, "certify", params, started, args.out)
    summary = (
        f"certify {kind} n={n}: {payload['faces_in_trop']}/{payload['faces_total']} cones in "
        f"the tropicalization; inconclusive={inconclusive}; probe mismatches={probe_mismatch}\n"
    )
    sys.stderr.write(summary)
    if not all_in_trop or inconclusive or probe_mismatch:
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_emit_cas(args) -> int:
    started = time.time()
    ideal = _the_ideal(args.kind, args.n)
    cx = build_complex(_family_for_kind(args.kind), args.n)
    fan = assemble_fan(cx, args.kind, check_intersections=False)
    weights = []
    for i, f in enumerate(fan.proper_faces()):
        w = interior_point(fan.cones[f]).vector
        weights.append((f"cone {i} (face {sorted(f)})", list(w), True))
    title = f"tropical certification cross-check: kind {args.kind}, n={args.n}"
    text = emit_cas_script(ideal, weights, title)
    write_text(text, "--", "emit-cas", {"kind": args.kind, "n": args.n}, started, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    d_order = ", ".join(str(p) for p in index_set("c", 3).pairs)
    parser = argparse.ArgumentParser(
        prog="utrop",
        description="Symmetric tree complexes, cone fans, and exact tropical certification.",
        epilog=(
            "Sign patterns are comma-separated +/- lists in the fixed coordinate "
            f"order; for kind c, n=3 that order is: {d_order}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list dihedral orderings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symmetry", choices=["none", "axial", "central"], default="none")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("complex", help="build a tree complex")
    p.add_argument("--family", choices=["a", "as", "cs"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--dot", help="write the 1-skeleton as Graphviz text")
    p.add_argument("--highlight-as", help="axial ordering (comma labels) to color red")
    p.add_argument("--highlight-cs", help="central ordering (comma labels) to color blue")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("fan", help="build the cone fan of a complex")
    p.add_argument("--kind", choices=["a", "c"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--rays", help="write the plain ray matrix")
    p.add_argument("--skip-intersections", action="store_true")
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("certify", help="certify candidate cones")
    p.add_argument("--kind", choices=["a", "c"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--sign", action="append",
        help="sign pattern (repeatable); patterns starting with '-' need the"
        " --sign=-,+,... form",
    )
    p.add_argument("--cones", help="comma-separated cone indices to restrict to")
    p.add_argument("--probes", type=int, default=0, help="random probe weights")
    p.add_argument("--probe-seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)
    p.add_argument("--max-n", type=int, default=None, help="raise the size budget")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("emit-cas", help="emit an external verification script")
    p.add_argument("--kind", choices=["a", "c"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_emit_cas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except GroebnerBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

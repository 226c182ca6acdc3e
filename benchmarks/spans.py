"""Span tracing for the benchmark, done from outside the program.

``Tracer.install()`` rebinds module and class attributes of ``utrop`` to
timing shims, including the names other modules imported with ``from ...
import``; ``uninstall()`` puts the originals back.  Each call through a
shim records one span ``[name, start, end, parent, info]`` in memory.
``layer_metrics()`` turns the spans of one pass into the per-layer metrics.

Hot ``Poly``/``TermOrder`` methods are deliberately left alone: they run
millions of times and a shim on them would distort the numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import time

NAME, START, END, PARENT, INFO = range(5)

# span name -> layer; a layer's self time is the summed self time of its spans
LAYERS = {
    "symtrees.build_complex": "symtrees",
    "symtrees.build_sub": "symtrees",
    "fans.assemble_fan": "fans",
    "linalg.solve_nonneg": "linalg",
    "linalg.rank": "linalg",
    "groebner.groebner_basis": "groebner",
    "groebner.normal_form": "groebner",
    "initial.initial_ideal": "initial",
    "initial.is_monomial_free": "initial",
    "signed.cone_init": "signed",
    "signed.certify": "signed",
    "signed.positive_point_search": "signed",
    "signed.all_positive_element_search": "signed",
    "signed.search_sign_patterns_c": "signed",
    "cli.main": "cli",
    "cli.write_json": "cli",
}

# a Groebner run's role is named by the span that called it
GROEBNER_ROLES = {
    "initial.initial_ideal": "weighted",
    "initial.is_monomial_free": "saturation",
    "signed.cone_init": "grevlex",
    "signed.positive_point_search": "search",
}
ROLES = ("weighted", "saturation", "grevlex", "search", "other")
LP_PARENTS = ("assemble_fan", "all_positive_element_search", "other")
DECISIONS = ("monomial", "scan", "positive_point", "lp", "inconclusive")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._cone_of: dict[int, int] = {}  # id(ConeCertifier) -> cone serial
        self._cones = itertools.count()

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, info=None, call=None):
        """A shim that records a span around ``fn``.  ``info(args, kwargs,
        result)`` adds data to the span; ``call(fn, args, kwargs, rec)``
        replaces the plain call when the shim must change the arguments."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = call(fn, args, kwargs, rec) if call else fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return shim

    def _set(self, owner, attr, shim):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def install(self):
        """Rebind every traced entry point of the loaded ``utrop`` modules."""
        symtrees, fans, linalg, cli, groebner, initial, signed = (
            importlib.import_module(f"utrop.{m}") for m in (
                "symtrees", "fans", "linalg", "cli",
                "ualgebra.groebner", "ualgebra.initial", "ualgebra.signed"))

        def count_faces(args, kwargs, cx):
            return len(cx.faces)

        def count_cones(args, kwargs, fan):
            return len(fan.cones)

        def found(args, kwargs, result):
            return result is not None

        shim = self.wrap("symtrees.build_complex", symtrees.build_complex, count_faces)
        self._set(symtrees, "build_complex", shim)
        self._set(cli, "build_complex", shim)
        self._set(symtrees, "build_sub", self.wrap("symtrees.build_sub", symtrees.build_sub))
        shim = self.wrap("fans.assemble_fan", fans.assemble_fan, count_cones)
        self._set(fans, "assemble_fan", shim)
        self._set(cli, "assemble_fan", shim)
        self._set(linalg, "solve_nonneg", self.wrap("linalg.solve_nonneg", linalg.solve_nonneg, found))
        self._set(linalg, "rank", self.wrap("linalg.rank", linalg.rank))

        sig = inspect.signature(groebner.groebner_basis)

        def groebner_call(fn, args, kwargs, rec):
            bound = sig.bind(*args, **kwargs)
            if bound.arguments.get("stats") is None:
                bound.arguments["stats"] = {}  # counters the caller did not ask for
            stats = bound.arguments["stats"]
            try:
                result = fn(*bound.args, **bound.kwargs)
            except Exception as exc:
                rec[INFO] = {"error": type(exc).__name__}
                raise
            rec[INFO] = {k: stats[k] for k in ("pairs", "zero_reductions", "basis_size")}
            return result

        shim = self.wrap("groebner.groebner_basis", groebner.groebner_basis, call=groebner_call)
        for mod in (groebner, initial, signed):
            self._set(mod, "groebner_basis", shim)
        nfc = groebner.NormalFormCalculator
        self._set(nfc, "reduce", self.wrap("groebner.normal_form", nfc.reduce))

        shim = self.wrap("initial.initial_ideal", initial.initial_ideal)
        self._set(initial, "initial_ideal", shim)
        self._set(signed, "initial_ideal", shim)
        shim = self.wrap("initial.is_monomial_free", initial.is_monomial_free)
        self._set(initial, "is_monomial_free", shim)
        self._set(signed, "is_monomial_free", shim)

        cone_of, cones = self._cone_of, self._cones

        def new_cone(args, kwargs, result):
            cone_of[id(args[0])] = serial = next(cones)  # ids are reused once a certifier dies
            return serial

        def verdict(args, kwargs, cert):
            return [cone_of.get(id(args[0]), -1), cert.verdict.value, cert.witness.get("type")]

        cc = signed.ConeCertifier
        self._set(cc, "__init__", self.wrap("signed.cone_init", cc.__init__, new_cone))
        self._set(cc, "certify", self.wrap("signed.certify", cc.certify, verdict))
        for attr in ("positive_point_search", "all_positive_element_search"):
            self._set(signed, attr, self.wrap(f"signed.{attr}", getattr(signed, attr), found))
        self._set(signed, "search_sign_patterns_c",
                  self.wrap("signed.search_sign_patterns_c", signed.search_sign_patterns_c))

        self._set(cli, "main", self.wrap("cli.main", cli.main))
        self._set(cli, "write_json", self.wrap("cli.write_json", cli.write_json))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts afresh."""
        spans = list(self.spans)
        self.spans.clear()  # the shims hold this list, so empty it in place
        self._cone_of.clear()
        return spans


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        covered, reach = 0.0, rec[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, rec[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(rec[END] - rec[START] - covered)
    return out


def root_self_s(spans) -> float:
    """Self time of the spans no other span encloses.  It holds every call
    that no shim caught, so it grows when a shim stops catching calls."""
    return sum(t for rec, t in zip(spans, self_times(spans)) if rec[PARENT] < 0)


def _metric_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in sorted(set(LAYERS.values()))}
    units.update({
        "symtrees.build_complex.calls": "count", "symtrees.build_complex.s": "s",
        "symtrees.faces": "count",
        "fans.assemble_fan.self_s": "s", "fans.cones": "count",
        "fans.pairwise_lp.calls": "count", "fans.pairwise_lp.s": "s",
    })
    for parent in LP_PARENTS:
        units.update({f"linalg.solve_nonneg.{parent}.calls": "count",
                      f"linalg.solve_nonneg.{parent}.s": "s",
                      f"linalg.solve_nonneg.{parent}.feasible_ratio": "ratio"})
    units.update({"linalg.rank.calls": "count", "linalg.rank.s": "s"})
    for role in ROLES:
        units.update({f"groebner.{role}.{k}": "count"
                      for k in ("calls", "pairs", "zero_reductions", "basis_size")})
        units.update({f"groebner.{role}.s": "s", f"groebner.{role}.useful_pair_ratio": "ratio"})
    units.update({"groebner.search.budget_errors": "count",
                  "groebner.normal_form.calls": "count", "groebner.normal_form.s": "s",
                  "initial.initial_ideal.self_s": "s", "initial.is_monomial_free.self_s": "s"})
    for name in ("cone_init", "certify", "positive_point_search", "all_positive_element_search"):
        units.update({f"signed.{name}.calls": "count", f"signed.{name}.s": "s"})
    for name in ("positive_point_search", "all_positive_element_search"):
        units[f"signed.{name}.hit_ratio"] = "ratio"
    units.update({f"signed.decided_by.{d}": "count" for d in DECISIONS})
    units["cli.write_json.s"] = "s"
    return units


# metrics of one traced pass; run.py adds the pooled and whole-run ones
PASS_METRICS = _metric_units()


def layer_metrics(spans) -> tuple[dict, list[float]]:
    """Per-layer metrics of one pass, and the per-cone certification times
    (cone construction plus every ``certify`` on that cone)."""
    m = dict.fromkeys(PASS_METRICS, 0)
    searched = {rec[PARENT] for rec in spans if rec[NAME] == "signed.positive_point_search"}
    cone_s: dict[int, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for i, (rec, self_s) in enumerate(zip(spans, self_times(spans))):
        name, dur, info = rec[NAME], rec[END] - rec[START], rec[INFO]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
        add(f"{LAYERS[name]}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", self_s)
        if name == "symtrees.build_complex":
            add("symtrees.faces", info or 0)
        elif name == "fans.assemble_fan":
            add("fans.cones", info or 0)
        elif name == "linalg.solve_nonneg":
            caller = parent.partition(".")[2]
            key = f"linalg.solve_nonneg.{caller if caller in LP_PARENTS else 'other'}"
            add(f"{key}.calls", 1)
            add(f"{key}.s", dur)
            add(f"{key}.feasible", bool(info))
        elif name == "groebner.groebner_basis":
            key = f"groebner.{GROEBNER_ROLES.get(parent, 'other')}"
            add(f"{key}.calls", 1)
            add(f"{key}.s", dur)
            info = info or {"error": "unknown"}
            if "error" in info:
                add(f"{key}.budget_errors", info["error"] == "GroebnerBudgetError")
            else:
                for k in ("pairs", "zero_reductions", "basis_size"):
                    add(f"{key}.{k}", info[k])
        elif name in ("signed.positive_point_search", "signed.all_positive_element_search"):
            add(f"{name}.hits", bool(info))
        elif name == "signed.cone_init" and info is not None:
            cone_s[info] = cone_s.get(info, 0.0) + dur
        elif name == "signed.certify" and info is not None:
            cone, verdict, witness = info
            cone_s[cone] = cone_s.get(cone, 0.0) + dur
            add(f"signed.decided_by.{_decision(verdict, witness, i in searched)}", 1)

    m["fans.pairwise_lp.calls"] = m["linalg.solve_nonneg.assemble_fan.calls"]
    m["fans.pairwise_lp.s"] = m["linalg.solve_nonneg.assemble_fan.s"]
    for parent in LP_PARENTS:
        key = f"linalg.solve_nonneg.{parent}"
        m[f"{key}.feasible_ratio"] = _ratio(m.get(f"{key}.feasible", 0), m[f"{key}.calls"])
    for role in ROLES:
        key = f"groebner.{role}"
        m[f"{key}.useful_pair_ratio"] = _ratio(
            m[f"{key}.pairs"] - m[f"{key}.zero_reductions"], m[f"{key}.pairs"])
    for name in ("positive_point_search", "all_positive_element_search"):
        key = f"signed.{name}"
        m[f"{key}.hit_ratio"] = _ratio(m.get(f"{key}.hits", 0), m[f"{key}.calls"])
    return {k: m[k] for k in PASS_METRICS}, list(cone_s.values())


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _decision(verdict, witness, searched: bool) -> str:
    """Which certificate path decided a ``certify`` call."""
    if verdict == "member":
        return "positive_point"
    if verdict == "inconclusive":
        return "inconclusive"
    if witness == "monomial_in_initial_ideal":
        return "monomial"
    return "lp" if searched else "scan"


def percentile(values, q: float) -> float:
    """The ``q``-quantile of ``values`` (inclusive method), 0.0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]

"""Emission of an external computer-algebra script that independently
re-runs the tropical certifications.

The script is Macaulay2-flavored plain text: it defines the u-equation
ideal, and for every candidate weight builds a ring whose order refines
(total degree, then the negated weight, then grevlex) on the homogenized
generators, takes leading forms with respect to the first two order
blocks, dehomogenizes, and tests monomial-freeness by saturation.  The
expected verdict is documented inline as a comment.  This artifact only
writes the script; it never executes it.
"""

from __future__ import annotations

from .ideals import Ideal


def _m2_poly(g, names) -> str:
    parts = []
    for m, c in sorted(g.terms.items(), reverse=True):
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
        coeff = str(c) if c.denominator == 1 else f"({c.numerator}/{c.denominator})"
        body = "*".join(factors) if factors else "1"
        parts.append(f"({coeff})*{body}")
    return " + ".join(parts) if parts else "0"


def emit_cas_script(ideal: Ideal, weights, title: str) -> str:
    """Deterministic external-verification script.

    ``weights`` is a list of ``(name, vector)`` pairs, each expected in the
    tropicalization.
    """
    names = list(ideal.variables)
    nv = len(names)
    lines = [
        f"-- {title}",
        "-- Independent cross-check script (Macaulay2 syntax). Format:",
        "--   * the ideal below is defined over QQ in the documented variable order;",
        "--   * for each weight w, a ring with order (degree, -w, GRevLex) on the",
        "--     homogenized generators is built, leadTerm(2, .) takes the initial",
        "--     forms, h=>1 dehomogenizes, and saturation by the product of the",
        "--     variables detects monomials: the weight lies in the tropicalization",
        "--     iff the saturated initial ideal is not the unit ideal;",
        "--   * expected results are stated in comments; this file is never",
        "--     executed by the generating tool.",
        "",
        f"-- variable order: {', '.join(names)}",
    ]
    gens = [_m2_poly(g, names) for g in ideal.generators]
    lines.append("")
    lines.append(f"S = QQ[{', '.join(names)}];")
    lines.append("I = ideal(")
    for i, g in enumerate(gens):
        comma = "," if i + 1 < len(gens) else ""
        lines.append(f"    {g}{comma}")
    lines.append(");")
    lines.append("")
    lines.append("checkWeight = (wvec) -> (")
    lines.append(f"    Rw := QQ[{', '.join(names)}, h,")
    lines.append(f"        MonomialOrder => {{Weights => toList({nv + 1}:1), Weights => wvec, GRevLex => {nv + 1}}}];")
    lines.append("    Ih := ideal apply(flatten entries gens substitute(ideal I_*, Rw), g -> homogenize(g, Rw_" + str(nv) + "));")
    lines.append("    inI := ideal leadTerm(2, Ih);")
    lines.append(f"    back := map(S, Rw, (gens S) | {{1_S}});")
    lines.append("    J := back inI;")
    lines.append(f"    sat := saturate(J, product gens S);")
    lines.append("    sat != ideal(1_S))")
    lines.append("")
    for name, vec in weights:
        neg = [-x for x in vec] + [0]
        lines.append(f"-- {name}: weight {list(vec)}; expected: in the tropicalization (monomial-free)")
        lines.append(f"assert(checkWeight({{{', '.join(str(x) for x in neg)}}}) == true);")
    lines.append("")
    lines.append('print "all checks passed";')
    return "\n".join(lines) + "\n"

"""Exact checks of one op's output, run outside the timed region.

The expected valuations come from :mod:`workloads`, and the ``snf``
products are recomputed here with a small Laurent-polynomial arithmetic
of this file's own, so those checks do not rest on the package's field
or matrix code. Only the last degen check (contracting the limit again
is a no-op) calls the package, because it is a property of that code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations

from stackydeg.curve import MultiDegree, TwistedCurve
from stackydeg.engine import contract_torsion_components

# ---------------------------------------------------------------------------
# Laurent polynomials over Q: dicts {exponent: nonzero Fraction}.

_TERM = re.compile(r"(\d+(?:/\d+)?)?(?:(t)(?:\^(\d+))?)?$")


def _parse_poly(text: str) -> dict:
    out: dict = {}
    for term in re.findall(r"[+-]?[^+-]+", text):
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        m = _TERM.match(body)
        if not body or not m:
            raise ValueError(f"bad term {term!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        out[exp] = out.get(exp, 0) + sign * coeff
    return {k: v for k, v in out.items() if v}


def parse_ratfunc(text: str) -> tuple:
    """(numerator, denominator) of the package's text form, unreduced."""
    parts = re.split(r"/(?=[^0-9])", text)
    if len(parts) > 2:
        raise ValueError(f"bad rational function {text!r}")
    den = _parse_poly(parts[1]) if len(parts) == 2 else {0: Fraction(1)}
    return _parse_poly(parts[0]), den


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _val(p: dict) -> int:
    return min(p)


def _product(polys) -> dict:
    out = {0: Fraction(1)}
    for p in polys:
        out = _mul(out, p)
    return out


def _matmul(a: list, b: list) -> list:
    n, m, w = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(w):
            acc: dict = {}
            for k in range(m):
                if a[i][k] and b[k][j]:
                    acc = _add(acc, _mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _det(a: list) -> dict:
    """Leibniz determinant; the ``snf`` matrices are 3x3."""
    n = len(a)
    out: dict = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = _product(a[i][perm[i]] for i in range(n))
        if inversions % 2:
            term = {k: -v for k, v in term.items()}
        out = _add(out, term)
    return out


def _cleared(mat: list, by_rows: bool) -> tuple:
    """Scale each row (or column) of a matrix of (num, den) pairs by the
    product of its denominators; returns (polynomial matrix, scale
    valuations)."""
    n = len(mat)
    cells = mat if by_rows else [list(col) for col in zip(*mat)]
    out, scales = [], []
    for line in cells:
        dens = [den for _, den in line]
        scales.append(sum(_val(d) for d in dens))
        out.append([_mul(num, _product(dens[:j] + dens[j + 1:]))
                    for j, (num, _) in enumerate(line)])
    if not by_rows:
        out = [[out[j][i] for j in range(n)] for i in range(n)]
    return out, scales


def check_snf(item: dict, result: dict) -> list:
    """Problems with one ``snf`` command result (empty when it is right)."""
    expect = item["expect"]
    problems = []
    for key in ("shift", "diag_valuations"):
        if result.get(key) != expect[key]:
            problems.append(f"{key} {result.get(key)} != expected {expect[key]}")
    left = [[parse_ratfunc(x) for x in row] for row in result["left"]["entries"]]
    right = [[parse_ratfunc(x) for x in row] for row in result["right"]["entries"]]
    for name, mat in (("left", left), ("right", right)):
        if any(num and _val(num) < _val(den) for row in mat for num, den in row):
            problems.append(f"{name} has an entry that is not regular at t = 0")
    shift = expect["shift"]
    a = []
    for row in item["doc"]["entries"]:
        cells = []
        for text in row:
            num, den = parse_ratfunc(text)
            # the generated denominators are powers of t
            cells.append({k + shift - _val(den): v for k, v in num.items()})
        a.append(cells)
    lp, lscale = _cleared(left, by_rows=True)
    rp, rscale = _cleared(right, by_rows=False)
    prod = _matmul(_matmul(lp, a), rp)
    n = len(prod)
    if any(prod[i][j] for i in range(n) for j in range(n) if i != j):
        problems.append("left @ (t^shift a) @ right is not diagonal")
    else:
        got = [_val(prod[i][i]) - lscale[i] - rscale[i] if prod[i][i] else None
               for i in range(n)]
        if got != expect["diag_valuations"]:
            problems.append(f"product diagonal valuations {got} != "
                            f"{expect['diag_valuations']}")
    for name, mat, scale in (("left", lp, lscale), ("right", rp, rscale)):
        det = _det(mat)
        if not det or _val(det) - sum(scale) != 0:
            problems.append(f"det({name}) is not a unit at t = 0")
    return problems


# ---------------------------------------------------------------------------
# Degeneration outputs.


def _genus(curve: dict) -> int:
    comps, nodes = curve["components"], curve["nodes"]
    return sum(c["genus"] for c in comps) + len(nodes) - len(comps) + 1


def _totals(md: dict) -> list:
    return [sum((Fraction(x) for x in row.values()), Fraction(0))
            for row in md["deg"]]


def check_degen(item: dict, out: dict) -> list:
    """Problems with one degeneration output document."""
    doc, problems = item["doc"], []
    if out["validation"]["violations"]:
        problems.append("final validation is not empty")
    if _genus(out["limit_curve"]) != _genus(doc):
        problems.append("arithmetic genus not conserved")
    totals = _totals(doc["multidegree"])
    if _totals(out["limit_multidegree"]) != totals:
        problems.append("per-factor totals not conserved")
    for ix, record in enumerate(out["log"]):
        if [Fraction(x) for x in record["totals"]] != totals:
            problems.append(f"log record {ix} ({record['type']}) has other totals")
    snf = {r["node"]: r for r in out["log"] if r["type"] == "snf"}
    inserted = {r["node"]: len(r["inserted"]) for r in out["log"]
                if r["type"] == "insert"}
    persistent = {n["id"] for n in doc["nodes"] if n["persistent"]}
    if set(snf) != persistent:
        problems.append("snf records do not match the persistent nodes")
    for node, record in snf.items():
        positive = sum(1 for v in record["diag_valuations"] if v > 0)
        if inserted.get(node, 0) != positive:
            problems.append(f"node {node}: {inserted.get(node, 0)} insertions "
                            f"for {positive} positive valuations")
    for node, expect in item["expect"].items():
        got = {k: snf.get(node, {}).get(k) for k in expect}
        if got != expect:
            problems.append(f"node {node}: snf {got} != expected {expect}")
    curve = TwistedCurve.from_json_dict(out["limit_curve"])
    md = MultiDegree.from_json_dict(out["limit_multidegree"])
    curve2, _, records = contract_torsion_components(curve, md)
    if records or curve2 != curve:
        problems.append("contracting the limit again is not a no-op")
    return problems

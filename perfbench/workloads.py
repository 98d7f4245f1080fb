"""Seeded input generators for the benchmark workloads, with their oracle.

Nothing here imports the package under test. Gluing matrices are built
as U @ diag(t^v) @ V from integer polynomials, with U and V products of
elementary operations invertible over the local ring at t = 0, so the
invariant valuations of every gluing are known before the program runs.

Each corpus item is a dict:

- ``kind``: ``"degen"`` or ``"snf"``;
- ``doc``: the input document (a degeneration input or a matrix);
- ``expect``: what the oracle knows. For ``degen`` it maps node ids to
  the expected ``snf`` log record (``oriented``, ``shift``,
  ``diag_valuations``) at every node the normalize pass leaves alone.
  For ``snf`` it holds ``shift`` and ``diag_valuations``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("wide-gluing", "big-graph", "cli-mix")

# Corpus size per workload. Runs go through the corpus in order and wrap;
# a wide-gluing or big-graph run of the first benchmarked commit covers
# about half of its corpus.
CORPUS_SIZE = {"wide-gluing": 240, "big-graph": 240, "cli-mix": 240}


# ---------------------------------------------------------------------------
# Integer Laurent polynomials: dicts {exponent: nonzero int}.


def _lmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _ladd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _format_poly(p: dict) -> str:
    if not p:
        return "0"
    out = ""
    for k in sorted(p, reverse=True):
        c = p[k]
        mag = abs(c)
        tpart = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        body = str(mag) if not tpart else (tpart if mag == 1 else f"{mag}{tpart}")
        if c < 0:
            out += "-" + body
        else:
            out += ("+" if out else "") + body
    return out


def format_laurent(p: dict) -> str:
    """Text in the package's ``poly ("/" poly)?`` grammar."""
    low = min(p, default=0)
    if low >= 0:
        return _format_poly(p)
    shifted = {k - low: v for k, v in p.items()}
    return f"{_format_poly(shifted)}/{_format_poly({-low: 1})}"


def _matmul(a: list, b: list) -> list:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = _ladd(acc, _lmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _identity(n: int) -> list:
    return [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]


def _random_poly(s: random.Random, r: random.Random, max_degree: int) -> dict:
    # every coefficient is nonzero, so the constant term makes it a unit
    return {k: r.choice((-3, -2, -1, 1, 2, 3))
            for k in range(s.randint(0, max_degree) + 1)}


def random_unimodular(s: random.Random, r: random.Random, n: int, ops: int) -> list:
    """A product of ``ops`` elementary matrices, each invertible over the
    local ring: one polynomial of degree at most 2 on the diagonal (a unit)
    or off it."""
    out = _identity(n)
    for _ in range(ops):
        e = _identity(n)
        i, j = s.randrange(n), s.randrange(n)
        e[i][j] = _random_poly(s, r, 2)
        out = _matmul(out, e)
    return out


def _valuation(s: random.Random, bound: int) -> int:
    # negative about 30% of the time
    if s.random() < 0.3:
        return -s.randint(1, bound)
    return s.randint(0, bound)


def random_gluing(s: random.Random, r: random.Random, n: int, bound: int,
                  ops: int):
    """(matrix document, exponents v) for U @ diag(t^v) @ V."""
    v = [_valuation(s, bound) for _ in range(n)]
    diag = [[{v[i]: 1} if i == j else {} for j in range(n)] for i in range(n)]
    g = _matmul(_matmul(random_unimodular(s, r, n, ops), diag),
                random_unimodular(s, r, n, ops))
    doc = {"rows": n, "cols": n,
           "entries": [[format_laurent(x) for x in row] for row in g]}
    return doc, v


def expected_snf(v: list, orient: bool) -> dict:
    """The ``snf`` record a gluing U @ diag(t^v) @ V must produce.

    With ``orient`` the engine's rule applies: a gluing whose determinant
    has negative valuation is inverted, which negates the exponents.
    """
    swapped = orient and sum(v) < 0
    a = sorted(-x for x in v) if swapped else sorted(v)
    shift = max(0, -a[0])
    out = {"shift": shift, "diag_valuations": [x + shift for x in a]}
    if orient:
        out["oriented"] = "swapped" if swapped else "kept"
    return out


# ---------------------------------------------------------------------------
# Documents.


def _scalar(power: int) -> dict:
    return {"rows": 1, "cols": 1, "entries": [[format_laurent({power: 1})]]}


def _document(comps, genus, nodes, deg_rows, d_list, gluing, extra_mu) -> dict:
    doc = {
        "components": [{"id": c, "genus": genus[c]} for c in comps],
        "nodes": nodes,
        "markings": [],
        "multidegree": {"factors": len(d_list), "deg": deg_rows},
        "grading": {"d": d_list},
        "gluing": gluing,
    }
    if extra_mu:
        doc["extra_mu"] = extra_mu
    return doc


def _oracle_nodes(nodes: list, genus: dict, n_factors: int) -> set:
    """Nodes whose gluing the normalize pass leaves alone: all of them with
    several factors, else those not on a two-branch rational component."""
    if n_factors > 1:
        return {n["id"] for n in nodes if n["persistent"]}
    branches = {c: 0 for c in genus}
    for n in nodes:
        for end in n["ends"]:
            branches[end] += 1
    flat = {c for c in genus if genus[c] == 0 and branches[c] == 2}
    return {n["id"] for n in nodes
            if n["persistent"] and not flat.intersection(n["ends"])}


def wide_gluing_item(s: random.Random, r: random.Random, index: int) -> dict:
    """Two genus-2 bodies joined by 1-2 persistent nodes, n in {3, 4, 5}."""
    n = 3 + index % 3
    comps = ["A", "B"]
    genus = {"A": 2, "B": 2}
    nodes, gluing, expect = [], {}, {}
    for ix in range(s.randint(1, 2)):
        nid = f"n{ix}"
        nodes.append({"id": nid, "ends": ["A", "B"], "stab": 1,
                      "persistent": True})
        gluing[nid], v = random_gluing(s, r, n, bound=4, ops=n + 2)
        expect[nid] = expected_snf(v, orient=True)
    d_list = [r.randint(1, 3) for _ in range(n)]
    deg_rows = [{c: str(r.randint(-3, 3)) for c in comps} for _ in range(n)]
    doc = _document(comps, genus, nodes, deg_rows, d_list, gluing, {})
    return {"kind": "degen", "doc": doc, "expect": expect}


def _theta_gadget(s, r, comps, genus, nodes, gluing, extra_mu, host_a, host_b,
                  d: int, tag: str, m_range) -> tuple:
    """A destabilizing rational curve between two persistent twisted nodes,
    shaped like the built-in theta-example-3; returns (id, degree)."""
    k = s.choice([2, 3])
    p_id = f"P{tag}"
    comps.append(p_id)
    genus[p_id] = 0
    nodes.append({"id": f"tp{tag}a", "ends": [host_a, p_id], "stab": k,
                  "persistent": True})
    nodes.append({"id": f"tp{tag}b", "ends": [host_b, p_id],
                  "stab": (k // gcd(k, d - 1)) * d, "persistent": True})
    gluing[f"tp{tag}a"] = _scalar(r.randint(*m_range))
    gluing[f"tp{tag}b"] = _scalar(r.randint(*m_range))
    extra_mu[f"tp{tag}a"] = k
    return p_id, Fraction(1, d * k)


def big_graph_item(s: random.Random, r: random.Random) -> dict:
    """A tree of 60-100 genus-2 bodies plus extra edges, one factor, with
    order-2 twisted self-nodes and contractible rational gadgets."""
    m_range = (-3, 5)
    n_bodies = s.randint(60, 100)
    comps = [f"c{i}" for i in range(n_bodies)]
    genus = {c: 2 for c in comps}
    edges = [(comps[s.randrange(i)], comps[i]) for i in range(1, n_bodies)]
    edges += [(s.choice(comps), s.choice(comps))
              for _ in range(s.randint(5, 10))]
    nodes, gluing, extra_mu, expect = [], {}, {}, {}
    for ix, (a, b) in enumerate(edges):
        persistent = s.random() < 0.7
        nodes.append({"id": f"n{ix}", "ends": [a, b], "stab": 1,
                      "persistent": persistent})
        if persistent:
            m = r.randint(*m_range)
            gluing[f"n{ix}"] = _scalar(m)
            expect[f"n{ix}"] = expected_snf([m], orient=True)
    d = s.randint(1, 3)
    deg = {c: Fraction(r.randint(-3, 3)) for c in comps}
    n_self, n_gadgets = s.randint(6, 10), s.randint(6, 10)
    hosts = s.sample(comps, n_self + 2 * n_gadgets)
    for ix, host in enumerate(hosts[:n_self]):
        nid = f"theta{ix}"
        m = r.randint(*m_range)
        nodes.append({"id": nid, "ends": [host, host], "stab": 2,
                      "persistent": True})
        gluing[nid] = _scalar(m)
        extra_mu[nid] = 2
        expect[nid] = expected_snf([m], orient=True)
        deg[host] = Fraction(r.randint(-6, 6), 2)
    rest = hosts[n_self:]
    for ix in range(n_gadgets):
        p_id, p_deg = _theta_gadget(s, r, comps, genus, nodes, gluing, extra_mu,
                                    rest[2 * ix], rest[2 * ix + 1], d, str(ix),
                                    m_range)
        deg[p_id] = p_deg
    deg_rows = [{c: str(deg[c]) for c in comps}]
    doc = _document(comps, genus, nodes, deg_rows, [d], gluing, extra_mu)
    return {"kind": "degen", "doc": doc, "expect": expect}


def small_degen_item(s: random.Random, r: random.Random) -> dict:
    """A document of the shape the acceptance suite's property run uses:
    1-3 factors, at most 6 components, valuations at most 5, and in the
    single-factor case a twisted self-node or a contractible gadget."""
    n_factors = s.randint(1, 3)
    comps = [f"c{i}" for i in range(s.randint(2, 5))]
    genus = {c: 2 for c in comps}
    edges = [(comps[s.randrange(i)], comps[i]) for i in range(1, len(comps))]
    edges += [(s.choice(comps), s.choice(comps))
              for _ in range(s.randint(0, 2))]
    branch = {c: 0 for c in comps}
    for a, b in edges:
        branch[a] += 1
        branch[b] += 1
    flat = [c for c in comps if branch[c] >= 2]
    if flat and s.random() < 0.5:
        genus[s.choice(flat)] = 0
    slim = [c for c in comps if branch[c] >= 1 and genus[c] == 2]
    if slim and s.random() < 0.3:
        genus[s.choice(slim)] = 1
    nodes, gluing, extra_mu, vals = [], {}, {}, {}
    for ix, (a, b) in enumerate(edges):
        persistent = s.random() < 0.7
        nodes.append({"id": f"n{ix}", "ends": [a, b], "stab": 1,
                      "persistent": persistent})
        if persistent:
            gluing[f"n{ix}"], vals[f"n{ix}"] = random_gluing(
                s, r, n_factors, bound=5, ops=s.randint(1, 3))
    d_list = [s.randint(1, 3) for _ in range(n_factors)]
    deg = {c: [Fraction(r.randint(-3, 3)) if genus[c] else Fraction(25)
               for _ in range(n_factors)] for c in comps}
    hosts = [c for c in comps if genus[c] == 2]
    roll = s.random()
    if n_factors == 1 and hosts and roll < 0.3:
        host, k, m = s.choice(hosts), s.choice([2, 3]), r.randint(0, 5)
        nodes.append({"id": "ntheta", "ends": [host, host], "stab": k,
                      "persistent": True})
        gluing["ntheta"], vals["ntheta"] = _scalar(m), [m]
        extra_mu["ntheta"] = k
        deg[host] = [Fraction(r.randint(-6, 6), k)]
    elif n_factors == 1 and hosts and roll < 0.55:
        p_id, p_deg = _theta_gadget(s, r, comps, genus, nodes, gluing, extra_mu,
                                    s.choice(hosts), s.choice(hosts),
                                    d_list[0], "", (0, 5))
        deg[p_id] = [p_deg]
    deg_rows = [{c: str(deg[c][k]) for c in comps} for k in range(n_factors)]
    doc = _document(comps, genus, nodes, deg_rows, d_list, gluing, extra_mu)
    expect = {nid: expected_snf(vals[nid], orient=True)
              for nid in _oracle_nodes(nodes, genus, n_factors) if nid in vals}
    return {"kind": "degen", "doc": doc, "expect": expect}


def snf_item(s: random.Random, r: random.Random) -> dict:
    """A 3x3 gluing for the ``snf`` command, which never reorients."""
    doc, v = random_gluing(s, r, 3, bound=4, ops=5)
    return {"kind": "snf", "doc": doc, "expect": expected_snf(v, orient=False)}


def make_corpus(workload: str, seed: int) -> list:
    """The corpus of one workload; the same seed gives the same items.

    Two streams draw each item. The shape stream, the same for every
    seed, fixes what sets an op's cost: sizes, graph structure, exponents
    and where the elementary operations sit. The seed's stream draws every
    coefficient, gluing exponent of a 1x1 gluing and degree. So every seed
    meets the same cost profile, slow ops included, with other numbers.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = CORPUS_SIZE[workload]
    s = random.Random(f"{workload}/shape")
    r = random.Random(f"{workload}/{seed}")
    if workload == "wide-gluing":
        return [wide_gluing_item(s, r, i) for i in range(size)]
    if workload == "big-graph":
        return [big_graph_item(s, r) for _ in range(size)]
    # cli-mix: degen and snf commands about 5:1, in a fixed shuffled order
    kinds = ["snf" if i % 6 == 5 else "degen" for i in range(size)]
    s.shuffle(kinds)
    return [snf_item(s, r) if k == "snf" else small_degen_item(s, r)
            for k in kinds]

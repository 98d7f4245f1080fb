"""Deterministic generators shared by the property suites."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from stackydeg import Mat, RatFunc, t_power
from oracle import diagonal, identity, matmul

UNITS = [
    RatFunc(1),
    RatFunc(2),
    RatFunc(-1),
    RatFunc((1, 1)),       # 1 + t
    RatFunc((2, -1)),      # 2 - t
    RatFunc((1, 0, 3)),    # 1 + 3t^2
]

REGULARS = [
    RatFunc(1),
    RatFunc((0, 1)),       # t
    RatFunc((1, 1)),       # 1 + t
    RatFunc((0, 0, 2)),    # 2t^2
    RatFunc(Fraction(1, 2)),
]


def random_poly(rng: random.Random, max_degree: int = 4) -> RatFunc:
    deg = rng.randint(0, max_degree)
    return RatFunc(tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)))


def random_regular_matrix(rng: random.Random, n: int, max_degree: int = 4) -> Mat:
    """A random matrix with polynomial entries and nonzero determinant."""
    while True:
        m = Mat([[random_poly(rng, max_degree) for _ in range(n)] for _ in range(n)])
        if not m.det().is_zero():
            return m


def random_unimodular(rng: random.Random, n: int) -> Mat:
    """A product of elementary operations invertible over the local ring."""
    out = identity(n)
    for _ in range(rng.randint(1, 3)):
        e = [[RatFunc(1 if i == j else 0) for j in range(n)] for i in range(n)]
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            e[i][j] = rng.choice(UNITS)
        else:
            e[i][j] = rng.choice(REGULARS)
        out = matmul(out, Mat(e))
    return out


def random_gluing(rng: random.Random, n: int, max_valuation: int = 5) -> Mat:
    """An invertible gluing: unimodular * diag(t^v) * unimodular.

    Valuations are occasionally negative, which exercises both the
    denominator-clearing shift and the branch-swapping orientation.
    """
    def valuation():
        if rng.random() < 0.3:
            return rng.randint(-max_valuation, max_valuation)
        return rng.randint(0, max_valuation)

    diag = diagonal([t_power(valuation()) for _ in range(n)])
    return matmul(random_unimodular(rng, n), diag, random_unimodular(rng, n))


def _matrix_doc(m: Mat) -> dict:
    return m.to_json_dict()


def random_engine_input(rng: random.Random) -> dict:
    """A randomized pipeline input document the pipeline must succeed on.

    Bounds per the acceptance suite: at most 6 components, at most 3
    torus factors, gluing valuations at most 5. Rational components are
    given enough branches and degree that they can never become torsion,
    and twisted persistent nodes appear only in the single-factor
    self-node configuration where the order-k insertion formulas apply.
    """
    n_factors = rng.randint(1, 3)
    n_comps = rng.randint(2, 5)
    comp_ids = [f"c{i}" for i in range(n_comps)]
    genus = {cid: 2 for cid in comp_ids}

    edges = []
    for i in range(1, n_comps):
        edges.append((comp_ids[rng.randrange(i)], comp_ids[i]))
    for _ in range(rng.randint(0, 2)):
        a = rng.choice(comp_ids)
        b = rng.choice(comp_ids)
        edges.append((a, b))

    branch = {cid: 0 for cid in comp_ids}
    for a, b in edges:
        branch[a] += 1
        branch[b] += 1

    flat = [cid for cid in comp_ids if branch[cid] >= 2]
    if flat and rng.random() < 0.5:
        genus[rng.choice(flat)] = 0
    slim = [cid for cid in comp_ids if branch[cid] >= 1 and genus[cid] == 2]
    if slim and rng.random() < 0.3:
        genus[rng.choice(slim)] = 1

    nodes = []
    gluing = {}
    extra_mu = {}
    for ix, (a, b) in enumerate(edges):
        nid = f"n{ix}"
        persistent = rng.random() < 0.7
        nodes.append({"id": nid, "ends": [a, b], "stab": 1,
                      "persistent": persistent})
        if persistent:
            gluing[nid] = _matrix_doc(random_gluing(rng, n_factors))

    d_list = [rng.randint(1, 3) for _ in range(n_factors)]

    # twisted gadgets (single-factor only): either a twisted self-node,
    # or a destabilizing rational curve whose insertion makes it torsion
    # and contractible
    theta_host = None
    theta_k = 1
    contractible = None
    hosts = [cid for cid in comp_ids if genus[cid] == 2]
    if n_factors == 1 and hosts:
        roll = rng.random()
        if roll < 0.3:
            theta_host = rng.choice(hosts)
            theta_k = rng.choice([2, 3])
            nodes.append({"id": "ntheta", "ends": [theta_host, theta_host],
                          "stab": theta_k, "persistent": True})
            gluing["ntheta"] = _matrix_doc(
                Mat([[t_power(rng.randint(0, 5))]]))
            extra_mu["ntheta"] = theta_k
        elif roll < 0.55:
            k = rng.choice([2, 3])
            d = d_list[0]
            kp_d = (k // gcd(k, d - 1)) * d
            contractible = ("ptheta", k, d)
            comp_ids.append("ptheta")
            genus["ptheta"] = 0
            nodes.append({"id": "tp1", "ends": [rng.choice(hosts), "ptheta"],
                          "stab": k, "persistent": True})
            nodes.append({"id": "tp2", "ends": [rng.choice(hosts), "ptheta"],
                          "stab": kp_d, "persistent": True})
            gluing["tp1"] = _matrix_doc(Mat([[t_power(rng.randint(0, 5))]]))
            gluing["tp2"] = _matrix_doc(Mat([[t_power(rng.randint(0, 5))]]))
            extra_mu["tp1"] = k

    deg_rows = []
    for _ in range(n_factors):
        row = {}
        for cid in comp_ids:
            if contractible and cid == contractible[0]:
                _, k, d = contractible
                row[cid] = str(Fraction(1, d * k))
            elif genus[cid] == 0:
                row[cid] = "25"
            elif cid == theta_host:
                row[cid] = str(Fraction(rng.randint(-6, 6), theta_k))
            else:
                row[cid] = str(rng.randint(-3, 3))
        deg_rows.append(row)

    doc = {
        "components": [{"id": cid, "genus": genus[cid]} for cid in comp_ids],
        "nodes": nodes,
        "markings": [],
        "multidegree": {"factors": n_factors, "deg": deg_rows},
        "grading": {"d": d_list},
        "gluing": gluing,
    }
    if extra_mu:
        doc["extra_mu"] = extra_mu
    return doc


def graph_signature(curve):
    """Shape of the dual graph, forgetting node and marking ids."""
    comps = tuple(sorted((c.id, c.genus) for c in curve.components))
    nodes = tuple(sorted(
        (tuple(sorted(n.ends)), n.stab_order) for n in curve.nodes))
    marks = tuple(sorted((m.comp, m.gerbe_order) for m in curve.markings))
    return comps, nodes, marks


def random_big_graph_input(rng: random.Random) -> dict:
    """A single-factor pipeline input with a large dual graph.

    A random tree of 60-100 genus-2 bodies plus 5-10 extra edges (about
    70% of all edges persistent, glued by t^m with m in [-3, 5]), 6-10
    persistent order-2 self-nodes, and 6-10 rational curves shaped like
    the built-in theta-example-3, which become torsion and contract for
    suitable exponents.
    """
    def power_doc(m):
        return _matrix_doc(Mat([[t_power(m)]]))

    n_bodies = rng.randint(60, 100)
    bodies = [f"b{i}" for i in range(n_bodies)]
    edges = [(bodies[rng.randrange(i)], bodies[i]) for i in range(1, n_bodies)]
    edges += [(rng.choice(bodies), rng.choice(bodies))
              for _ in range(rng.randint(5, 10))]
    d = rng.randint(1, 3)
    components = [{"id": b, "genus": 2} for b in bodies]
    degree = {b: Fraction(rng.randint(-3, 3)) for b in bodies}
    nodes, gluing, extra_mu = [], {}, {}
    for ix, (a, b) in enumerate(edges):
        nid = f"e{ix}"
        persistent = rng.random() < 0.7
        nodes.append({"id": nid, "ends": [a, b], "stab": 1,
                      "persistent": persistent})
        if persistent:
            gluing[nid] = power_doc(rng.randint(-3, 5))
    n_self, n_gadgets = rng.randint(6, 10), rng.randint(6, 10)
    hosts = rng.sample(bodies, n_self + 2 * n_gadgets)
    for ix, host in enumerate(hosts[:n_self]):
        nid = f"s{ix}"
        nodes.append({"id": nid, "ends": [host, host], "stab": 2,
                      "persistent": True})
        gluing[nid] = power_doc(rng.randint(-3, 5))
        extra_mu[nid] = 2
        degree[host] = Fraction(rng.randint(-6, 6), 2)
    for ix in range(n_gadgets):
        host_a, host_b = hosts[n_self + 2 * ix], hosts[n_self + 2 * ix + 1]
        k = rng.choice([2, 3])
        p_id = f"p{ix}"
        components.append({"id": p_id, "genus": 0})
        degree[p_id] = Fraction(1, d * k)
        nodes.append({"id": f"g{ix}a", "ends": [host_a, p_id], "stab": k,
                      "persistent": True})
        nodes.append({"id": f"g{ix}b", "ends": [host_b, p_id],
                      "stab": (k // gcd(k, d - 1)) * d, "persistent": True})
        gluing[f"g{ix}a"] = power_doc(rng.randint(-3, 5))
        gluing[f"g{ix}b"] = power_doc(rng.randint(-3, 5))
        extra_mu[f"g{ix}a"] = k
    return {
        "components": components,
        "nodes": nodes,
        "markings": [],
        "multidegree": {"factors": 1,
                        "deg": [{c: str(v) for c, v in degree.items()}]},
        "grading": {"d": [d]},
        "gluing": gluing,
        "extra_mu": extra_mu,
    }


def random_tree_input(rng: random.Random, bodies: int) -> dict:
    """A single-factor pipeline input on a random tree of genus-2 bodies.

    Every edge is persistent and glued by t^m with m in [1, 3], so each
    one inserts a rational component; degrees are integers in [-3, 3].
    """
    ids = [f"b{i}" for i in range(bodies)]
    nodes, gluing = [], {}
    for i in range(1, bodies):
        nid = f"e{i}"
        nodes.append({"id": nid, "ends": [ids[rng.randrange(i)], ids[i]],
                      "stab": 1, "persistent": True})
        gluing[nid] = _matrix_doc(Mat([[t_power(rng.randint(1, 3))]]))
    return {
        "components": [{"id": b, "genus": 2} for b in ids],
        "nodes": nodes,
        "markings": [],
        "multidegree": {"factors": 1,
                        "deg": [{b: str(rng.randint(-3, 3)) for b in ids}]},
        "grading": {"d": [1]},
        "gluing": gluing,
    }


def snf_probe_matrix() -> Mat:
    """U @ diag(1, t^10, t^10, t^10) @ V for random 4x4 integer quadratics
    U and V (coefficients in [-5, 5] from random.Random(7), U first, row by
    row): the full-transform Smith form probe in tests/data/snf_4x4.json."""
    rng = random.Random(7)

    def quadratics():
        return Mat([[RatFunc(tuple(rng.randint(-5, 5) for _ in range(3)))
                     for _ in range(4)] for _ in range(4)])

    u = quadratics()
    v = quadratics()
    return matmul(u, diagonal([RatFunc(1)] + [t_power(10)] * 3), v)

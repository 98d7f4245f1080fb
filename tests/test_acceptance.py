"""Acceptance suite: every release criterion, one pass/fail line each.

All comparisons are exact (integer and rational arithmetic); there are
no tolerances anywhere. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from stackydeg import (
    AnSing,
    BlowupParams,
    arithmetic_genus,
    degenerate,
    degeneration_input_from_json,
    resolve_An,
    smith_normal_form,
    t_power,
    twisted_blowup,
    validate_twisted_map,
)
from stackydeg.cli import builtin_scenario, main
from stackydeg.engine import contract_torsion_components
from oracle import (
    DESTABILIZING_P1,
    different_degree,
    matmul,
    pushforward_contains,
    quasi_stability_check,
    scale,
    valuation_of_det,
)
from support import random_engine_input, random_regular_matrix, random_unimodular


def _run(cid, desc, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {cid} ({desc}): FAIL")
        raise
    print(f"ACCEPTANCE {cid} ({desc}): PASS")


def _scenario_output(name, **kw):
    return degenerate(degeneration_input_from_json(builtin_scenario(name, **kw)))


# -- C1: golden values of the twisted chain insertion --------------------------


def test_c1_exceptional_chain_golden():
    def body():
        start = time.monotonic()
        out = _scenario_output("theta-example-2", k=2, d=2, m=1)
        elapsed = time.monotonic() - start
        inserted = [r for r in out.log if r["type"] == "insert"]
        assert len(inserted) == 1
        chain = inserted[0]["inserted"]
        assert len(chain) == 1
        assert chain[0]["degree"] == "1/4"
        e_id = chain[0]["component"]
        orders = sorted(n.stab_order for n in out.limit_curve.nodes if e_id in n.ends)
        assert orders == [2, 4]
        assert out.limit_multidegree.degree(0, e_id) == Fraction(1, 4)
        assert elapsed < 1.0

        for k in (2, 3, 4):
            for d in (2, 3, 4):
                sweep = _scenario_output("theta-example-2", k=k, d=d, m=1)
                rec = [r for r in sweep.log if r["type"] == "insert"][0]
                chain = rec["inserted"]
                assert len(chain) == 1
                assert Fraction(chain[0]["degree"]) == Fraction(1, d * k)
                expected_order = (k // gcd(k, d - 1)) * d
                assert chain[0]["smoothing_node"]["stab"] == expected_order

    _run("C1", "exceptional chain degree 1/(dk) and node orders", body)


# -- C2: the two-body bridge needs exactly one schematic insertion -------------


def test_c2_bridge_limit():
    def body():
        out = _scenario_output("two-genus2-bridge")
        inserted = [r for r in out.log if r["type"] == "insert"]
        assert len(inserted) == 1 and inserted[0]["node"] == "n2"
        chain = inserted[0]["inserted"]
        assert len(chain) == 1
        assert abs(Fraction(chain[0]["degree"])) == 1
        e_id = chain[0]["component"]
        assert all(n.stab_order == 1 for n in out.limit_curve.nodes if e_id in n.ends)
        assert out.limit_multidegree.totals(out.limit_curve) == [Fraction(0)]
        assert validate_twisted_map(out.limit_curve, out.limit_multidegree) == []
        assert arithmetic_genus(out.limit_curve) == 5

    _run("C2", "bridge scenario inserts one schematic rational curve", body)


# -- C3: contraction leaves one destabilizing component ------------------------


def test_c3_contraction_scenario():
    def body():
        for k, d, m in [(2, 2, 1), (3, 2, 2), (2, 3, 1)]:
            out = _scenario_output("theta-example-3", k=k, d=d, m=m)
            classes = quasi_stability_check(out.limit_curve)
            destab = [cid for cid, label in classes.items()
                      if label == DESTABILIZING_P1]
            assert len(destab) == 1
            contracts = [r for r in out.log if r["type"] == "contract"]
            assert len(contracts) == 1
            rec = contracts[0]
            a_u = rec["nodes"][0]["sing"]["a"]
            a_v = rec["nodes"][1]["sing"]["a"]
            order = rec["merged_node"]["stab"]
            assert rec["merged_node"]["sing"]["a"] == order * (a_u + a_v)
            assert rec["merged_node"]["sing"]["mu"] == order
            merged = next(n for n in out.limit_curve.nodes
                          if n.id == rec["merged_node"]["id"])
            assert merged.singularity == AnSing(order * (a_u + a_v), order)

    _run("C3", "single destabilizing component and merged singularity", body)


# -- C4: closed formulas -----------------------------------------------------


def test_c4_blowup_formulas():
    def body():
        for m in range(1, 7):
            for d in range(1, 7):
                r = twisted_blowup(BlowupParams(m, d))
                assert r.exceptional_self_intersection == Fraction(-1, m * d)
                assert r.ideal_degree_on_exceptional == Fraction(1, d)
        for a in range(2, 65):
            steps = resolve_An(AnSing(a))
            assert sum(count for _, _, count in steps) == a - 1
            assert len(steps) == a // 2
        assert different_degree(2, 2) == -1
        for km in range(2, 13):
            for kn in range(2, 13):
                assert different_degree(km, kn) >= -1

    _run("C4", "blow-up, resolution and log-canonical formulas", body)


# -- C5: diagonalization properties over the local ring -----------------------


def test_c5_snf_properties():
    def body():
        rng = random.Random(20260810)
        matrices = []
        for i in range(500):
            n = 2 if i % 2 == 0 else 3
            matrices.append(random_regular_matrix(rng, n, max_degree=4))
        for a in matrices:
            r = smith_normal_form(a)
            n = a.rows
            prod = matmul(r.left, scale(a, t_power(r.shift)), r.right)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        assert prod.entries[i][j].val() == r.diag_valuations[i]
                    else:
                        assert prod.entries[i][j].is_zero()
            assert r.left.det().val() == 0
            assert r.right.det().val() == 0
            assert sum(r.diag_valuations) == valuation_of_det(
                scale(a, t_power(r.shift)))
            assert list(r.diag_valuations) == sorted(r.diag_valuations)
        for a in matrices[:100]:
            u = random_unimodular(rng, a.rows)
            v = random_unimodular(rng, a.rows)
            assert (smith_normal_form(matmul(u, a, v)).diag_valuations
                    == smith_normal_form(a).diag_valuations)

    _run("C5", "500 diagonalizations: reconstruction, unimodularity, invariance", body)


# -- C6: pipeline properties on randomized inputs ------------------------------


def test_c6_engine_properties():
    def body():
        rng = random.Random(414243)
        for _ in range(200):
            inp = degeneration_input_from_json(random_engine_input(rng))
            genus = arithmetic_genus(inp.curve)
            totals = inp.multidegree.totals(inp.curve)
            totals_str = [str(x) for x in totals]
            out = degenerate(inp)
            assert arithmetic_genus(out.limit_curve) == genus
            assert out.limit_multidegree.totals(out.limit_curve) == totals
            for record in out.log:
                assert record["totals"] == totals_str
            assert validate_twisted_map(
                out.limit_curve, out.limit_multidegree) == []
            curve2, md2, records = contract_torsion_components(
                out.limit_curve, out.limit_multidegree)
            assert records == [] and curve2 == out.limit_curve
            snf_by_node = {r["node"]: r for r in out.log if r["type"] == "snf"}
            insert_by_node = {r["node"]: r for r in out.log
                              if r["type"] == "insert"}
            for node, snf_rec in snf_by_node.items():
                expected = sum(1 for v in snf_rec["diag_valuations"] if v > 0)
                got = len(insert_by_node[node]["inserted"]) \
                    if node in insert_by_node else 0
                assert got == expected <= inp.multidegree.n_factors

    _run("C6", "200 randomized pipeline runs conserve genus and degrees", body)


# -- C7: containment test against an enumeration oracle ------------------------


def _ideal_members(gen_a, gen_b, bound):
    # all monomials divisible by one of the two generators, grown by
    # repeated multiplication inside the bounding box
    members = set()
    frontier = []
    for seed in ((gen_a, 0), (0, gen_b)):
        if seed[0] <= bound and seed[1] <= bound:
            members.add(seed)
            frontier.append(seed)
    while frontier:
        x, y = frontier.pop()
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt[0] <= bound and nxt[1] <= bound and nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return members


def test_c7_pushforward_oracle():
    def body():
        bound = 40
        for m in range(1, 7):
            for d in range(1, 7):
                p = BlowupParams(m, d)
                for k in range(1, 7):
                    members = _ideal_members(m * k, -(-k // d), bound)
                    for a_pi in range(bound + 1):
                        for a_y in range(bound + 1):
                            assert pushforward_contains(p, k, (a_pi, a_y)) == (
                                (a_pi, a_y) in members)
                for k in (0, -1, -5):
                    assert pushforward_contains(p, k, (0, 0))
                    assert pushforward_contains(p, k, (bound, bound))

    _run("C7", "containment test agrees with the enumeration oracle", body)


# -- C8: byte-identical artifacts ----------------------------------------------


def test_c8_determinism(tmp_path):
    def body():
        cases = [
            ("theta-example-1", []),
            ("theta-example-2", ["--k", "3", "--d", "4", "--m", "2"]),
            ("theta-example-3", ["--k", "2", "--d", "2", "--m", "1"]),
            ("two-genus2-bridge", []),
        ]
        for name, extra in cases:
            artifacts = []
            for attempt in ("first", "second"):
                base = tmp_path / f"{name}-{attempt}"
                base.mkdir()
                code = main(["scenario", name, *extra,
                             "--out", str(base / "out.json"),
                             "--dot", str(base / "graph.dot"),
                             "--log", str(base / "steps.json")])
                assert code == 0
                artifacts.append(tuple(
                    (base / f).read_bytes()
                    for f in ("out.json", "graph.dot", "steps.json")))
            assert artifacts[0] == artifacts[1]
            json.loads(artifacts[0][0])  # artifacts are well-formed JSON

    _run("C8", "re-running scenarios yields byte-identical artifacts", body)

import random
from fractions import Fraction

import pytest

from stackydeg import (
    AnSing,
    Component,
    DegenerationInput,
    EngineError,
    GradingSpec,
    Mat,
    MultiDegree,
    Node,
    SchemaError,
    SingularMatrixError,
    TorsionContractionError,
    TwistedCurve,
    arithmetic_genus,
    degenerate,
    degeneration_input_from_json,
    parse_ratfunc,
    smith_normal_form,
    validate_twisted_map,
)
from stackydeg.cli import builtin_scenario
from stackydeg.engine import (
    _WorkingState,
    contract_torsion_components,
    insert_exceptional_chain,
)
from support import graph_signature, random_engine_input, random_gluing

rf = parse_ratfunc


def mat(rows):
    return Mat([[rf(x) for x in row] for row in rows])


# -- insertion parameters: the snf record of a run ----------------------------

def snf_record(entries, d):
    """The snf record of a run on two genus-2 bodies joined at one
    persistent node glued by ``entries``; the pipeline inserts with the
    parameters zip(diag_valuations, d)."""
    n = len(d)
    inp = DegenerationInput(
        curve=TwistedCurve([Component("A", 2), Component("B", 2)],
                           [Node("n", ("A", "B"), persistent=True)]),
        multidegree=MultiDegree(n), grading=GradingSpec(d=d),
        gluing={"n": mat(entries)})
    return next(r for r in degenerate(inp).log if r["type"] == "snf")


def test_parameters_single_valuation():
    rec = snf_record([["t^3"]], (1,))
    assert (rec["diag_valuations"], rec["d"]) == ([3], [1])


def test_parameters_from_snf():
    rec = snf_record([["t", "t"], ["t", "t^3"]], (2, 2))
    assert (rec["diag_valuations"], rec["d"]) == ([1, 1], [2, 2])


def test_parameters_unit_no_insertion():
    rec = snf_record([["t+1"]], (5,))
    assert (rec["diag_valuations"], rec["d"]) == ([0], [5])


def test_parameters_singular_rejected():
    with pytest.raises(SingularMatrixError):
        snf_record([["t", "t"], ["t", "t"]], (1, 1))


# -- normalization: the normalize record of a run --------------------------------

def normalize_record(m1, m2, k):
    """The normalize record of a theta-example-3 run with gluings t^m1 at
    n1 and t^m2 at n2 and extra_mu k at n1; None when nothing moved."""
    doc = builtin_scenario("theta-example-3", k=k)
    doc["gluing"] = {"n1": {"rows": 1, "cols": 1, "entries": [[f"t^{m1}"]]},
                     "n2": {"rows": 1, "cols": 1, "entries": [[f"t^{m2}"]]}}
    log = degenerate(degeneration_input_from_json(doc)).log
    return next((r for r in log if r["type"] == "normalize"), None)


def test_normalize_plain_difference():
    rec = normalize_record(5, 3, 2)
    assert (rec["before"], rec["after"], rec["step"]) == ([5, 3], [2, 0], 2)


def test_normalize_identity():
    assert normalize_record(0, 0, 4) is None


def test_normalize_negative_repaired_in_steps():
    assert normalize_record(1, 4, 3)["after"] == [0, 0]
    assert normalize_record(1, 5, 3)["after"] == [2, 0]


# -- insert_exceptional_chain -------------------------------------------------------

def insert(curve, md, node_id, params, extra_mu=None):
    """One insertion on a working state of (curve, md); returns the state
    frozen afterwards and the chain description."""
    state = _WorkingState(curve, md)
    info = insert_exceptional_chain(state, node_id, params, extra_mu)
    return state.freeze(), MultiDegree(state.n_factors, state.deg), info


def test_insert_theta_variant():
    c = TwistedCurve([Component("C", 2)],
                     [Node("n1", ("C", "C"), stab_order=2, persistent=True)])
    md = MultiDegree(1, {(0, "C"): 1})
    c2, md2, info = insert(c, md, "n1", [(1, 2)], extra_mu=2)
    assert len(info["inserted"]) == 1
    e_id = info["inserted"][0]["component"]
    assert md2.degree(0, e_id) == Fraction(1, 4)
    assert md2.degree(0, "C") == Fraction(3, 4)
    orders = sorted(n.stab_order for n in c2.nodes if e_id in n.ends)
    assert orders == [2, 4]
    assert arithmetic_genus(c2) == arithmetic_genus(c)


def test_insert_schematic():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    md = MultiDegree(1)
    c2, md2, info = insert(c, md, "n", [(1, 1)])
    e_id = info["inserted"][0]["component"]
    assert md2.degree(0, e_id) == 1
    assert md2.degree(0, "B") == -1      # the blown-up branch pays
    assert all(n.stab_order == 1 for n in c2.nodes if e_id in n.ends)
    assert md2.totals(c2) == md.totals(c)


def test_insert_noop_when_all_zero():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    md = MultiDegree(1)
    c2, md2, info = insert(c, md, "n", [(0, 3)])
    assert info is None and c2 == c and md2 == md


def test_insert_multi_factor_chain_order():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    md = MultiDegree(2)
    c2, md2, info = insert(c, md, "n", [(1, 2), (3, 3)])
    assert [rec["factor"] for rec in info["inserted"]] == [1, 2]
    e1, e2 = (rec["component"] for rec in info["inserted"])
    # chain walks away from the blown-up branch B: B - e1 - e2 - A
    assert {tuple(sorted(n.ends)) for n in c2.nodes} == {
        tuple(sorted((e1, "B"))), tuple(sorted((e1, e2))), tuple(sorted((e2, "A")))}
    # factor 2 is paid by the previously inserted component
    assert md2.degree(1, e1) == Fraction(-1, 3)
    assert md2.degree(1, e2) == Fraction(1, 3)
    assert md2.degree(0, "B") == Fraction(-1, 2)
    assert validate_twisted_map(c2, md2) == []
    assert arithmetic_genus(c2) == 4


def test_insert_non_persistent_rejected():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=False)])
    with pytest.raises(EngineError):
        insert(c, MultiDegree(1), "n", [(1, 1)])


def test_insert_records_smoothing_singularity():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    _, _, info = insert(c, MultiDegree(1), "n", [(4, 3)])
    q = info["inserted"][0]["smoothing_node"]
    assert q["stab"] == 3 and q["sing"] == {"a": 4, "mu": 3}


# -- contract_torsion_components -------------------------------------------------------

def test_contract_no_torsion_fixed_point():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"))])
    md = MultiDegree(1, {(0, "A"): 1})
    c2, md2, records = contract_torsion_components(c, md)
    assert records == [] and c2 == c and md2 == md


def test_contract_chain_of_two():
    c = TwistedCurve(
        [Component("A", 2), Component("X1", 0), Component("X2", 0),
         Component("B", 2)],
        [Node("u1", ("A", "X1")), Node("u2", ("X1", "X2")),
         Node("u3", ("X2", "B"))],
    )
    md = MultiDegree(1, {(0, "A"): 2})
    genus = arithmetic_genus(c)
    c2, md2, records = contract_torsion_components(c, md)
    assert [r["component"] for r in records] == ["X1", "X2"]
    assert {x.id for x in c2.components} == {"A", "B"}
    assert len(c2.nodes) == 1
    assert arithmetic_genus(c2) == genus
    assert md2.totals(c2) == md.totals(c)


def test_contract_merges_singularity_records():
    c = TwistedCurve(
        [Component("A", 2), Component("X", 0), Component("B", 2)],
        [Node("u", ("A", "X"), stab_order=4, singularity=AnSing(1, 4)),
         Node("v", ("X", "B"), stab_order=4, singularity=AnSing(2, 4))],
    )
    c2, _, records = contract_torsion_components(c, MultiDegree(1, {(0, "A"): 1}))
    merged = c2.nodes[-1]
    assert merged.stab_order == 4
    assert merged.singularity == AnSing(12, 4)
    assert records[0]["merged_node"]["sing"] == {"a": 12, "mu": 4}


def test_contract_unequal_orders_hard_error():
    c = TwistedCurve(
        [Component("A", 2), Component("X", 0), Component("B", 2)],
        [Node("u", ("A", "X"), stab_order=2), Node("v", ("X", "B"), stab_order=3)],
    )
    with pytest.raises(TorsionContractionError):
        contract_torsion_components(c, MultiDegree(1, {(0, "A"): 1}))


def test_contract_skips_marked_component():
    from stackydeg import Marking
    c = TwistedCurve(
        [Component("A", 2), Component("X", 0), Component("B", 2)],
        [Node("u", ("A", "X")), Node("v", ("X", "B"))],
        [Marking("p", "X")],
    )
    c2, _, records = contract_torsion_components(c, MultiDegree(1, {(0, "A"): 1}))
    assert records == [] and c2 == c


# -- insertion/contraction duality ------------------------------------------------------

def test_insert_then_contract_recovers_graph():
    c = TwistedCurve([Component("A", 2), Component("B", 1)],
                     [Node("n", ("A", "B"), persistent=True),
                      Node("m", ("A", "B"), persistent=False)])
    md = MultiDegree(1, {(0, "A"): 1})
    c2, md2, info = insert(c, md, "n", [(3, 1)])
    assert md2 == MultiDegree(1, {(0, "A"): 1, (0, "B"): -1,
                                  (0, info["inserted"][0]["component"]): 1})
    # give the inserted degree back to B: the inserted component is torsion
    c3, _, records = contract_torsion_components(c2, MultiDegree(1, {(0, "A"): 1}))
    assert len(records) == 1
    assert graph_signature(c3) == graph_signature(c)
    assert arithmetic_genus(c3) == arithmetic_genus(c)


# -- degenerate -------------------------------------------------------------------------

def bridge_input():
    return degeneration_input_from_json(builtin_scenario("two-genus2-bridge"))


def test_degenerate_bridge():
    out = degenerate(bridge_input())
    inserted = [r for r in out.log if r["type"] == "insert"]
    assert len(inserted) == 1 and inserted[0]["node"] == "n2"
    assert abs(Fraction(inserted[0]["inserted"][0]["degree"])) == 1
    assert validate_twisted_map(out.limit_curve, out.limit_multidegree) == []
    assert arithmetic_genus(out.limit_curve) == 5
    assert out.limit_multidegree.totals(out.limit_curve) == [Fraction(0)]


def test_degenerate_unimodular_is_identity():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    inp = DegenerationInput(
        curve=c,
        multidegree=MultiDegree(1, {(0, "A"): 1}),
        grading=GradingSpec(d=(1,)),
        gluing={"n": mat([["t+1"]])},
    )
    out = degenerate(inp)
    assert out.limit_curve == c
    assert not [r for r in out.log if r["type"] in ("insert", "contract")]


def test_input_defaults_are_read_only():
    # one default mapping serves every input, so it must refuse edits
    c = TwistedCurve([Component("A", 2)])
    inp = DegenerationInput(c, MultiDegree(1, {(0, "A"): 1}), GradingSpec(d=(1,)))
    for default in (inp.gluing, inp.extra_mu):
        assert dict(default) == {}
        with pytest.raises(TypeError):
            default["n"] = 1
    assert degenerate(inp).limit_curve == c


def test_degenerate_theta_example_matches_golden():
    doc = builtin_scenario("theta-example-2", k=2, d=2, m=1)
    out = degenerate(degeneration_input_from_json(doc))
    inserted = [r for r in out.log if r["type"] == "insert"]
    assert len(inserted) == 1
    rec = inserted[0]["inserted"][0]
    assert rec["degree"] == "1/4"
    assert rec["smoothing_node"]["stab"] == 4
    assert inserted[0]["persistent_node"]["stab"] == 2


def test_degenerate_negative_valuation_swaps_branch():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    inp = DegenerationInput(
        curve=c,
        multidegree=MultiDegree(1, {(0, "A"): 1}),
        grading=GradingSpec(d=(1,)),
        gluing={"n": mat([["1/t^2"]])},
    )
    out = degenerate(inp)
    snf = next(r for r in out.log if r["type"] == "snf")
    assert snf["oriented"] == "swapped"
    assert snf["diag_valuations"] == [2]
    insert = next(r for r in out.log if r["type"] == "insert")
    # after the swap the blown-up branch is A
    assert insert["inserted"][0]["lost_by"] == "A"
    assert out.limit_multidegree.degree(0, "A") == 0


def test_degenerate_snf_record_matches_full_transform_oracle():
    # the engine never inverts: a swapped node's record must still be the
    # one the full-transform form of g^-1 gives, and a kept one that of g
    rng = random.Random(2718)
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    seen = set()
    for _ in range(40):
        k = rng.randint(1, 3)
        g = random_gluing(rng, k)
        swapped = g.det().val() < 0
        seen.add(swapped)
        out = degenerate(DegenerationInput(
            curve=c, multidegree=MultiDegree(k, {}),
            grading=GradingSpec(d=(1,) * k), gluing={"n": g}))
        record = next(r for r in out.log if r["type"] == "snf")
        oracle = smith_normal_form(g.inverse() if swapped else g)
        assert record["oriented"] == ("swapped" if swapped else "kept")
        assert record["shift"] == oracle.shift
        assert record["diag_valuations"] == list(oracle.diag_valuations)
    assert seen == {True, False}


def test_degenerate_missing_gluing_rejected():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    inp = DegenerationInput(
        curve=c, multidegree=MultiDegree(1, {(0, "A"): 1}),
        grading=GradingSpec(d=(1,)),
    )
    with pytest.raises(SchemaError) as exc:
        degenerate(inp)
    assert exc.value.pointer == "/gluing"


def test_degree_on_unknown_component_rejected():
    # the degree on 'Z' used to vanish from the totals and the output
    inp = DegenerationInput(
        curve=TwistedCurve([Component("A", 2)]),
        multidegree=MultiDegree(1, {(0, "A"): 1, (0, "Z"): 5}),
        grading=GradingSpec(d=[1]),
    )
    with pytest.raises(SchemaError) as exc:
        inp.validate()
    assert exc.value.pointer == "/multidegree/deg/0/Z"
    with pytest.raises(SchemaError) as exc:
        degenerate(inp)
    assert exc.value.pointer == "/multidegree/deg/0/Z"


def test_degenerate_singular_gluing_rejected():
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    inp = DegenerationInput(
        curve=c, multidegree=MultiDegree(1, {(0, "A"): 1}),
        grading=GradingSpec(d=(1,)),
        gluing={"n": mat([["0"]])},
    )
    with pytest.raises(SingularMatrixError, match="gluing at node 'n' is singular"):
        degenerate(inp)


def test_degenerate_invalid_input_curve_rejected():
    # a dangling rational tail is never quasi stable
    c = TwistedCurve([Component("A", 0), Component("B", 2)],
                     [Node("n", ("A", "B"), persistent=True)])
    inp = DegenerationInput(
        curve=c, multidegree=MultiDegree(1, {(0, "A"): 1}),
        grading=GradingSpec(d=(1,)),
        gluing={"n": mat([["1"]])},
    )
    with pytest.raises(EngineError):
        degenerate(inp)


def test_degenerate_normalization_collapses_double_insertion():
    doc = builtin_scenario("theta-example-3", k=2, d=2, m=1)
    out = degenerate(degeneration_input_from_json(doc))
    normalized = [r for r in out.log if r["type"] == "normalize"]
    assert normalized and normalized[0]["after"] == [1, 0]
    destab = [c.id for c in out.limit_curve.components
              if c.genus == 0]
    assert len(destab) == 1
    contracts = [r for r in out.log if r["type"] == "contract"]
    assert len(contracts) == 1


def test_degenerate_rejects_degree_below_local_order_bound():
    # a degree 1/3 next to an order-4 node, on a disconnected curve: the
    # graph conditions come first, then the denominators
    c = TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("n", ("A", "A"), stab_order=4)])
    inp = DegenerationInput(c, MultiDegree(1, {(0, "A"): Fraction(1, 3)}),
                            GradingSpec(d=(1,)))
    with pytest.raises(EngineError) as exc:
        degenerate(inp)
    assert str(exc.value) == (
        "input is not a twisted map: the dual graph is not connected; "
        "factor 0: degree 1/3 does not clear the local order bound 4")


def test_degenerate_random_inputs_conserve_everything():
    rng = random.Random(99)
    for _ in range(30):
        inp = degeneration_input_from_json(random_engine_input(rng))
        genus = arithmetic_genus(inp.curve)
        totals = inp.multidegree.totals(inp.curve)
        out = degenerate(inp)
        assert arithmetic_genus(out.limit_curve) == genus
        assert out.limit_multidegree.totals(out.limit_curve) == totals
        for record in out.log:
            assert record["totals"] == [str(x) for x in totals]
        assert validate_twisted_map(out.limit_curve, out.limit_multidegree) == []
        # contraction is idempotent on the emitted curve
        c2, _, records = contract_torsion_components(
            out.limit_curve, out.limit_multidegree)
        assert records == [] and c2 == out.limit_curve

import itertools
import random
import re
from fractions import Fraction

import pytest

from stackydeg import (
    AnSing,
    Component,
    CurveError,
    GradingSpec,
    Marking,
    MultiDegree,
    Node,
    SchemaError,
    TwistedCurve,
    arithmetic_genus,
    degenerate,
    degeneration_input_from_json,
    is_torsion_on_component,
    validate_twisted_map,
)
import oracle
from oracle import (
    DESTABILIZING_P1,
    STABLE,
    VIOLATION,
    is_connected,
    omega_degrees,
    quasi_stability_check,
)
from support import random_big_graph_input, random_engine_input, random_tree_input


def two_genus2_two_nodes():
    return TwistedCurve(
        [Component("A", 2), Component("B", 2)],
        [Node("n1", ("A", "B"), persistent=True),
         Node("n2", ("A", "B"), persistent=True)],
    )


# -- arithmetic genus ----------------------------------------------------------

def test_genus_single_component():
    c = TwistedCurve([Component("A", 2)])
    assert arithmetic_genus(c) == 2


def test_genus_two_bodies_two_nodes():
    # 2 + 2 plus first Betti number 2 - 2 + 1 = 1
    assert arithmetic_genus(two_genus2_two_nodes()) == 5


def test_genus_self_node():
    c = TwistedCurve([Component("A", 0)], [Node("n", ("A", "A"))])
    assert arithmetic_genus(c) == 1


def test_genus_disconnected_is_one_minus_chi():
    # 1 - χ(O_C) = Σ genus + #nodes - #components + 1, connected or not
    assert arithmetic_genus(TwistedCurve([Component("A", 1), Component("B", 1)])) == 1
    assert arithmetic_genus(TwistedCurve([Component("A", 0), Component("B", 0)])) == -1


# -- dualizing degree ----------------------------------------------------------

def test_omega_two_branches():
    c = TwistedCurve([Component("A", 0), Component("B", 1), Component("C", 1)],
                     [Node("n1", ("A", "B")), Node("n2", ("A", "C"))])
    assert omega_degrees(c) == {"A": 0, "B": 1, "C": 1}


def test_omega_no_nodes():
    c = TwistedCurve([Component("A", 2)])
    assert omega_degrees(c) == {"A": 2}


def test_omega_node_plus_marking():
    c = TwistedCurve([Component("A", 0), Component("B", 2)],
                     [Node("n", ("A", "B"))],
                     [Marking("p", "A")])
    assert omega_degrees(c) == {"A": 0, "B": 3}


def test_omega_self_node_counts_twice():
    c = TwistedCurve([Component("A", 0)], [Node("n", ("A", "A"))])
    assert omega_degrees(c) == {"A": 0}


# -- stability classification ---------------------------------------------------

def test_quasi_stability_classification():
    c = TwistedCurve([Component("A", 0), Component("B", 2), Component("C", 2)],
                     [Node("n1", ("A", "B")), Node("n2", ("A", "C"))])
    classes = quasi_stability_check(c)
    assert classes["A"] == DESTABILIZING_P1
    assert classes["B"] == STABLE


def test_quasi_stability_violation_dangling():
    c = TwistedCurve([Component("A", 0), Component("B", 2)],
                     [Node("n", ("A", "B"))])
    assert quasi_stability_check(c)["A"] == VIOLATION


def test_quasi_stability_zero_positive_genus_violates():
    c = TwistedCurve([Component("A", 1)])
    assert quasi_stability_check(c)["A"] == VIOLATION


# -- torsion -------------------------------------------------------------------

def test_torsion_all_zero():
    md = MultiDegree(2)
    assert is_torsion_on_component(md, "A")


def test_torsion_single_nonzero_factor():
    md = MultiDegree(1, {(0, "A"): Fraction(1, 4)})
    assert not is_torsion_on_component(md, "A")


def test_torsion_mixed_factors():
    md = MultiDegree(2, {(1, "A"): Fraction(-1, 3)})
    assert not is_torsion_on_component(md, "A")


# -- validation ----------------------------------------------------------------

def test_validate_good_curve():
    c = two_genus2_two_nodes()
    md = MultiDegree(1, {(0, "A"): 1})
    assert validate_twisted_map(c, md) == []


def test_validate_torsion_destabilizing():
    c = TwistedCurve([Component("A", 0), Component("B", 2), Component("C", 2)],
                     [Node("n1", ("A", "B")), Node("n2", ("A", "C"))])
    md = MultiDegree(1)
    kinds = [v.kind for v in validate_twisted_map(c, md)]
    assert kinds == ["cond4-torsion-destabilizing"]


def test_validate_disconnected():
    c = TwistedCurve([Component("A", 2), Component("B", 2)])
    kinds = [v.kind for v in validate_twisted_map(c, MultiDegree(1))]
    assert "cond1-disconnected" in kinds


# -- differential: the one-walk check against the reference ---------------------

def _mutants(rng, curve, md):
    """The curve and degrees, then one variant per edit that can break a
    twisted map: a node dropped, a genus raised or lowered, a marking
    added (alone, and with a degree only its order clears), and the
    degrees of the destabilizing components zeroed."""
    comps, nodes, marks = list(curve.components), list(curve.nodes), list(curve.markings)
    yield curve, md
    if nodes:
        drop = rng.randrange(len(nodes))
        yield TwistedCurve(comps, nodes[:drop] + nodes[drop + 1:], marks), md
    ix = rng.randrange(len(comps))
    for step in (1, -1):
        genus = comps[ix].genus + step
        if genus >= 0:
            bent = comps[:ix] + [Component(comps[ix].id, genus)] + comps[ix + 1:]
            yield TwistedCurve(bent, nodes, marks), md
    extra = Marking("extra", rng.choice(comps).id, rng.randint(2, 4))
    marked = TwistedCurve(comps, nodes, marks + [extra])
    yield marked, md
    # a degree that only the new marking's gerbe order clears
    yield marked, MultiDegree(md.n_factors, {
        **md.nonzero(), (0, extra.comp): Fraction(1, extra.gerbe_order)})
    flat = {cid for cid, label in quasi_stability_check(curve).items()
            if label == DESTABILIZING_P1}
    if flat:
        kept = {key: x for key, x in md.nonzero().items() if key[1] not in flat}
        yield curve, MultiDegree(md.n_factors, kept)


def test_validate_matches_reference_on_seeded_curves():
    rng = random.Random(20261020)
    docs = [random_engine_input(rng) for _ in range(150)]
    docs += [random_big_graph_input(rng) for _ in range(4)]
    docs += [random_tree_input(rng, rng.randint(2, 40)) for _ in range(20)]
    kinds = set()
    cases = 0
    for doc in docs:
        inp = degeneration_input_from_json(doc)
        out = degenerate(inp)
        for curve, md in ((inp.curve, inp.multidegree),
                          (out.limit_curve, out.limit_multidegree)):
            for mutant, degrees in _mutants(rng, curve, md):
                expected = oracle.validate_twisted_map(mutant, degrees)
                assert validate_twisted_map(mutant, degrees) == expected
                kinds.update(v.kind for v in expected)
                cases += 1
    assert cases > 1500
    assert kinds == {"cond1-disconnected", "cond2-unstable",
                     "cond4-torsion-destabilizing", "degree-denominator"}


# -- degree denominators ---------------------------------------------------------

def test_denominator_invariant():
    self_node = TwistedCurve([Component("A", 2)], [Node("n", ("A", "A"), stab_order=4)])
    marked = TwistedCurve([Component("A", 2)], [], [Marking("p", "A", 3)])
    # orders 2 and 3 allow 1/6 on both ends, which neither order alone allows
    two_nodes = TwistedCurve([Component("A", 2), Component("B", 2)],
                             [Node("n1", ("A", "B"), 2), Node("n2", ("A", "B"), 3)])
    bad = ["degree-denominator"]
    for curve, degrees, kinds in [
        (self_node, {"A": "3/4"}, []),
        (self_node, {"A": "1/3"}, bad),
        (marked, {"A": "2/3"}, []),
        (marked, {"A": "1/2"}, bad),
        (two_nodes, {"A": "1/6", "B": "-1/6"}, []),
        (two_nodes, {"A": "1/12", "B": "-1/12"}, bad * 2),
    ]:
        md = MultiDegree(1, {(0, comp): Fraction(x) for comp, x in degrees.items()})
        assert [v.kind for v in validate_twisted_map(curve, md)] == kinds
    [v] = validate_twisted_map(self_node, MultiDegree(1, {(0, "A"): Fraction(1, 3)}))
    assert (v.subject, v.detail) == (
        "A", "factor 0: degree 1/3 does not clear the local order bound 4")


# -- degree strings ----------------------------------------------------------------

def test_degree_strings_read_exactly_the_printed_grammar():
    grammar = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
    for n in range(5):
        for chars in itertools.product("01+-/.e _", repeat=n):
            text = "".join(chars)
            expected = (grammar.fullmatch(text) is not None
                        and int(text.partition("/")[2] or 1) != 0)
            try:
                md = MultiDegree.from_json_dict({"factors": 1, "deg": [{"A": text}]})
            except SchemaError as exc:
                assert not expected, text
                assert exc.pointer == "/deg/0/A"
            else:
                assert expected, text
                assert md.degree(0, "A") == Fraction(text)
    md = MultiDegree.from_json_dict({"factors": 1, "deg": [{"A": "-2/4", "B": 5}]})
    assert (md.degree(0, "A"), md.degree(0, "B")) == (Fraction(-1, 2), 5)


# -- structure checks ------------------------------------------------------------

def test_duplicate_ids_rejected():
    with pytest.raises(CurveError, match="duplicate component id 'A'"):
        TwistedCurve([Component("A", 0), Component("A", 1)])
    with pytest.raises(CurveError, match="duplicate node id 'n'"):
        TwistedCurve([Component("A", 0)],
                     [Node("n", ("A", "A")), Node("n", ("A", "A"))])
    with pytest.raises(CurveError, match="duplicate marking id 'p'"):
        TwistedCurve([Component("A", 0)], [],
                     [Marking("p", "A"), Marking("p", "A")])


def test_unknown_endpoint_rejected():
    with pytest.raises(CurveError, match="ends on unknown component 'B'"):
        TwistedCurve([Component("A", 0)], [Node("n", ("A", "B"))])
    # a component left out while a node or a marking still names it
    with pytest.raises(CurveError, match="ends on unknown component 'X'"):
        TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("u", ("A", "X")), Node("w", ("A", "B"))])
    with pytest.raises(CurveError, match="sits on unknown component 'X'"):
        TwistedCurve([Component("A", 2)], [], [Marking("p", "X")])


def test_invalid_parts_rejected():
    with pytest.raises(CurveError, match="at least one component"):
        TwistedCurve([])
    with pytest.raises(CurveError, match="negative genus"):
        TwistedCurve([Component("A", 2), Component("Y", -1)])
    with pytest.raises(CurveError, match="stabilizer order"):
        TwistedCurve([Component("A", 2), Component("B", 2)],
                     [Node("z", ("A", "B"), 0)])
    with pytest.raises(CurveError, match="gerbe order"):
        TwistedCurve([Component("A", 2)], [], [Marking("p", "A", 0)])
    with pytest.raises(CurveError, match="factor index 2 out of range"):
        MultiDegree(2, {(2, "A"): 1})
    with pytest.raises(CurveError, match="at least one factor"):
        MultiDegree(0)


def test_global_omega_identity_random():
    # sum of componentwise dualizing degrees = 2g - 2 + #markings
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        comps = [Component(f"c{i}", rng.randint(0, 3)) for i in range(n)]
        nodes = [Node(f"n{i}", (f"c{rng.randrange(i + 1) if i < n else 0}",
                                f"c{min(i, n - 1)}"))
                 for i in range(1, n)]
        nodes += [Node(f"x{j}", (rng.choice(comps).id, rng.choice(comps).id))
                  for j in range(rng.randint(0, 3))]
        marks = [Marking(f"p{j}", rng.choice(comps).id, rng.randint(1, 3))
                 for j in range(rng.randint(0, 2))]
        c = TwistedCurve(comps, nodes, marks)
        if not is_connected(c):
            continue
        total = sum(omega_degrees(c).values())
        assert total == 2 * arithmetic_genus(c) - 2 + len(marks)


# -- serialization ----------------------------------------------------------------

def test_curve_json_roundtrip():
    c = TwistedCurve(
        [Component("A", 2), Component("B", 0)],
        [Node("n", ("A", "B"), stab_order=3, persistent=True,
              singularity=AnSing(2, 3))],
        [Marking("p", "A", 2)],
    )
    assert TwistedCurve.from_json_dict(c.to_json_dict()) == c


def test_curve_json_pointer_on_bad_field():
    doc = {"components": [{"id": "A", "genus": -1}], "nodes": [], "markings": []}
    with pytest.raises(SchemaError) as exc:
        TwistedCurve.from_json_dict(doc)
    assert exc.value.pointer == "/components/0/genus"


def test_curve_json_integer_ids_coerced():
    doc = {"components": [{"id": 1, "genus": 2}],
           "nodes": [{"id": 2, "ends": [1, 1], "stab": 1, "persistent": False}],
           "markings": []}
    c = TwistedCurve.from_json_dict(doc)
    assert c.components[0].id == "1"
    assert c.nodes[0].ends == ("1", "1")


def test_dot_export_mentions_labels():
    c = two_genus2_two_nodes()
    md = MultiDegree(1, {(0, "A"): Fraction(1, 4)})
    dot = c.to_dot(md)
    assert "g=2" in dot and "μ_1" in dot and "1/4" in dot


# -- grading ----------------------------------------------------------------------

def test_grading_from_weights():
    g = GradingSpec(weights=[(1, -3), (2,)])
    assert g.d == (3, 2)
    assert g.d_sources() == ("weights", "weights")


def test_grading_weight_mismatch_rejected():
    with pytest.raises(CurveError):
        GradingSpec(d=(2,), weights=[(1, -3)])


def test_grading_minimal_bound_enforced():
    g = GradingSpec(d=(3, 1), weights=[(1, -3), None])
    assert g.d_sources() == ("weights", "given")

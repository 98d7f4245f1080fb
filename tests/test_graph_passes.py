"""The graph passes at scale, against naive references.

Curves made by the engine come from the private edit path, which copies
its parent's indexes and checks only what changed; these tests compare
it with the validating constructor, the incidence lookups with full
scans, the one-pass contraction with a restart-from-the-first-component
reference, and every logged total with a from-scratch sum.
"""

import random
from fractions import Fraction

import pytest

from stackydeg import (
    AnSing,
    Component,
    Marking,
    MultiDegree,
    Node,
    TorsionContractionError,
    TwistedCurve,
    contract_singularity,
    degenerate,
    degeneration_input_from_json,
)
from stackydeg import engine
from support import random_big_graph_input

CORPUS_SEEDS = range(8)


def naive_incidence(curve, comp_id):
    return (
        tuple(n for n in curve.nodes if comp_id in n.ends),
        sum(n.ends.count(comp_id) for n in curve.nodes),
        tuple(m for m in curve.markings if m.comp == comp_id),
    )


def indexed_incidence(curve, comp_id):
    return (curve.nodes_on(comp_id), curve.branch_count(comp_id),
            curve.markings_on(comp_id))


def restart_contract(curve, md):
    """Contract torsion rational two-noded components one at a time,
    restarting from the first component after every merge; every curve
    goes through the validating constructor and every total is summed
    from scratch."""
    records = []
    while True:
        for comp in curve.components:
            nodes, branches, marks = naive_incidence(curve, comp.id)
            incident = [n for n in nodes if n.ends[0] != n.ends[1]]
            if (comp.genus == 0 and not marks and branches == 2
                    and len(incident) == 2
                    and all(md.degree(k, comp.id) == 0 for k in range(md.n_factors))):
                break
        else:
            return curve, md, records
        u, v = sorted(incident, key=lambda n: n.id)
        if u.stab_order != v.stab_order:
            raise TorsionContractionError(f"unequal orders at {comp.id!r}")
        k = u.stab_order
        rec_u = u.singularity or AnSing(1, k)
        rec_v = v.singularity or AnSing(1, k)
        merged = contract_singularity(rec_u, rec_v, k)
        other_u = u.ends[0] if u.ends[1] == comp.id else u.ends[1]
        other_v = v.ends[0] if v.ends[1] == comp.id else v.ends[1]
        node_ids = {n.id for n in curve.nodes}
        w_id = f"{u.id}+{v.id}"
        while w_id in node_ids:
            w_id += "'"
        curve = TwistedCurve(
            [c for c in curve.components if c.id != comp.id],
            [n for n in curve.nodes if n.id not in (u.id, v.id)]
            + [Node(w_id, (other_u, other_v), k, False, merged)],
            curve.markings,
        )
        md = MultiDegree(md.n_factors, {
            (k_, c.id): md.degree(k_, c.id)
            for c in curve.components for k_ in range(md.n_factors)
        })
        records.append({
            "type": "contract",
            "component": comp.id,
            "nodes": [
                {"id": u.id, "stab": u.stab_order, "sing": rec_u.to_json_dict()},
                {"id": v.id, "stab": v.stab_order, "sing": rec_v.to_json_dict()},
            ],
            "merged_node": {"id": w_id, "stab": k, "ends": [other_u, other_v],
                            "sing": merged.to_json_dict()},
            "totals": [str(x) for x in md.totals(curve)],
        })


@pytest.fixture(scope="module")
def traced_corpus():
    """Run the pipeline on the large-graph corpus, keeping every curve the
    edit path made, every insertion result and every call into the
    contraction pass."""
    edited, inserted, contract_calls, runs = [], [], [], []
    edit = TwistedCurve._edit
    insert = engine.insert_exceptional_chain
    contract = engine.contract_torsion_components

    def recording_edit(curve, *args, **kwargs):
        out = edit(curve, *args, **kwargs)
        edited.append(out)
        return out

    def recording_insert(*args):
        out = insert(*args)
        inserted.append(out)
        return out

    def recording_contract(curve, md):
        out = contract(curve, md)
        contract_calls.append(((curve, md), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TwistedCurve, "_edit", recording_edit)
        mp.setattr(engine, "insert_exceptional_chain", recording_insert)
        mp.setattr(engine, "contract_torsion_components", recording_contract)
        for seed in CORPUS_SEEDS:
            inp = degeneration_input_from_json(random_big_graph_input(random.Random(seed)))
            runs.append((inp, degenerate(inp)))
    return edited, inserted, contract_calls, runs


def test_corpus_is_large_and_contracts(traced_corpus):
    _, _, contract_calls, runs = traced_corpus
    assert all(len(inp.curve.components) >= 60 for inp, _ in runs)
    assert sum(len(records) for _, (_, _, records) in contract_calls) >= len(runs)


def test_incidence_lookups_match_naive_scans(traced_corpus):
    *_, runs = traced_corpus
    for inp, out in runs:
        for curve in (inp.curve, out.limit_curve):
            for comp in curve.components:
                assert indexed_incidence(curve, comp.id) == naive_incidence(curve, comp.id)
            assert indexed_incidence(curve, "no-such-component") == ((), 0, ())


def test_edited_curves_match_validating_constructor(traced_corpus):
    edited = traced_corpus[0]
    assert len(edited) > 100
    for curve in edited:
        rebuilt = TwistedCurve(curve.components, curve.nodes, curve.markings)
        assert curve == rebuilt
        for comp in curve.components:
            assert indexed_incidence(curve, comp.id) == indexed_incidence(rebuilt, comp.id)
            assert curve.component(comp.id) is comp
        for node in curve.nodes:
            assert curve.node(node.id) is node


def test_contraction_matches_restart_reference(traced_corpus):
    contract_calls = traced_corpus[2]
    for (curve, md), out in contract_calls:
        assert out == restart_contract(curve, md)


def test_log_totals_match_from_scratch_sums(traced_corpus):
    *_, runs = traced_corpus
    for inp, out in runs:
        expected = [str(x) for x in inp.multidegree.totals(inp.curve)]
        assert out.log
        assert all(record["totals"] == expected for record in out.log)
        assert out.limit_multidegree.running_totals() == tuple(
            out.limit_multidegree.totals(out.limit_curve))


def test_insert_totals_match_from_scratch_sums(traced_corpus):
    inserted = traced_corpus[1]
    assert sum(info is not None for _, _, info in inserted) > 100
    for curve, md, info in inserted:
        assert md.running_totals() == tuple(md.totals(curve))
        if info is not None:
            assert info["totals"] == [str(x) for x in md.totals(curve)]


def random_contraction_curve(rng: random.Random):
    """Bodies joined by strings of rational components, many of them
    torsion: strings between two bodies, loops back to one body (whose
    last merge leaves a self-node), closed rational cycles, plus marked,
    self-noded and non-torsion rational decoys, in shuffled order."""
    bodies = [Component(f"B{i}", 2) for i in range(rng.randint(2, 5))]
    comps, nodes, markings, deg = list(bodies), [], [], {}
    counter = iter(range(10 ** 6))

    def rational():
        c = Component(f"X{next(counter)}", 0)
        comps.append(c)
        return c.id

    def node(a, b, k):
        nid = f"n{next(counter)}"
        sing = AnSing(rng.randint(1, 3), k) if rng.random() < 0.5 else None
        nodes.append(Node(nid, (a, b) if rng.random() < 0.5 else (b, a), k, False, sing))

    for _ in range(rng.randint(3, 8)):
        kind = rng.random()
        k = rng.choice([1, 2, 3])
        start = rng.choice(bodies).id
        if kind < 0.25:
            end = start                      # a loop back to one body
        elif kind < 0.35:
            end = None                       # a closed rational cycle
        else:
            end = rng.choice(bodies).id
        chain = [rational() for _ in range(rng.randint(1, 4))]
        if end is None:
            chain.append(rational())
            ring = chain + [chain[0]]
            for a, b in zip(ring, ring[1:]):
                node(a, b, k)
            continue
        path = [start] + chain + [end]
        for a, b in zip(path, path[1:]):
            node(a, b, k + 1 if rng.random() < 0.02 else k)
        decoy = rng.random()
        target = rng.choice(chain)
        if decoy < 0.15:
            markings.append(Marking(f"m{next(counter)}", target))
        elif decoy < 0.3:
            nodes.append(Node(f"n{next(counter)}", (target, target), 1))
        elif decoy < 0.45:
            deg[(0, target)] = Fraction(rng.randint(1, 3), 2)
    for b in bodies:
        deg[(0, b.id)] = Fraction(rng.randint(-3, 3))
    rng.shuffle(comps)
    rng.shuffle(nodes)
    return TwistedCurve(comps, nodes, markings), MultiDegree(1, deg)


def test_contraction_matches_restart_reference_on_strings_and_loops():
    merges = self_merges = errors = 0
    for seed in range(300):
        curve, md = random_contraction_curve(random.Random(seed))
        try:
            expected = restart_contract(curve, md)
        except TorsionContractionError as exc:
            failing = str(exc).split("at ")[-1]
            with pytest.raises(TorsionContractionError, match=failing):
                engine.contract_torsion_components(curve, md)
            errors += 1
            continue
        got = engine.contract_torsion_components(curve, md)
        assert got == expected
        merges += len(got[2])
        self_merges += sum(r["merged_node"]["ends"][0] == r["merged_node"]["ends"][1]
                           for r in got[2])
        again = engine.contract_torsion_components(got[0], got[1])
        assert again[2] == [] and again[0] == got[0]
    assert merges > 1000 and self_merges > 100 and errors > 20

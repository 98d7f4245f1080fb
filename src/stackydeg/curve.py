"""Twisted nodal curves as decorated dual graphs.

Components carry a genus, nodes carry a cyclic stabilizer order, a
persistence flag (the node stays nodal over the whole base instead of
smoothing out) and optionally a record of the ambient surface
singularity, and markings carry a gerbe order. The arithmetic genus is
always recomputed from the graph, never stored.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .blowup import AnSing
from .errors import SchemaError, check_order, is_int

__all__ = [
    "Component",
    "Node",
    "Marking",
    "TwistedCurve",
    "MultiDegree",
    "GradingSpec",
    "Violation",
    "CurveError",
    "TORSION_CRITERION_NOTE",
    "arithmetic_genus",
    "is_torsion_on_component",
    "validate_twisted_map",
]


class CurveError(ValueError):
    """A curve description is invalid; ``pointer`` locates the item at fault."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


#: The torsion test below is applied factor by factor; this note is
#: attached to every emitted validation report.
TORSION_CRITERION_NOTE = (
    "torsion criterion applied componentwise across torus factors: a "
    "component counts as torsion only if its degree vanishes in every factor"
)


Component = namedtuple("Component", "id genus")


class Node(namedtuple("Node", "id ends stab_order persistent singularity",
                      defaults=(1, False, None))):
    """``ends`` is a pair of component ids, ``singularity`` an AnSing or None."""

    __slots__ = ()

    @property
    def is_self_node(self) -> bool:
        return self.ends[0] == self.ends[1]


Marking = namedtuple("Marking", "id comp gerbe_order", defaults=(1,))


class Violation(namedtuple("Violation", "kind subject detail")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "subject": self.subject, "detail": self.detail}


class TwistedCurve:
    """Immutable decorated dual graph. Safe to share between threads."""

    __slots__ = ("_components", "_nodes", "_markings", "_comp_ix", "_node_ix")

    def __init__(self, components, nodes=(), markings=()):
        self._components = tuple(components)
        self._nodes = tuple(nodes)
        self._markings = tuple(markings)
        if not self._components:
            raise CurveError("a curve needs at least one component", "/components")
        comp_ix = self._comp_ix = {}
        for i, c in enumerate(self._components):
            if c.id in comp_ix:
                raise CurveError(f"duplicate component id {c.id!r}", f"/components/{i}/id")
            if c.genus < 0:
                raise CurveError(f"component {c.id!r} has negative genus")
            comp_ix[c.id] = c
        node_ix = self._node_ix = {}
        for i, n in enumerate(self._nodes):
            if n.id in node_ix:
                raise CurveError(f"duplicate node id {n.id!r}", f"/nodes/{i}/id")
            if n.stab_order < 1:
                raise CurveError(f"node {n.id!r} has stabilizer order < 1")
            for end in n.ends:
                if end not in comp_ix:
                    raise CurveError(f"node {n.id!r} ends on unknown component {end!r}",
                                     f"/nodes/{i}/ends")
            node_ix[n.id] = n
        seen_marks = set()
        for i, m in enumerate(self._markings):
            if m.id in seen_marks:
                raise CurveError(f"duplicate marking id {m.id!r}", f"/markings/{i}/id")
            if m.gerbe_order < 1:
                raise CurveError(f"marking {m.id!r} has gerbe order < 1")
            if m.comp not in comp_ix:
                raise CurveError(f"marking {m.id!r} sits on unknown component {m.comp!r}",
                                 f"/markings/{i}/comp")
            seen_marks.add(m.id)

    @property
    def components(self) -> tuple:
        return self._components

    @property
    def nodes(self) -> tuple:
        return self._nodes

    @property
    def markings(self) -> tuple:
        return self._markings

    def node(self, node_id: str) -> Node:
        try:
            return self._node_ix[node_id]
        except KeyError:
            raise CurveError(f"no node {node_id!r}") from None

    def has_component(self, comp_id: str) -> bool:
        return comp_id in self._comp_ix

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_ix

    def __eq__(self, other):
        if not isinstance(other, TwistedCurve):
            return NotImplemented
        return (self._components == other._components
                and self._nodes == other._nodes
                and self._markings == other._markings)

    def __repr__(self):
        return (f"TwistedCurve({len(self._components)} components, "
                f"{len(self._nodes)} nodes, {len(self._markings)} markings)")

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for n in self._nodes:
            rec = {
                "id": n.id,
                "ends": list(n.ends),
                "stab": n.stab_order,
                "persistent": n.persistent,
            }
            if n.singularity is not None:
                rec["sing"] = n.singularity.to_json_dict()
            nodes.append(rec)
        return {
            "components": [{"id": c.id, "genus": c.genus} for c in self._components],
            "nodes": nodes,
            "markings": [
                {"id": m.id, "comp": m.comp, "gerbe": m.gerbe_order}
                for m in self._markings
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "TwistedCurve":
        if not isinstance(obj, dict):
            raise SchemaError(pointer, "expected a curve object")
        comps_raw = _expect_list(obj, "components", pointer)
        components = []
        for i, c in enumerate(comps_raw):
            p = f"{pointer}/components/{i}"
            if not isinstance(c, dict):
                raise SchemaError(p, "expected a component object")
            cid = _expect_id(c, "id", p)
            genus = c.get("genus")
            if not is_int(genus) or genus < 0:
                raise SchemaError(f"{p}/genus", "expected a non-negative integer")
            components.append(Component(cid, genus))
        nodes = []
        for i, n in enumerate(_expect_list(obj, "nodes", pointer, optional=True)):
            p = f"{pointer}/nodes/{i}"
            if not isinstance(n, dict):
                raise SchemaError(p, "expected a node object")
            nid = _expect_id(n, "id", p)
            ends = n.get("ends")
            if (not isinstance(ends, list) or len(ends) != 2
                    or not all(isinstance(e, (str, int)) for e in ends)):
                raise SchemaError(f"{p}/ends", "expected a pair of component ids")
            stab = n.get("stab", 1)
            if not is_int(stab) or stab < 1:
                raise SchemaError(f"{p}/stab", "expected a positive integer")
            check_order(stab, f"{p}/stab")
            persistent = n.get("persistent", False)
            if not isinstance(persistent, bool):
                raise SchemaError(f"{p}/persistent", "expected a boolean")
            sing = None
            if "sing" in n and n["sing"] is not None:
                s = n["sing"]
                if (not isinstance(s, dict) or not is_int(s.get("a"))
                        or not is_int(s.get("mu"))):
                    raise SchemaError(f"{p}/sing", "expected {'a': int, 'mu': int}")
                check_order(max(s["a"], s["mu"], key=abs), f"{p}/sing")
                try:
                    sing = AnSing(s["a"], s["mu"])
                except ValueError as exc:
                    raise SchemaError(f"{p}/sing", str(exc))
            nodes.append(Node(nid, (str(ends[0]), str(ends[1])), stab, persistent, sing))
        markings = []
        for i, m in enumerate(_expect_list(obj, "markings", pointer, optional=True)):
            p = f"{pointer}/markings/{i}"
            if not isinstance(m, dict):
                raise SchemaError(p, "expected a marking object")
            mid = _expect_id(m, "id", p)
            comp = m.get("comp")
            if not isinstance(comp, (str, int)):
                raise SchemaError(f"{p}/comp", "expected a component id")
            gerbe = m.get("gerbe", 1)
            if not is_int(gerbe) or gerbe < 1:
                raise SchemaError(f"{p}/gerbe", "expected a positive integer")
            check_order(gerbe, f"{p}/gerbe")
            markings.append(Marking(mid, str(comp), gerbe))
        try:
            return cls(components, nodes, markings)
        except CurveError as exc:
            raise SchemaError(pointer + exc.pointer, str(exc))

    def to_dot(self, multidegree: "MultiDegree | None" = None) -> str:
        lines = ["graph curve {"]
        for c in self._components:
            label = f"g={c.genus}"
            if multidegree is not None:
                degs = ",".join(
                    str(multidegree.degree(k, c.id))
                    for k in range(multidegree.n_factors)
                )
                label += f"\\ndeg=({degs})"
            lines.append(f'  "{c.id}" [shape=ellipse, label="{label}"];')
        for n in self._nodes:
            style = "" if n.persistent else ", style=dashed"
            lines.append(
                f'  "{n.ends[0]}" -- "{n.ends[1]}" [label="μ_{n.stab_order}"{style}];'
            )
        for m in self._markings:
            lines.append(f'  "mark:{m.id}" [shape=point];')
            lines.append(
                f'  "{m.comp}" -- "mark:{m.id}" [label="σ_{m.gerbe_order}", style=dotted];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _expect_list(obj: dict, key: str, pointer: str, optional: bool = False) -> list:
    """The list at ``key``; an optional key that is missing or null reads
    as empty."""
    value = obj.get(key)
    if optional and value is None:
        return []
    if not isinstance(value, list):
        raise SchemaError(f"{pointer}/{key}", "expected a list")
    return value


def _expect_id(obj: dict, key: str, pointer: str) -> str:
    value = obj.get(key)
    if not isinstance(value, (str, int)):
        raise SchemaError(f"{pointer}/{key}", "expected an id")
    return str(value)


# ---------------------------------------------------------------------------
# Multidegrees and gradings.


# what a missing entry reads as; Fraction is immutable, so one will do
_ZERO = Fraction(0)

# Fraction also reads "1.5", " 1/2 ", "1e5000" and "1_000"; held to these
# characters, it reads exactly [+-]?[0-9]+(/[0-9]+)?, the form degrees print in
_DEGREE_CHARS = frozenset("0123456789+-/")


class MultiDegree:
    """Per torus factor, an exact degree for each component.

    Missing entries read as zero; only nonzero entries are stored, so
    equality is equality of the underlying degree data.
    """

    __slots__ = ("n_factors", "_deg")

    def __init__(self, n_factors: int, deg=None):
        if n_factors < 1:
            raise CurveError("a multidegree needs at least one factor")
        self.n_factors = n_factors
        self._deg = {}
        for (k, comp), value in (deg or {}).items():
            if not 0 <= k < n_factors:
                raise CurveError(f"factor index {k} out of range")
            value = Fraction(value)
            if value:
                self._deg[(k, str(comp))] = value

    def degree(self, k: int, comp: str) -> Fraction:
        return self._deg.get((k, comp), _ZERO)

    def nonzero(self) -> dict:
        """A new dict of the nonzero degrees, keyed by (factor, component id)."""
        return dict(self._deg)

    def support(self) -> set:
        """Ids of the components with a nonzero degree in some factor."""
        return {comp for _, comp in self._deg}

    def totals(self, curve: TwistedCurve) -> list:
        return [
            sum((self.degree(k, c.id) for c in curve.components), Fraction(0))
            for k in range(self.n_factors)
        ]

    def __eq__(self, other):
        if not isinstance(other, MultiDegree):
            return NotImplemented
        return self.n_factors == other.n_factors and self._deg == other._deg

    def __repr__(self):
        return f"MultiDegree(factors={self.n_factors}, nonzero={len(self._deg)})"

    def to_json_dict(self, curve: TwistedCurve) -> dict:
        return {
            "factors": self.n_factors,
            "deg": [
                {c.id: str(self.degree(k, c.id)) for c in curve.components}
                for k in range(self.n_factors)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "MultiDegree":
        if not isinstance(obj, dict):
            raise SchemaError(pointer, "expected a multidegree object")
        factors = obj.get("factors")
        if not is_int(factors) or factors < 1:
            raise SchemaError(f"{pointer}/factors", "expected a positive integer")
        rows = obj.get("deg")
        if not isinstance(rows, list) or len(rows) != factors:
            raise SchemaError(f"{pointer}/deg",
                              f"expected one component map per factor ({factors})")
        deg = {}
        for k, row in enumerate(rows):
            if not isinstance(row, dict):
                raise SchemaError(f"{pointer}/deg/{k}", "expected an object")
            for comp, value in row.items():
                try:
                    # a float is not exact, and a bool is not a number
                    if not (is_int(value) or (isinstance(value, str)
                                              and _DEGREE_CHARS.issuperset(value))):
                        raise TypeError(value)
                    deg[(k, str(comp))] = Fraction(value)
                except (ValueError, ZeroDivisionError, TypeError):
                    raise SchemaError(f"{pointer}/deg/{k}/{comp}",
                                      "expected an exact rational like '1/4'")
        return cls(factors, deg)


class GradingSpec(namedtuple("GradingSpec", "d weights")):
    """Per-factor generation bound d_k, optionally derived from weights."""

    __slots__ = ()

    def __new__(cls, d=None, weights=None):
        if weights is not None:
            weights = tuple(None if w is None else tuple(w) for w in weights)
            for k, w in enumerate(weights):
                if w is not None and not w:
                    raise CurveError(f"factor {k}: empty weight list")
        if d is None:
            if weights is None or any(w is None for w in weights):
                raise CurveError("grading needs d or a full set of weight lists")
            d = tuple(max(abs(x) for x in w) for w in weights)
        else:
            d = tuple(int(x) for x in d)
        if any(x < 1 for x in d):
            raise CurveError("grading bounds must be positive")
        if weights is not None:
            if len(weights) != len(d):
                raise CurveError("weights and d must have the same length")
            for k, w in enumerate(weights):
                if w is None:
                    continue
                if max(abs(x) for x in w) != d[k]:
                    raise CurveError(
                        f"factor {k}: d={d[k]} is not the maximal absolute weight"
                    )
        return super().__new__(cls, d, weights)

    @property
    def n_factors(self) -> int:
        return len(self.d)

    def d_sources(self) -> tuple:
        if self.weights is None:
            return ("given",) * len(self.d)
        return tuple(
            "weights" if w is not None else "given" for w in self.weights
        )

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "GradingSpec":
        if not isinstance(obj, dict):
            raise SchemaError(pointer, "expected a grading object")
        d = obj.get("d")
        if d is not None:
            if (not isinstance(d, list) or not d
                    or not all(is_int(x) and x >= 1 for x in d)):
                raise SchemaError(f"{pointer}/d", "expected a list of positive integers")
            check_order(max(d), f"{pointer}/d")
        weights = obj.get("weights")
        if weights is not None:
            if not isinstance(weights, list):
                raise SchemaError(f"{pointer}/weights", "expected a list")
            for k, w in enumerate(weights):
                if w is None:
                    continue
                if not isinstance(w, list) or not w or not all(is_int(x) for x in w):
                    raise SchemaError(f"{pointer}/weights/{k}",
                                      "expected a non-empty list of integers or null")
                check_order(max(w, key=abs), f"{pointer}/weights/{k}")
        try:
            return cls(tuple(d) if d is not None else None, weights)
        except CurveError as exc:
            raise SchemaError(pointer, str(exc))


# ---------------------------------------------------------------------------
# Genus, stability and validation.


def arithmetic_genus(curve: TwistedCurve) -> int:
    """1 - χ(O_C) = Σ genus + #nodes - #components + 1, connected or not."""
    comps = curve.components
    return sum(c.genus for c in comps) + len(curve.nodes) - len(comps) + 1


def is_torsion_on_component(md: MultiDegree, comp_id: str) -> bool:
    """True when the degree vanishes in every torus factor.

    Meant for genus-0 components, where vanishing total degree means the
    restricted map has finite cyclic image.
    """
    return all(md.degree(k, comp_id) == 0 for k in range(md.n_factors))


def validate_twisted_map(curve: TwistedCurve, md: MultiDegree) -> list:
    """All obstructions to the pair (curve, degrees) being a twisted map:
    a disconnected dual graph, a component neither stable nor a
    destabilizing rational curve, a torsion destabilizing component, and a
    degree whose denominator does not divide the lcm of the orders of the
    nodes and markings on its component. One walk over the nodes and one
    over the markings collect each component's lcm, neighbours and marked
    dualizing degree (2g - 2, plus one per branch and one per marking).
    """
    omega = {c.id: 2 * c.genus - 2 for c in curve.components}
    bounds = dict.fromkeys(omega, 1)
    adjacent = {cid: [] for cid in omega}
    for n in curve.nodes:
        adjacent[n.ends[0]].append(n.ends[1])
        adjacent[n.ends[1]].append(n.ends[0])
        for end in n.ends:
            omega[end] += 1
            bounds[end] = lcm(bounds[end], n.stab_order)
    for m in curve.markings:
        omega[m.comp] += 1
        bounds[m.comp] = lcm(bounds[m.comp], m.gerbe_order)
    frontier = [curve.components[0].id]
    reached = set(frontier)
    while frontier:
        for nxt in adjacent[frontier.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    violations = []
    if len(reached) < len(omega):
        violations.append(Violation(
            "cond1-disconnected", None, "the dual graph is not connected"))
    denominators = []
    for c in curve.components:
        total = omega[c.id]
        if total < 0 or (total == 0 and c.genus):
            violations.append(Violation(
                "cond2-unstable", c.id,
                "component is neither positive for the polarized dualizing "
                "sheaf nor a destabilizing rational curve"))
        elif total == 0 and is_torsion_on_component(md, c.id):
            violations.append(Violation(
                "cond4-torsion-destabilizing", c.id,
                "destabilizing component with zero degree in every factor"))
        for k in range(md.n_factors):
            degree = md.degree(k, c.id)
            if bounds[c.id] % degree.denominator:
                denominators.append(Violation(
                    "degree-denominator", c.id,
                    f"factor {k}: degree {_text(degree)} does not clear the local "
                    f"order bound {_text(bounds[c.id])}"))
    return violations + denominators


def _text(x) -> str:
    """``x`` in decimal, or its size where it has too many digits to print."""
    try:
        return str(x)
    except ValueError:
        return f"of {max(x.numerator.bit_length(), x.denominator.bit_length())} bits"

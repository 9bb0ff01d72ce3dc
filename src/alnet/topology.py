"""Rooted tree graphs of one-dimensional lattice bonds.

A topology is a collection of discrete bonds glued at branching vertices.
Bond labels encode the tree structure: the incoming semi-infinite bond is
``"1"``, and a child bond appends one digit to its parent's label (``"11"``,
``"12"``, ``"111"``, ...).  Site indexing follows the usual scattering
convention: the incoming bond carries sites ``n = 0, -1, -2, ...`` with the
root vertex at ``n = 0``, while every other bond carries sites
``n = 1, 2, ...`` counted away from its parent.

Semi-infinite bonds are truncated to ``truncation`` sites for numerical
work; finite internal bonds keep their exact length.  Each bond ``k``
carries its own nonlinearity strength ``gamma_k > 0``.  A vertex is
reflectionless when the strengths satisfy the sum rule

    1/gamma_parent = sum_children 1/gamma_child,

and ``check_sum_rule`` reports the residual of that identity per vertex.

``coupling_coefficients`` turns a topology into the one object the
dynamics and the conserved quantities need: the forward shift R along the
flat layout, which at each vertex hands the parent's last site the
children's first sites weighted by ``sqrt(gamma_parent / gamma_child)``,
together with each site's ``gamma``.  ``stacked_couplings`` does the same
for several topologies of one site layout at once, one per column of an
``(n_sites, B)`` field, so an ensemble of runs shares one integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParameterError, SiteRangeError, TopologyError

KIND_INCOMING = "incoming-semi-infinite"
KIND_INTERNAL = "internal-finite"
KIND_LEAF = "leaf-semi-infinite"

_KINDS = (KIND_INCOMING, KIND_INTERNAL, KIND_LEAF)

ROOT_LABEL = "1"

#: residual magnitude below which a vertex counts as exactly reflectionless
SUM_RULE_TOL = 1e-12


@dataclass(frozen=True)
class BondSpec:
    """One bond of the graph.

    ``length`` is the stored site count: the exact length for internal
    bonds and the truncation length for semi-infinite ones.
    """

    label: str
    gamma: float
    length: int
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "length", int(self.length))
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InvalidParameterError(f"bond {self.label!r}: gamma must be finite and > 0")
        if self.length < 1:
            raise InvalidParameterError(f"bond {self.label!r}: length must be a positive integer")
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"bond {self.label!r}: unknown kind {self.kind!r}")
        if not (self.label and self.label[0] == ROOT_LABEL and self.label.isdigit() and "0" not in self.label):
            raise TopologyError(f"bond label {self.label!r} must be digits 1-9 starting with '1'")


@dataclass(frozen=True)
class GraphTopology:
    """Immutable rooted tree of bonds with a fixed flat site layout.

    Bonds are kept sorted by label, which fixes a deterministic flat
    ordering of all sites: bond ``"1"`` stores its sites left to right as
    ``n = -(L-1), ..., 0`` and every other bond as ``n = 1, ..., length``.
    """

    bonds: tuple[BondSpec, ...]
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "truncation", int(self.truncation))
        if self.truncation < 2:
            raise InvalidParameterError("truncation must be an integer >= 2")
        if len({b.label for b in self.bonds}) != len(self.bonds):
            raise TopologyError("duplicate bond labels")
        object.__setattr__(self, "bonds", tuple(sorted(self.bonds, key=lambda b: b.label)))
        by_label = {b.label: b for b in self.bonds}
        if ROOT_LABEL not in by_label:
            raise TopologyError("missing incoming bond '1'")
        children: dict[str, list[str]] = {}
        for b in self.bonds:
            if b.label == ROOT_LABEL:
                if b.kind != KIND_INCOMING:
                    raise TopologyError("bond '1' must be incoming-semi-infinite")
                continue
            if b.kind == KIND_INCOMING:
                raise TopologyError(f"bond {b.label!r}: only bond '1' may be incoming")
            parent = b.label[:-1]
            if parent not in by_label:
                raise TopologyError(f"bond {b.label!r} has no parent bond {parent!r}")
            children.setdefault(parent, []).append(b.label)
        for b in self.bonds:
            kids = children.get(b.label, [])
            if b.kind == KIND_INTERNAL and not kids:
                raise TopologyError(f"internal bond {b.label!r} has no children")
            if b.kind == KIND_LEAF and kids:
                raise TopologyError(f"leaf bond {b.label!r} has children")
            if b.kind != KIND_INTERNAL and b.length != self.truncation:
                raise TopologyError(
                    f"semi-infinite bond {b.label!r} must store truncation={self.truncation} sites"
                )
        if not children.get(ROOT_LABEL):
            raise TopologyError("bond '1' must branch into at least one outgoing bond")

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _by_label(self) -> dict[str, BondSpec]:
        return {b.label: b for b in self.bonds}

    def bond(self, label: str) -> BondSpec:
        try:
            return self._by_label[label]
        except KeyError:
            raise TopologyError(f"no bond labeled {label!r}") from None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bonds)

    @cached_property
    def vertices(self) -> dict[str, tuple[str, ...]]:
        """Map from each branching bond's label to its ordered child labels."""
        out: dict[str, list[str]] = {}
        for b in self.bonds:
            if b.label == ROOT_LABEL:
                continue
            out.setdefault(b.label[:-1], []).append(b.label)
        return {k: tuple(v) for k, v in sorted(out.items())}

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bonds if b.kind == KIND_LEAF)

    # -- flat layout -----------------------------------------------------

    @cached_property
    def slices(self) -> dict[str, slice]:
        out = {}
        start = 0
        for b in self.bonds:
            out[b.label] = slice(start, start + b.length)
            start += b.length
        return out

    @cached_property
    def n_sites(self) -> int:
        return sum(b.length for b in self.bonds)

    @cached_property
    def site_gamma(self) -> np.ndarray:
        out = np.empty(self.n_sites)
        for b in self.bonds:
            out[self.slices[b.label]] = b.gamma
        out.setflags(write=False)
        return out

    def site_coordinates(self, label: str) -> np.ndarray:
        """Site indices of a bond in the scattering convention."""
        b = self.bond(label)
        if label == ROOT_LABEL:
            return np.arange(-(b.length - 1), 1)
        return np.arange(1, b.length + 1)

    def locate(self, flat_index: int) -> tuple[str, int]:
        """Translate a flat site index to (bond label, signed site coordinate)."""
        if not 0 <= flat_index < self.n_sites:
            raise SiteRangeError(f"flat site index {flat_index} outside [0, {self.n_sites})")
        for b in self.bonds:
            s = self.slices[b.label]
            if s.start <= flat_index < s.stop:
                offset = flat_index - s.start
                if b.label == ROOT_LABEL:
                    return b.label, offset - (b.length - 1)
                return b.label, offset + 1
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class CouplingCoefficients:
    """The graph's forward shift R, weighted at the vertices, and each site's gamma.

    Within a bond ``(R y)_n = y_{n+1}``.  The last site of a parent bond
    gets ``sum_c s_c y_{c,1}`` with ``s_c = sqrt(gamma_parent /
    gamma_child)``, and the last site of a leaf gets 0.  ``backward``
    applies the transpose: a child's first site gets ``s_c y_{parent,last}``
    and the far end of the incoming bond gets 0.  The dynamics and every
    conserved quantity see the graph only through these two maps.

    ``values`` maps each (parent, child) pair to its weight ``s_c``.  The
    index arrays give flat sites: the last site of every bond, the last
    site of every parent bond, and per child its first site and its
    parent's last site.  Children are grouped by parent, each group
    starting at the entry that ``groups`` names, and ``weights`` holds
    their ``s_c`` in the same order.  ``site_gamma`` is the nonlinearity
    strength of every flat site.

    Both maps act along the first axis, so ``y`` may be one field of shape
    ``(n_sites,)`` or a stack of shape ``(n_sites, B)``; a stack needs the
    per-column ``weights`` of shape ``(k, B)`` and ``site_gamma`` of shape
    ``(n_sites, B)`` that ``stacked_couplings`` builds.
    """

    values: dict[tuple[str, str], float]
    bond_ends: np.ndarray = field(compare=False, repr=False)
    parent_ends: np.ndarray = field(compare=False, repr=False)
    groups: np.ndarray = field(compare=False, repr=False)
    child_starts: np.ndarray = field(compare=False, repr=False)
    child_parents: np.ndarray = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)
    site_gamma: np.ndarray = field(compare=False, repr=False)

    def forward(self, y: np.ndarray) -> np.ndarray:
        """``R y``: every site takes its successor away from the root."""
        out = np.empty_like(y)
        out[:-1] = y[1:]
        out[self.bond_ends] = 0.0
        out[self.parent_ends] = np.add.reduceat(self.weights * y[self.child_starts], self.groups)
        return out

    def backward(self, y: np.ndarray) -> np.ndarray:
        """``R^T y``: every site takes its predecessor toward the root."""
        out = np.empty_like(y)
        out[1:] = y[:-1]
        out[0] = 0.0
        out[self.child_starts] = self.weights * y[self.child_parents]
        return out


def coupling_coefficients(topology: GraphTopology) -> CouplingCoefficients:
    """The vertex-weighted shift operator of a topology, built once per topology.

    The weights depend only on the nonlinearity strengths and are defined
    whether or not the sum rule holds.
    """
    return _build_couplings(topology)


@lru_cache(maxsize=32)
def _build_couplings(topology: GraphTopology) -> CouplingCoefficients:
    values: dict[tuple[str, str], float] = {}
    parent_ends, groups, child_starts, child_parents = [], [], [], []
    for parent, kids in topology.vertices.items():
        p_last = topology.slices[parent].stop - 1
        parent_ends.append(p_last)
        groups.append(len(child_starts))
        for child in kids:
            values[(parent, child)] = math.sqrt(
                topology.bond(parent).gamma / topology.bond(child).gamma
            )
            child_starts.append(topology.slices[child].start)
            child_parents.append(p_last)
    bond_ends = [s.stop - 1 for s in topology.slices.values()]
    arrays = [
        np.asarray(a, dtype=np.intp)
        for a in (bond_ends, parent_ends, groups, child_starts, child_parents)
    ]
    arrays.append(np.asarray(list(values.values())))
    for a in arrays:
        a.setflags(write=False)
    return CouplingCoefficients(values, *arrays, topology.site_gamma)


def _layout(topology: GraphTopology) -> tuple:
    return tuple((b.label, b.length, b.kind) for b in topology.bonds)


def stacked_couplings(topologies: Sequence[GraphTopology]) -> CouplingCoefficients:
    """The shift operators of same-layout topologies, one per column.

    Column ``b`` of an ``(n_sites, B)`` field belongs to ``topologies[b]``:
    ``weights`` and ``site_gamma`` gain a column axis, and each ``values``
    entry becomes the tuple of the columns' weights.  Every column of
    ``forward`` and ``backward`` equals, bit for bit, the single-topology
    map applied to that column.  The topologies must share their bond
    labels, lengths and kinds, so only the gammas differ.
    """
    if not topologies:
        raise InvalidParameterError("stacking needs at least one topology")
    layout = _layout(topologies[0])
    if any(_layout(t) != layout for t in topologies[1:]):
        raise InvalidParameterError("stacked topologies must share one site layout")
    cols = [coupling_coefficients(t) for t in topologies]
    first = cols[0]
    values = {pair: tuple(c.values[pair] for c in cols) for pair in first.values}
    weights = np.stack([c.weights for c in cols], axis=1)
    site_gamma = np.stack([c.site_gamma for c in cols], axis=1)
    for a in (weights, site_gamma):
        a.setflags(write=False)
    return replace(first, values=values, weights=weights, site_gamma=site_gamma)


def check_sum_rule(topology: GraphTopology) -> dict[str, float]:
    """Residual ``1/gamma_parent - sum_children 1/gamma_child`` per vertex."""
    out = {}
    for parent, kids in topology.vertices.items():
        res = 1.0 / topology.bond(parent).gamma
        for c in kids:
            res -= 1.0 / topology.bond(c).gamma
        out[parent] = res
    return out


def is_reflectionless(topology: GraphTopology, tol: float = SUM_RULE_TOL) -> bool:
    """True when every vertex satisfies the sum rule within ``tol``."""
    return all(abs(r) <= tol for r in check_sum_rule(topology).values())


def site_offset(topology: GraphTopology, label: str) -> int:
    """Cumulative parent length between the root vertex and a bond.

    The offset maps a bond's local site ``n`` to the coordinate
    ``n + offset`` of the single chain obtained by unrolling the path from
    the root.  Bond ``"1"`` and the root's direct children have offset 0.
    """
    topology.bond(label)
    total = 0
    for end in range(2, len(label)):
        total += topology.bond(label[:end]).length
    return total


# -- builders -------------------------------------------------------------


def _leaf(label: str, gamma: float, truncation: int) -> BondSpec:
    return BondSpec(label, float(gamma), truncation, KIND_LEAF)


def build_star(gammas: Sequence[float], truncation: int = 400) -> GraphTopology:
    """Star graph: incoming bond plus ``len(gammas) - 1`` outgoing leaves."""
    if len(gammas) < 3:
        raise InvalidParameterError("a star graph needs at least three bonds")
    if len(gammas) > 10:
        raise InvalidParameterError("at most nine outgoing bonds are supported")
    bonds = [BondSpec(ROOT_LABEL, float(gammas[0]), truncation, KIND_INCOMING)]
    bonds += [_leaf(f"1{i}", g, truncation) for i, g in enumerate(gammas[1:], start=1)]
    return GraphTopology(tuple(bonds), truncation)


def build_psg(
    gamma1: float, gamma2: float, gamma3: float, truncation: int = 400
) -> GraphTopology:
    """Primary star graph: one incoming and exactly two outgoing bonds."""
    return build_star((gamma1, gamma2, gamma3), truncation)


def build_chain(gamma: float, truncation: int = 400) -> GraphTopology:
    """Uniform straight chain, stored as an incoming bond and one leaf.

    The junction's coupling weight is 1, so the dynamics reduce exactly to
    the single-chain lattice equation on ``2 * truncation`` sites.
    """
    bonds = (
        BondSpec(ROOT_LABEL, float(gamma), truncation, KIND_INCOMING),
        _leaf("11", gamma, truncation),
    )
    return GraphTopology(bonds, truncation)


def build_tree(spec: Mapping, truncation: int = 400) -> GraphTopology:
    """Tree from a nested description.

    ``spec`` is a mapping with keys ``gamma`` (required), ``children``
    (list of child specs), and ``length`` (required for nodes that have
    children, i.e. internal bonds; ignored for the root, which is the
    incoming semi-infinite bond).  Nodes without children become
    semi-infinite leaves.
    """
    bonds: list[BondSpec] = []

    def walk(node: Mapping, label: str):
        if "gamma" not in node:
            raise InvalidParameterError(f"tree node {label!r} is missing 'gamma'")
        kids = node.get("children", [])
        if label == ROOT_LABEL:
            bonds.append(BondSpec(label, float(node["gamma"]), truncation, KIND_INCOMING))
            if not kids:
                raise TopologyError("the root node needs at least one child")
        elif kids:
            if "length" not in node:
                raise InvalidParameterError(f"internal tree node {label!r} is missing 'length'")
            bonds.append(BondSpec(label, float(node["gamma"]), int(node["length"]), KIND_INTERNAL))
        else:
            bonds.append(_leaf(label, node["gamma"], truncation))
        if len(kids) > 9:
            raise InvalidParameterError(f"node {label!r}: at most nine children are supported")
        for i, kid in enumerate(kids, start=1):
            walk(kid, f"{label}{i}")

    walk(spec, ROOT_LABEL)
    return GraphTopology(tuple(bonds), truncation)


def with_truncation(topology: GraphTopology, truncation: int) -> GraphTopology:
    """The same tree with its semi-infinite bonds truncated to ``truncation`` sites.

    Internal bonds keep their exact lengths.
    """
    bonds = tuple(
        BondSpec(
            b.label,
            b.gamma,
            b.length if b.kind == KIND_INTERNAL else truncation,
            b.kind,
        )
        for b in topology.bonds
    )
    return GraphTopology(bonds, truncation)


# -- JSON-friendly form ----------------------------------------------------


def topology_to_dict(topology: GraphTopology) -> dict:
    return {
        "bonds": [
            {"label": b.label, "gamma": b.gamma, "length": b.length, "kind": b.kind}
            for b in topology.bonds
        ],
        "truncation": topology.truncation,
    }


def topology_from_dict(data: Mapping) -> GraphTopology:
    """Rebuild a topology from its dict form, accepting two shorthands.

    Besides the explicit ``{"bonds": [...], "truncation": n}`` layout, a
    ``{"gammas": [...]}`` entry builds a star graph and a ``{"tree": ...}``
    entry builds a tree from the nested node format.
    """
    if not isinstance(data, Mapping):
        raise InvalidParameterError("topology description must be a mapping")
    truncation = data.get("truncation", 400)
    if isinstance(truncation, bool) or not isinstance(truncation, int):
        raise InvalidParameterError("truncation must be an integer")
    if "gammas" in data:
        gammas = data["gammas"]
        if len(gammas) == 2:
            if gammas[0] != gammas[1]:
                raise InvalidParameterError("a two-bond chain must have a uniform gamma")
            return build_chain(gammas[0], truncation)
        return build_star(gammas, truncation)
    if "tree" in data:
        return build_tree(data["tree"], truncation)
    if "bonds" not in data:
        raise InvalidParameterError("topology description needs 'bonds', 'gammas', or 'tree'")
    bonds = []
    for entry in data["bonds"]:
        try:
            bonds.append(
                BondSpec(
                    label=str(entry["label"]),
                    gamma=float(entry["gamma"]),
                    length=int(entry["length"]),
                    kind=str(entry["kind"]),
                )
            )
        except KeyError as exc:
            raise InvalidParameterError(f"bond entry is missing key {exc}") from None
    return GraphTopology(tuple(bonds), truncation)

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
dynamics need: the forward shift R along the flat layout, which at each
vertex hands the parent's last site the children's first sites weighted
by ``sqrt(gamma_parent / gamma_child)``, together with each site's
``gamma`` and the topology itself.  It builds R anew on every call; its
callers build one per run or per window.  Several topologies of one site
layout give one block-diagonal R over their runs laid back to back, run
b at sites ``[b n, (b + 1) n)``, so an ensemble of runs shares one
integration.

Every table derived from one topology is a cached property of the
``GraphTopology`` instance, built on first use and freed with it: the
layout, ``site_gamma``, the tables of the single-run R, which
``couplings`` wraps in a fresh R on every read, the bond groups that
``state.partial_norms`` sums and the ladder tables of ``conserved``.
``GraphTopology.vertex_distance`` holds each semi-infinite site's distance
from its vertex (0 on internal bonds), so ``flatnonzero(vertex_distance <= W)``
is the layout of ``with_truncation(topology, W)``, in order; the R of
those trees is the window that ``evolve`` steps while the far tails are
exact zeros.
The conserved quantities apply R; the dynamics needs only the neighbour
sum ``(R + R^T) y``, which costs one whole-array add plus a fix-up at the
two end sites of every bond.  Both maps read one set of tables: each is a
whole-array shift overwritten at those end sites.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    bonds and the truncation length for semi-infinite ones.  It must be an
    ``int`` (not a ``bool``); ``gamma`` is coerced with ``float()`` and
    ``label`` with ``str()``, so a config may write the label ``11`` as a
    number.
    """

    label: str
    gamma: float
    length: int
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InvalidParameterError(f"bond {self.label!r}: gamma must be finite and > 0")
        if isinstance(self.length, bool) or not isinstance(self.length, int) or self.length < 1:
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
        n = self.truncation
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise InvalidParameterError("truncation must be an integer >= 2")
        object.__setattr__(self, "bonds", tuple(sorted(self.bonds, key=lambda b: b.label)))
        if len(self._by_label) != len(self.bonds):
            raise TopologyError("duplicate bond labels")
        if ROOT_LABEL not in self._by_label:
            raise TopologyError("missing incoming bond '1'")
        for b in self.bonds:
            parent, branches = b.label[:-1], b.label in self.vertices
            if (b.kind == KIND_INCOMING) != (b.label == ROOT_LABEL):
                raise TopologyError(f"bond {b.label!r}: bond '1', and only it, is {KIND_INCOMING}")
            if parent and parent not in self._by_label:
                raise TopologyError(f"bond {b.label!r} has no parent bond {parent!r}")
            # the root and internal bonds branch, leaves do not
            if branches == (b.kind == KIND_LEAF):
                has = "has" if branches else "has no"
                raise TopologyError(f"{b.kind} bond {b.label!r} {has} children")
            if b.kind != KIND_INTERNAL and b.length != n:
                raise TopologyError(
                    f"semi-infinite bond {b.label!r} must store truncation={n} sites"
                )

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
        for label in self.labels[1:]:  # sorted, so the root comes first
            out.setdefault(label[:-1], []).append(label)
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
    def vertex_distance(self) -> np.ndarray:
        """Per flat site, its distance from a semi-infinite bond's vertex (1 to ``truncation``), else 0."""
        out = np.zeros(self.n_sites, dtype=np.int32)
        for b in self.bonds:
            if b.kind != KIND_INTERNAL:
                d = np.arange(1, b.length + 1, dtype=np.int32)
                out[self.slices[b.label]] = d[::-1] if b.label == ROOT_LABEL else d
        out.setflags(write=False)
        return out

    @cached_property
    def guard_sites(self) -> np.ndarray:
        """Flat index of the two sites nearest each semi-infinite bond's wall, a pair per bond in label order."""
        return _frozen(np.flatnonzero(self.vertex_distance >= self.truncation - 1))

    @cached_property
    def site_gamma(self) -> np.ndarray:
        """Per flat site, its bond's gamma: the array that this topology's R holds."""
        return _frozen(np.repeat([b.gamma for b in self.bonds], [b.length for b in self.bonds]), float)

    @cached_property
    def sqrt_gamma(self) -> np.ndarray:
        """Per flat site, ``sqrt(gamma)``: the chain field is ``q = sqrt_gamma psi``."""
        return _frozen(np.sqrt(self.site_gamma), float)

    @cached_property
    def ladder_weight(self) -> np.ndarray:
        """Per flat site, ``gamma_1 / gamma``: the weight w of ``conserved``'s ladder."""
        return _frozen(self.bond(ROOT_LABEL).gamma / self.site_gamma, float)

    @cached_property
    def _coupling_tables(self) -> tuple:
        return _edge_tables((self,))

    @property
    def couplings(self) -> CouplingCoefficients:
        """This topology's R: its cached tables in a fresh R, so the topology holds no R that holds it."""
        return CouplingCoefficients((self,), *self._coupling_tables)

    @cached_property
    def length_groups(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Each length's bond count k and (k, L) sites, a slice if back to back; label order; gammas."""
        starts = np.array([self.slices[b.label].start for b in self.bonds])
        lengths = np.array([b.length for b in self.bonds])
        groups = [np.flatnonzero(lengths == n) for n in sorted(set(lengths.tolist()))]
        tables = [
            (len(t), slice(t[0, 0], t[-1, -1] + 1) if (np.diff(t.ravel()) == 1).all() else t)
            for t in (starts[g, None] + np.arange(lengths[g[0]]) for g in groups)
        ]
        return tables, np.argsort(np.concatenate(groups)), self.site_gamma[starts]

    @cached_property
    def vertex_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Sites paired across the vertices, as (2, k) index arrays: ``(entries, siblings)``.

        ``entries`` pairs each child's first site that does not follow its
        parent in the layout (row 0) with the parent's last site (row 1).
        ``siblings`` pairs each later child's sites with the first child's
        over their common length.
        """
        slices, entries, siblings = self.slices, [], []
        for parent, (first, *others) in self.vertices.items():
            for child in others:
                entries.append((slices[child].start, slices[parent].stop - 1))
                k = min(self.bond(first).length, self.bond(child).length)
                siblings += [(slices[child].start + i, slices[first].start + i) for i in range(k)]
        return tuple(_frozen(np.reshape(pairs, (-1, 2)).T) for pairs in (entries, siblings))

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
                return b.label, int(self.site_coordinates(b.label)[flat_index - s.start])
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class CouplingCoefficients:
    """The graph's forward shift R, weighted at the vertices, and each site's gamma.

    Within a bond ``(R y)_n = y_{n+1}``.  The last site of a parent bond
    gets ``sum_c s_c y_{c,1}`` with ``s_c = sqrt(gamma_parent /
    gamma_child)``, and the last site of a leaf gets 0.  ``neighbors``
    applies ``R + R^T`` in one pass.  The dynamics and every conserved
    quantity see the graph only through these maps.

    ``topologies`` are the graphs the maps were built from, one per
    run of a stack, and ``topology`` is the first of them, so a caller
    that holds R also holds the layout.  The ``edge_*`` fields are one
    table set for both maps, described in ``neighbors``: away from the end
    sites of the bonds each map is a whole-array shift, and at the end
    sites the tables give R's and R^T's terms.  ``site_gamma`` is the
    nonlinearity strength of every flat site.

    The maps act on a flat field.  An R of B topologies of one n-site
    layout is block-diagonal: run b holds sites ``[b n, (b + 1) n)``, its
    tables are the single run's offset by ``b n``, and ``site_gamma`` and
    ``edge_weights`` are the runs' own, concatenated.  Each block of a map
    is, bit for bit, that run's own R applied to its block.
    """

    topologies: tuple[GraphTopology, ...] = field(repr=False)
    site_gamma: np.ndarray = field(compare=False, repr=False)
    edge_weights: np.ndarray = field(compare=False, repr=False)
    edge_sites: np.ndarray = field(compare=False, repr=False)
    edge_terms: np.ndarray = field(compare=False, repr=False)
    edge_zeros: np.ndarray = field(compare=False, repr=False)
    edge_groups: np.ndarray = field(compare=False, repr=False)
    edge_sums: slice = field(compare=False, repr=False)

    @property
    def topology(self) -> GraphTopology:
        return self.topologies[0]

    def forward(self, y: np.ndarray) -> np.ndarray:
        """``R y``: every site takes its successor away from the root."""
        e = self.edge_sites.shape[0]
        out = np.empty_like(y)
        out[:-1] = y[1:]
        out[self.edge_sites] = self._terms(y)[:e]
        return out

    def _terms(self, y: np.ndarray) -> np.ndarray:
        """The end sites' ``ahead`` and ``behind`` terms, as ``neighbors`` gathers them."""
        e = self.edge_sites.shape[0]
        t = y[self.edge_terms]
        t[self.edge_zeros] = 0.0
        weighted = t[-self.edge_weights.shape[0]:]
        np.multiply(self.edge_weights, weighted, out=weighted)
        t[self.edge_sums] = np.add.reduceat(t[2 * e:], self.edge_groups)
        return t

    def neighbors(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(R + R^T) y``.

        Inside a bond this is ``y_{n+1} + y_{n-1}``, one whole-array add.
        The end sites of the bonds (``edge_sites``, E of them) are then
        overwritten with ``ahead + behind``: the term from the site's
        successor away from the root and the term from its predecessor
        toward it.  One gather of ``edge_terms`` fills a short array ``t``
        with ``ahead`` (E rows), ``behind`` (E rows) and the children's
        first sites.  The rows run root far end, leaf ends, parent ends,
        one-site bonds, child first sites, each category over every run of
        a stack in turn, so that:

        * ``t[edge_zeros] = 0`` gives the root's far end no predecessor
          and a leaf's end no successor;
        * the trailing entries, the predecessors of one-site bonds and
          child first sites and then every child's first site, are the
          ones that carry a vertex weight (``edge_weights``);
        * each parent end and one-site bond sums its children's weighted
          first sites, grouped by ``edge_groups``, into ``t[edge_sums]``.

        ``ahead`` is what ``forward`` writes at the end sites, with the
        same weight-first products and the same ``np.add.reduceat`` over a
        vertex's children, so the result is, to the last bit and the sign
        of zero, ``R y`` plus ``R^T y`` applied as two shifts.
        """
        if out is None:
            out = np.empty_like(y)
        np.add(y[2:], y[:-2], out=out[1:-1])
        e = self.edge_sites.shape[0]
        t = self._terms(y)
        out[self.edge_sites] = t[:e] + t[e:2 * e]
        return out


def coupling_coefficients(*topologies: GraphTopology) -> CouplingCoefficients:
    """The vertex-weighted shift operator of one topology, or block-diagonal over several.

    Built anew on every call; ``GraphTopology.couplings`` keeps one
    topology's.  Several topologies must share their bond labels, lengths
    and kinds, so only the gammas differ; no topology, or two layouts,
    raise InvalidParameterError.  The weights depend only on the
    nonlinearity strengths and are defined whether or not the sum rule
    holds.
    """
    return CouplingCoefficients(topologies, *_edge_tables(topologies))


def _edge_tables(topologies: tuple[GraphTopology, ...]) -> tuple:
    """Every field of ``coupling_coefficients(*topologies)`` after ``topologies``."""
    if not topologies:
        raise InvalidParameterError("R needs at least one topology")
    if len({tuple((b.label, b.length, b.kind) for b in t.bonds) for t in topologies}) > 1:
        raise InvalidParameterError("stacked topologies must share one site layout")
    top, n = topologies[0], topologies[0].n_sites
    slices, vertices = top.slices, top.vertices
    # rows as (site, ahead site, behind site, run, bond); ahead/behind name
    # the site itself where the term is a zero or a children's sum.  Run k
    # holds sites [k n, (k + 1) n), and each category lists its rows run by run
    far_end, leaf_ends, parent_ends, one_site, child_firsts = [], [], [], [], []
    for k, b in itertools.product(range(len(topologies)), top.bonds):
        first, last = slices[b.label].start + k * n, slices[b.label].stop - 1 + k * n
        entry = slices[b.label[:-1]].stop - 1 + k * n if b.label != ROOT_LABEL else first
        if first == last:
            one_site.append((first, first, entry, k, b.label))
            continue
        if b.label == ROOT_LABEL:
            far_end.append((first, first + 1, first, k, b.label))
        else:
            child_firsts.append((first, first + 1, entry, k, b.label))
        (parent_ends if b.label in vertices else leaf_ends).append((last, last, last - 1, k, b.label))
    rows = far_end + leaf_ends + parent_ends + one_site + child_firsts
    summed = parent_ends + one_site
    e, ends = len(rows), len(far_end) + len(leaf_ends)
    kids = [(k, c) for *_, k, p in summed for c in vertices[p]]
    edge_groups = np.cumsum([0] + [len(vertices[r[4]]) for r in summed[:-1]])
    edge_terms = [r[1] for r in rows] + [r[2] for r in rows] + [slices[c].start + k * n for k, c in kids]
    gammas = [{b.label: b.gamma for b in t.bonds} for t in topologies]
    weighted = [r[3:] for r in one_site + child_firsts] + kids
    weights = [math.sqrt(gammas[k][c[:-1]] / gammas[k][c]) for k, c in weighted]
    edge_zeros = list(range(len(far_end), ends)) + list(range(e, e + len(far_end)))
    gamma = top.site_gamma  # a single run's R holds its topology's array
    if len(topologies) > 1:
        gamma = _frozen(np.concatenate([t.site_gamma for t in topologies]), float)
    tables = (_frozen([r[0] for r in rows]), _frozen(edge_terms), _frozen(edge_zeros), _frozen(edge_groups))
    sums = slice(ends, ends + len(summed))
    return (gamma, _frozen(weights, float), *tables, sums)


def _frozen(values, dtype=np.intp) -> np.ndarray:
    a = np.asarray(values, dtype=dtype)
    a.setflags(write=False)
    return a


def check_sum_rule(topology: GraphTopology) -> dict[str, float]:
    """Residual ``1/gamma_parent - sum_children 1/gamma_child`` per vertex."""
    out = {}
    for parent, kids in topology.vertices.items():
        res = 1.0 / topology.bond(parent).gamma
        for c in kids:
            res -= 1.0 / topology.bond(c).gamma
        out[parent] = res
    return out


def is_reflectionless(topology: GraphTopology) -> bool:
    """True when every vertex satisfies the sum rule within ``SUM_RULE_TOL``."""
    return all(abs(r) <= SUM_RULE_TOL for r in check_sum_rule(topology).values())


def site_offset(topology: GraphTopology, label: str) -> int:
    """Cumulative parent length between the root vertex and a bond.

    The offset maps a bond's local site ``n`` to the coordinate
    ``n + offset`` of the single chain obtained by unrolling the path from
    the root.  Bond ``"1"`` and the root's direct children have offset 0.
    """
    topology.bond(label)
    return sum(topology.bond(label[:end]).length for end in range(2, len(label)))


# -- builders -------------------------------------------------------------


def build_star(gammas: Sequence[float], truncation: int = 400) -> GraphTopology:
    """Star graph: the depth-one tree of an incoming bond and ``len(gammas) - 1`` leaves.

    Two entries make the two-bond graph, the uniform chain when they are equal.
    ``gammas`` must be a list or tuple, so a string or a mapping is refused.
    """
    if not isinstance(gammas, (list, tuple)) or not gammas:
        raise InvalidParameterError("gammas must be a non-empty list or tuple")
    root, *leaves = gammas
    return build_tree({"gamma": root, "children": [{"gamma": g} for g in leaves]}, truncation)


def build_chain(gamma: float, truncation: int = 400) -> GraphTopology:
    """Uniform straight chain, stored as an incoming bond and one leaf.

    The junction's coupling weight is 1, so the dynamics reduce exactly to
    the single-chain lattice equation on ``2 * truncation`` sites.
    """
    return build_star((gamma, gamma), truncation)


def build_tree(spec: Mapping, truncation: int = 400) -> GraphTopology:
    """Tree from a nested description.

    ``spec`` is a mapping with keys ``gamma`` (required), ``children``
    (list of child specs), and ``length`` (required for nodes that have
    children, i.e. internal bonds, and passed to BondSpec as it is, so it
    must be an integer; ignored for the root, which is the incoming
    semi-infinite bond).  Nodes without children become semi-infinite
    leaves.  Any other key is an error, so a misspelt ``children`` cannot
    turn an internal bond into a leaf.
    """
    bonds: list[BondSpec] = []

    def walk(node: Mapping, label: str):
        unknown = set(node) - {"gamma", "length", "children"}
        if unknown:
            raise InvalidParameterError(f"tree node {label!r}: unknown keys {sorted(unknown)}")
        if "gamma" not in node:
            raise InvalidParameterError(f"tree node {label!r} is missing 'gamma'")
        kids = node.get("children", [])
        if label == ROOT_LABEL:
            kind, length = KIND_INCOMING, truncation
        elif kids:
            if "length" not in node:
                raise InvalidParameterError(f"internal tree node {label!r} is missing 'length'")
            kind, length = KIND_INTERNAL, node["length"]
        else:
            kind, length = KIND_LEAF, truncation
        bonds.append(BondSpec(label, node["gamma"], length, kind))
        if len(kids) > 9:
            raise InvalidParameterError(f"node {label!r}: at most nine children are supported")
        for i, kid in enumerate(kids, start=1):
            walk(kid, f"{label}{i}")

    walk(spec, ROOT_LABEL)
    return GraphTopology(tuple(bonds), truncation)


def with_truncation(topology: GraphTopology, truncation: int) -> GraphTopology:
    """The same tree with its semi-infinite bonds truncated to ``truncation`` sites.

    Internal bonds keep their exact lengths; every other field is kept.
    """
    bonds = tuple(
        b if b.kind == KIND_INTERNAL else replace(b, length=truncation) for b in topology.bonds
    )
    return replace(topology, bonds=bonds, truncation=truncation)

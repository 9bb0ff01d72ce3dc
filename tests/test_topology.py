from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alnet import (
    BondSpec,
    GraphTopology,
    InvalidParameterError,
    SiteRangeError,
    TopologyError,
    bond_field,
    build_chain,
    build_star,
    build_tree,
    check_sum_rule,
    coupling_coefficients,
    is_reflectionless,
    site_offset,
    topology_from_dict,
    zero_state,
)
from alnet.topology import (
    KIND_INCOMING,
    KIND_INTERNAL,
    KIND_LEAF,
    kept_sites,
    stacked_couplings,
    with_truncation,
)
from conftest import PROPERTY_SETTINGS, ReferenceShift, bits, tree_spec, tree_stacks


class TestBondSpec:
    def test_coerces_numeric_types(self):
        b = BondSpec("1", 2, 100, KIND_INCOMING)
        assert isinstance(b.gamma, float) and isinstance(b.length, int)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(InvalidParameterError):
            BondSpec("1", gamma, 100, KIND_INCOMING)

    @pytest.mark.parametrize("label", ["", "2", "10", "1a", "01", "1 1"])
    def test_rejects_bad_labels(self, label):
        with pytest.raises((InvalidParameterError, TopologyError)):
            BondSpec(label, 1.0, 100, KIND_LEAF)

    def test_rejects_zero_length(self):
        with pytest.raises(InvalidParameterError):
            BondSpec("11", 1.0, 0, KIND_LEAF)


class TestGraphTopology:
    def test_psg_layout(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        assert top.labels == ("1", "11", "12")
        assert top.n_sites == 1200
        assert top.bond("1").kind == KIND_INCOMING
        assert top.bond("11").kind == KIND_LEAF
        np.testing.assert_array_equal(top.site_coordinates("1"), np.arange(-399, 1))
        np.testing.assert_array_equal(top.site_coordinates("12"), np.arange(1, 401))

    def test_slices_partition_flat_layout(self):
        top = build_star((1.0, 2.0, 4.0, 4.0), truncation=50)
        stop = 0
        for label in top.labels:
            s = top.slices[label]
            assert s.start == stop
            stop = s.stop
        assert stop == top.n_sites

    def test_locate_round_trip(self):
        top = build_star((1.0, 1.5, 3.0), truncation=50)
        for flat in [0, 49, 50, 120, 149]:
            label, site = top.locate(flat)
            s = top.slices[label]
            assert s.start + site - int(top.site_coordinates(label)[0]) == flat
        with pytest.raises(SiteRangeError):
            top.locate(150)

    def test_duplicate_labels_rejected(self):
        bonds = (
            BondSpec("1", 1.0, 10, KIND_INCOMING),
            BondSpec("11", 1.0, 10, KIND_LEAF),
            BondSpec("11", 2.0, 10, KIND_LEAF),
        )
        with pytest.raises(TopologyError):
            GraphTopology(bonds, 10)

    def test_missing_parent_rejected(self):
        bonds = (
            BondSpec("1", 1.0, 10, KIND_INCOMING),
            BondSpec("111", 1.0, 10, KIND_LEAF),
        )
        with pytest.raises(TopologyError):
            GraphTopology(bonds, 10)

    def test_semi_infinite_length_must_match_truncation(self):
        bonds = (
            BondSpec("1", 1.0, 10, KIND_INCOMING),
            BondSpec("11", 1.0, 9, KIND_LEAF),
        )
        with pytest.raises(TopologyError):
            GraphTopology(bonds, 10)

    def test_root_must_be_incoming(self):
        bonds = (
            BondSpec("1", 1.0, 10, KIND_LEAF),
            BondSpec("11", 1.0, 10, KIND_LEAF),
        )
        with pytest.raises(TopologyError):
            GraphTopology(bonds, 10)


class TestBuilders:
    def test_star_size_limits(self):
        # two entries are the smallest tree; one leaves the root without an
        # outgoing bond, and eleven would give it a tenth child
        pair = build_star((1.0, 2.0), truncation=20)
        assert pair == build_tree({"gamma": 1.0, "children": [{"gamma": 2.0}]}, truncation=20)
        assert pair.labels == ("1", "11") and pair.leaves == ("11",)
        with pytest.raises(TopologyError):
            build_star((1.0,), truncation=20)
        with pytest.raises(InvalidParameterError):
            build_star(tuple([1.0] * 11), truncation=20)

    def test_star_takes_only_a_list_or_tuple(self):
        # a string or a mapping would otherwise be read as its characters or keys
        for gammas in ("132", {1.0: "a", 3.0: "b", 2.0: "c"}, []):
            with pytest.raises(InvalidParameterError, match="list or tuple"):
                build_star(gammas, truncation=20)

    def test_chain_is_two_equal_bonds(self):
        top = build_chain(2.0, truncation=30)
        assert top.labels == ("1", "11")
        cp = coupling_coefficients(top)
        assert cp.values[("1", "11")] == 1.0

    def test_tree_structure(self):
        top = build_tree(tree_spec(), truncation=100)
        assert top.labels == ("1", "11", "111", "112", "12", "121", "122")
        assert top.bond("11").kind == KIND_INTERNAL
        assert top.bond("11").length == 30
        assert top.bond("111").length == 100
        assert top.leaves == ("111", "112", "121", "122")
        assert top.vertices == {
            "1": ("11", "12"),
            "11": ("111", "112"),
            "12": ("121", "122"),
        }

    def test_tree_internal_needs_length(self):
        spec = {"gamma": 1.0, "children": [{"gamma": 2.0, "children": [{"gamma": 2.0}]}]}
        with pytest.raises(InvalidParameterError):
            build_tree(spec, truncation=50)

    def test_tree_rejects_ten_children(self):
        spec = {"gamma": 1.0, "children": [{"gamma": 10.0}] * 10}
        with pytest.raises(InvalidParameterError):
            build_tree(spec, truncation=50)


def dense(op, n):
    """Matrix of a linear map on the flat layout, one unit vector at a time."""
    return np.column_stack([op(e) for e in np.eye(n, dtype=np.complex128)])


class TestShiftOperator:
    def test_bond_interiors_and_ends(self):
        top = build_star((1.0, 1.5, 3.0), truncation=50)
        cp = coupling_coefficients(top)
        R = dense(cp.forward, top.n_sites)
        # within a bond R shifts by one site away from the root
        assert R[1, 2] == 1.0 and R[60, 61] == 1.0 and R[120, 121] == 1.0
        # leaf ends see nothing beyond them
        assert not np.any(R[99]) and not np.any(R[149])
        # nothing lies before the root's far end, and R never points back
        # toward the root: the children reach the parent only through R^T
        assert not np.any(R[:, 0])
        assert not np.any(np.tril(R))
        np.testing.assert_array_equal(dense(cp.backward, top.n_sites), R.T)

    def test_star_hand_values(self):
        top = build_star((1.0, 1.5, 3.0), truncation=8)
        cp = coupling_coefficients(top)
        st = zero_state(top)
        for i, label in enumerate(top.labels):
            bond_field(st, top, label)[:] = (i + 1) * np.arange(1, 9)
        s11 = cp.values[("1", "11")]
        s12 = cp.values[("1", "12")]
        fwd = cp.forward(st.data)
        bwd = cp.backward(st.data)
        assert fwd[7] == pytest.approx(s11 * 2.0 + s12 * 3.0, rel=1e-15)
        assert bwd[8] == pytest.approx(s11 * 8.0, rel=1e-15)
        assert bwd[16] == pytest.approx(s12 * 8.0, rel=1e-15)
        # two steps across the vertex: second child sites, second-last root site
        assert cp.forward(fwd)[7] == pytest.approx(s11 * 4.0 + s12 * 6.0, rel=1e-15)
        assert cp.backward(bwd)[8] == pytest.approx(s11 * 7.0, rel=1e-15)
        np.testing.assert_array_equal(fwd[:7], st.data[1:8])
        np.testing.assert_array_equal(bwd[9:16], st.data[8:15])
        # bond ends get 0: the root's far end, the leaves' far ends
        assert bwd[0] == 0.0 and fwd[15] == 0.0 and fwd[23] == 0.0

    def test_powers_reach_into_children(self, rng):
        # R^k at a parent's last site sums its children's k-th sites;
        # (R^T)^k at a child's first site reads the parent's k-th last site
        top = build_tree(tree_spec(), truncation=40)
        cp = coupling_coefficients(top)
        st = zero_state(top)
        st.data[:] = rng.random(top.n_sites) + 1j * rng.random(top.n_sites)
        fwd = bwd = st.data
        for k in range(1, 4):
            fwd = cp.forward(fwd)
            bwd = cp.backward(bwd)
            for parent, kids in top.vertices.items():
                expected = sum(
                    cp.values[(parent, c)] * bond_field(st, top, c)[k - 1] for c in kids
                )
                assert fwd[top.slices[parent].stop - 1] == pytest.approx(expected, rel=1e-14)
                for c in kids:
                    assert bwd[top.slices[c].start] == pytest.approx(
                        cp.values[(parent, c)] * bond_field(st, top, parent)[-k], rel=1e-14
                    )

    @pytest.mark.parametrize(
        "topology",
        [
            build_chain(1.0, truncation=20),
            build_star((1.0, 1.5, 3.0), truncation=20),
            build_tree(tree_spec(), truncation=20),
            build_tree(tree_spec(length=1), truncation=20),
        ],
        ids=["chain", "star", "tree", "tree-length-1"],
    )
    def test_backward_is_the_adjoint(self, topology, rng):
        cp = coupling_coefficients(topology)
        n = topology.n_sites
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.vdot(x, cp.forward(y))
        assert abs(lhs - np.vdot(cp.backward(x), y)) <= 1e-13 * abs(lhs)

    def test_built_once_per_topology(self):
        top = build_star((1.0, 1.5, 3.0), truncation=20)
        assert coupling_coefficients(top) is coupling_coefficients(top)
        # the cached hash keeps equal topologies equal and apart ones apart
        twin = build_star((1.0, 1.5, 3.0), truncation=20)
        assert twin is not top and twin == top and hash(twin) == hash(top)
        assert coupling_coefficients(twin) is coupling_coefficients(top)
        assert with_truncation(top, 21) != top

    def test_couplings_carry_their_topology(self):
        # two stars of one layout: R knows which gammas it was built from
        tops = [build_star(gammas, truncation=20) for gammas in ((1.0, 1.5, 3.0), (1.0, 2.0, 2.0))]
        for top in tops:
            assert coupling_coefficients(top).topology == top
        assert coupling_coefficients(tops[1]).topology != tops[0]
        assert stacked_couplings(tops).topology == tops[0]
        assert stacked_couplings(tops[::-1]).topology == tops[1]

    def test_stack_needs_one_layout(self):
        tops = [build_star((1.0, 1.5, 3.0), truncation=20), build_star((0.5, 1.5, 3.0), truncation=20)]
        cp = stacked_couplings(tops)
        assert cp.edge_weights.shape[1] == 2 and cp.site_gamma.shape == (60, 2)
        assert cp.values[("1", "12")] == (
            coupling_coefficients(tops[0]).values[("1", "12")],
            coupling_coefficients(tops[1]).values[("1", "12")],
        )
        for other in (build_star((1.0, 1.5, 3.0), truncation=21), build_star((1.0, 2.0, 4.0, 4.0), 20)):
            with pytest.raises(InvalidParameterError, match="layout"):
                stacked_couplings([tops[0], other])
        with pytest.raises(InvalidParameterError):
            stacked_couplings([])


@PROPERTY_SETTINGS
@given(tops=tree_stacks(), data=st.data())
def test_truncated_maps_equal_the_maps_of_the_truncated_trees(tops, data):
    # the window that evolve steps on: a shorter truncation of the same trees
    tops = [with_truncation(t, 8) for t in tops]
    truncation = data.draw(st.integers(2, 8))
    short = [with_truncation(t, truncation) for t in tops]
    if len(tops) == 1:
        cut, expected = coupling_coefficients(tops[0]).truncated(truncation), coupling_coefficients(short[0])
    else:
        cut, expected = stacked_couplings(tops).truncated(truncation), stacked_couplings(short)
    assert cut.topology == short[0] and cut.values == expected.values
    for name in ("site_gamma", "edge_sites", "edge_terms", "edge_zeros", "edge_weights", "edge_groups"):
        assert np.array_equal(getattr(cut, name), getattr(expected, name)), name
    assert cut.edge_sums == expected.edge_sums
    kept = kept_sites(tops[0], truncation)
    assert [s.stop - s.start for s in kept] == [b.length for b in short[0].bonds]
    assert np.array_equal(np.concatenate([tops[0].site_gamma[s] for s in kept]), short[0].site_gamma)
    walls = [s.start if label == "1" else s.stop - 1 for label, s in tops[0].slices.items()
             if tops[0].bond(label).kind != KIND_INTERNAL]
    assert tops[0].walls.tolist() == walls


@PROPERTY_SETTINGS
@given(tops=tree_stacks(), seed=st.integers(0, 2**32 - 1))
def test_shift_maps_match_the_reference_on_random_trees(tops, seed):
    # magnitudes from order one down through the subnormals to signed zeros
    rng = np.random.default_rng(seed)
    shape = (tops[0].n_sites,) if len(tops) == 1 else (tops[0].n_sites, len(tops))
    scale = 10.0 ** rng.uniform(-330, 0, shape)
    y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    cp = coupling_coefficients(tops[0]) if len(tops) == 1 else stacked_couplings(tops)
    ref = ReferenceShift(tops)
    expected = ref.forward(y)
    assert np.array_equal(bits(cp.forward(y)), bits(expected))
    behind = ref.backward(y)
    assert np.array_equal(bits(cp.backward(y)), bits(behind))
    expected += behind
    assert np.array_equal(bits(cp.neighbors(y)), bits(expected))
    for top in tops:
        single = coupling_coefficients(top)
        n = top.n_sites
        np.testing.assert_array_equal(dense(single.backward, n), dense(single.forward, n).T)
        assert topology_from_dict(asdict(top)) == top


class TestCouplings:
    def test_sum_rule_residuals(self):
        good = build_star((1.0, 1.5, 3.0), truncation=20)
        assert check_sum_rule(good)["1"] == pytest.approx(0.0, abs=1e-15)
        assert is_reflectionless(good)
        bad = build_star((0.5, 1.5, 3.0), truncation=20)
        assert check_sum_rule(bad)["1"] == pytest.approx(1.0)
        assert not is_reflectionless(bad)

    def test_tree_sum_rule_per_vertex(self):
        top = build_tree(tree_spec(), truncation=50)
        residuals = check_sum_rule(top)
        assert set(residuals) == {"1", "11", "12"}
        assert max(abs(r) for r in residuals.values()) < 1e-12

    def test_coupling_values(self):
        top = build_star((1.0, 1.5, 3.0), truncation=20)
        cp = coupling_coefficients(top)
        assert cp.values[("1", "11")] == pytest.approx(np.sqrt(1.0 / 1.5))
        assert cp.values[("1", "12")] == pytest.approx(np.sqrt(1.0 / 3.0))
        # the vertex row of R: the root's last site reads both first child sites
        R = dense(cp.forward, top.n_sites)
        np.testing.assert_array_equal(np.flatnonzero(R[19]), [20, 40])
        assert R[19, 20] == cp.values[("1", "11")]
        assert R[19, 40] == cp.values[("1", "12")]

    def test_site_offsets(self):
        top = build_tree(tree_spec(), truncation=50)
        assert site_offset(top, "1") == 0
        assert site_offset(top, "11") == 0
        assert site_offset(top, "111") == 30
        assert site_offset(top, "122") == 30


def test_dict_round_trip():
    for top in [
        build_star((1.0, 1.5, 3.0), truncation=77),
        build_tree(tree_spec(), truncation=40),
        build_chain(2.5, truncation=12),
    ]:
        assert topology_from_dict(asdict(top)) == top


@PROPERTY_SETTINGS
@given(
    gammas=st.lists(st.floats(0.0, 1e6, exclude_min=True), min_size=2, max_size=10),
    truncation=st.integers(2, 500),
)
def test_topology_forms_agree(gammas, truncation):
    # a star is the depth-one tree, and both come back from their bond list
    star = topology_from_dict({"gammas": gammas, "truncation": truncation})
    tree = {"gamma": gammas[0], "children": [{"gamma": g} for g in gammas[1:]]}
    assert topology_from_dict({"tree": tree, "truncation": truncation}) == star
    assert topology_from_dict(asdict(star)) == star
    assert len(star.bonds) == len(gammas) and star.leaves == star.labels[1:]


def test_dict_shorthands():
    star = topology_from_dict({"gammas": [1.0, 1.5, 3.0], "truncation": 25})
    assert star == build_star((1.0, 1.5, 3.0), truncation=25)
    chain = topology_from_dict({"gammas": [2.0, 2.0], "truncation": 25})
    assert chain == build_chain(2.0, truncation=25)
    pair = topology_from_dict({"gammas": [2.0, 3.0], "truncation": 25})
    assert pair == build_tree({"gamma": 2.0, "children": [{"gamma": 3.0}]}, truncation=25)
    for gammas in ([2.0], [2.0] * 11):
        with pytest.raises((InvalidParameterError, TopologyError)):
            topology_from_dict({"gammas": gammas, "truncation": 25})
    tree = topology_from_dict({"tree": tree_spec(), "truncation": 30})
    assert tree == build_tree(tree_spec(), truncation=30)
    with pytest.raises(InvalidParameterError):
        topology_from_dict({"truncation": 30})

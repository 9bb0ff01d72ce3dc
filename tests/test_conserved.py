import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alnet import (
    DivergenceError,
    FieldState,
    InvalidParameterError,
    SimConfig,
    SolitonParams,
    bond_field,
    build_chain,
    build_star,
    build_tree,
    coupling_coefficients,
    drift_audit,
    evolve,
    higher_constants_recursive,
    norm,
    snapshot,
    soliton_profile,
    site_offset,
    soliton_trajectory,
    universal_chain_field,
    z_quantity,
    zero_state,
)
from conftest import (
    ALPHA_FIG4,
    PROPERTY_SETTINGS,
    decaying_random_field,
    glued_state,
    stencil_constants,
    tree_spec,
    tree_stacks,
    with_sum_rule,
)


def closed_form_constant(m, alpha, beta):
    # soliton value of the m-th constant on a sum-rule graph
    return -(2.0 / m) * math.sinh(m * beta) * np.exp(1j * m * alpha)


def with_sites(field, sites, value):
    out = np.array(field, dtype=np.complex128)
    out[list(sites)] = value
    return out


def assert_continuous_at_zeros(evaluate, field, sites):
    # constants with exact zeros equal those with the zeros nudged to 1e-20
    exact = np.array(evaluate(with_sites(field, sites, 0.0)))
    nudged = np.array(evaluate(with_sites(field, sites, 1e-20)))
    assert np.max(np.abs(exact - nudged)) <= 1e-12 * np.max(np.abs(nudged))


@st.composite
def fields_with_zeros(draw):
    u = decaying_random_field(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    sites = draw(st.sets(st.integers(1, len(u) - 2), min_size=1, max_size=3))
    return u, sorted(sites)


def random_field(rng, n, scale=0.4):
    return scale * (rng.random(n) - 0.5) + 1j * scale * (rng.random(n) - 0.5)


@st.composite
def glued_trees(draw):
    """A random sum-rule tree and a random chain field to glue onto it.

    The field vanishes past the end of the shortest leaf in unrolled
    coordinates, so every sibling subtree sees all of it, as on a tree
    whose leaves reach far past the field.  Also returns 1-3 of its
    nonzero sites, leaving at least two.
    """
    (top,) = draw(tree_stacks(max_columns=1))
    top = with_sum_rule(top)
    root = top.bond("1").length
    ends = [site_offset(top, leaf) + top.bond(leaf).length for leaf in top.leaves]
    span = root + max(site_offset(top, b.label) + b.length for b in top.bonds[1:])
    u = np.zeros(span, dtype=np.complex128)
    support = root + min(ends)
    u[:support] = random_field(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), support)
    sites = draw(st.sets(st.integers(0, support - 1), min_size=1, max_size=min(3, support - 2)))
    return top, u, sorted(sites)


def assert_close(got, want, rel):
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= rel * abs(w)


NODE_STAR = build_star((1.0, 1.5, 3.0), truncation=32)
# a glued tanh x Gaussian with an exact node on the children's bonds
NODE_X = np.arange(64) - 36.0
NODE_FIELD = 0.5 * np.tanh(0.3 * NODE_X) * np.exp(-((NODE_X / 6.0) ** 2) + 0.7j * NODE_X)


class TestNormAndZ:
    def test_norm_hand_values(self):
        top = build_chain(3.0, truncation=10)
        st = zero_state(top)
        assert norm(st, top) == 0.0
        st.data[4] = 1.0
        assert norm(st, top) == pytest.approx(math.log(4.0) / 3.0, rel=1e-14)
        st.data[12] = 2.0
        assert norm(st, top) == pytest.approx(
            (math.log(4.0) + math.log(13.0)) / 3.0, rel=1e-14
        )

    def test_z_two_site_example(self):
        # one unit amplitude on each side of the vertex: Z comes entirely
        # from the vertex cross term and is +1
        top = build_chain(1.0, truncation=2)
        st = zero_state(top)
        st.data[:] = [0.0, 1.0, 1.0, 0.0]
        z = z_quantity(st, top)
        assert z == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_z_reduces_to_chain_pair_sum_on_glued_states(self, rng):
        top = build_star((1.0, 1.5, 3.0), truncation=32)
        u = decaying_random_field(rng)
        st = glued_state(top, u)
        expected = np.sum(np.conj(u[:-1]) * u[1:])
        assert z_quantity(st, top) == pytest.approx(complex(expected), abs=1e-14)

    def test_z_soliton_closed_form(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        st = soliton_profile(p, top)
        z = z_quantity(st, top)
        assert z.real == pytest.approx(-0.14165717637689892, abs=1e-13)
        assert z.imag == pytest.approx(0.1416571763768989, abs=1e-13)


class TestDirectConstants:
    """The graph ladder's C2 and C3 against explicit loops and the stencil oracle."""

    def test_c2_against_plain_loop(self, rng):
        # independent re-derivation: explicit per-site loop on the padded
        # chain field, no slicing tricks
        top = build_chain(1.0, truncation=32)
        u = decaying_random_field(rng)
        st = glued_state(top, u)
        e = np.zeros(len(u) + 4, dtype=np.complex128)
        e[2:-2] = u
        acc = 0.0 + 0.0j
        for n in range(1, len(e) - 1):
            acc += np.conj(e[n + 1]) * e[n - 1] * (1 + abs(e[n]) ** 2)
            acc += 0.5 * e[n] ** 2 * np.conj(e[n + 1]) ** 2
        assert snapshot(st, top, m_max=2).C[0] == pytest.approx(complex(-acc), rel=1e-13)
        assert stencil_constants(st, top)[0] == pytest.approx(complex(-acc), rel=1e-13)

    def test_c3_against_plain_loop(self, rng):
        top = build_chain(1.0, truncation=32)
        u = decaying_random_field(rng)
        st = glued_state(top, u)
        e = np.zeros(len(u) + 4, dtype=np.complex128)
        e[2:-2] = u
        acc = 0.0 + 0.0j
        for n in range(1, len(e) - 2):
            t = np.conj(e[n + 2]) * e[n - 1] * (1 + abs(e[n + 1]) ** 2)
            t += np.conj(e[n]) * np.conj(e[n + 1]) * e[n - 1] ** 2
            t += np.conj(e[n + 1]) ** 2 * e[n] * e[n - 1]
            acc += t * (1 + abs(e[n]) ** 2)
            acc += (1.0 / 3.0) * (np.conj(e[n + 1]) * e[n]) ** 3
        assert snapshot(st, top, m_max=3).C[1] == pytest.approx(complex(-acc), rel=1e-13)
        assert stencil_constants(st, top)[1] == pytest.approx(complex(-acc), rel=1e-13)

    def test_constants_are_gamma_independent_for_glued_states(self, rng):
        # the gamma_1 / gamma bond weights cancel the sqrt(gamma) field
        # scaling, so a glued chain field keeps its plain-chain constants
        # at every order on any sum-rule graph
        u = decaying_random_field(rng)
        uniform = build_chain(1.0, truncation=32)
        ref = snapshot(glued_state(uniform, u), uniform, m_max=6).C
        for top in (
            build_star((2.0, 3.0, 6.0), truncation=32),
            build_star((0.25, 0.5, 0.5), truncation=32),
        ):
            assert_close(snapshot(glued_state(top, u), top, m_max=6).C, ref, rel=1e-13)

    @pytest.mark.parametrize("length", [1, 2])
    def test_short_internal_bonds_match_the_recursion(self, length):
        # the ladder steps from a bond shorter than the stencils into the
        # grandchildren and still sees the glued chain field
        top = build_tree(tree_spec(length=length), truncation=200)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.3, n0=0.0)
        st = soliton_profile(p, top)
        q, residual = universal_chain_field(st, top)
        assert residual < 1e-15
        cs = snapshot(st, top, m_max=6).C
        assert_close(cs, higher_constants_recursive(q, 6)[1:], rel=1e-12)
        assert_close(cs[:2], stencil_constants(st, top), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_soliton_closed_forms(self, m):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        got = snapshot(soliton_profile(p, top), top, m_max=6).C[m - 2]
        assert got == pytest.approx(closed_form_constant(m, ALPHA_FIG4, 0.1), abs=1e-12)

    def test_frozen_fig4_values(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        c2, c3 = snapshot(soliton_profile(p, top), top, m_max=3).C
        assert c2 == pytest.approx(-0.201336002541094j, abs=1e-12)
        assert c3 == pytest.approx(-0.1435522430035944 + 0.1435522430035948j, abs=1e-12)


class TestGraphLadder:
    """``snapshot``'s ladder on random trees from ``tree_stacks``."""

    @PROPERTY_SETTINGS
    @given(glued_trees())
    def test_matches_the_chain_and_the_stencils_on_sum_rule_trees(self, case):
        top, u, _ = case
        st = glued_state(top, u)
        q, residual = universal_chain_field(st, top)
        assert residual < 1e-15
        cs = snapshot(st, top, m_max=6).C
        assert_close(cs, higher_constants_recursive(q, 6)[1:], 1e-12)
        assert_close(cs[:2], stencil_constants(st, top), 1e-12)

    @PROPERTY_SETTINGS
    @given(tree_stacks(max_columns=1), st.integers(0, 2**32 - 1))
    def test_c2_matches_the_stencil_on_any_tree(self, tops, seed):
        # arbitrary gammas, sum rule or not, and an arbitrary field
        (top,) = tops
        st = FieldState(random_field(np.random.default_rng(seed), top.n_sites))
        c2 = snapshot(st, top, m_max=2).C[0]
        assert c2 == pytest.approx(stencil_constants(st, top)[0], rel=1e-12)

    def test_c3_off_the_rule_is_another_extension(self):
        # the stencil reads two sites ahead through R, the ladder one site
        # back; off the rule the two extensions differ at the vertex
        top = build_star((0.5, 1.5, 3.0), truncation=60)
        st = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=0.3, n0=-1.0), top)
        c2, c3 = snapshot(st, top, m_max=3).C
        o2, o3 = stencil_constants(st, top)
        assert c2 == pytest.approx(o2, rel=1e-12)
        assert abs(c3 - o3) > 1e-4 * abs(o3)


class TestUniversalChainField:
    def test_round_trips_glued_states(self, rng):
        top = build_star((1.0, 1.5, 3.0), truncation=32)
        u = decaying_random_field(rng)
        q, residual = universal_chain_field(glued_state(top, u), top)
        assert residual < 1e-15
        np.testing.assert_allclose(q, u, rtol=1e-14)

    def test_tree_follows_first_children(self, rng):
        top = build_tree(tree_spec(), truncation=40)
        u = decaying_random_field(rng, n=40 + 30 + 40)
        q, residual = universal_chain_field(glued_state(top, u), top)
        assert q.shape == (110,)
        assert residual < 1e-15
        np.testing.assert_allclose(q, u, rtol=1e-13, atol=1e-18)

    def test_residual_flags_broken_gluing(self, rng):
        top = build_star((1.0, 1.5, 3.0), truncation=32)
        st = glued_state(top, decaying_random_field(rng))
        bond_field(st, top, "12")[5] += 0.25 / math.sqrt(3.0)
        _, residual = universal_chain_field(st, top)
        assert residual == pytest.approx(0.25, rel=1e-12)


class TestRecursion:
    def test_matches_direct_constants_on_random_fields(self, rng):
        top = build_star((1.0, 1.5, 3.0), truncation=32)
        for _ in range(5):
            u = decaying_random_field(rng)
            st = glued_state(top, u)
            direct = stencil_constants(st, top)
            rec = higher_constants_recursive(u, 3)
            assert rec[1] == pytest.approx(direct[0], rel=1e-12)
            assert rec[2] == pytest.approx(direct[1], rel=1e-12)

    def test_first_order_is_minus_conjugate_pair_sum(self, rng):
        gamma = 2.0
        top = build_chain(gamma, truncation=32)
        u = decaying_random_field(rng)
        st = glued_state(top, u)
        c1 = higher_constants_recursive(u, 1)[0]
        z = z_quantity(st, top)
        assert c1 == pytest.approx(-np.conj(gamma * z), rel=1e-13)

    def test_soliton_fourth_order_closed_form(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        q, _ = universal_chain_field(soliton_profile(p, top), top)
        c4 = higher_constants_recursive(q, 4)[3]
        assert c4 == pytest.approx(closed_form_constant(4, ALPHA_FIG4, 0.1), abs=1e-12)
        assert c4.real == pytest.approx(0.5 * math.sinh(0.4), rel=1e-12)

    def test_exact_zeros_take_the_limit_branch(self):
        # isolated bumps at sites 2 and 7: only C5, their five-site hopping
        # term 1.3 * 0.7j, survives, as it does for nearly-zero sites
        q = with_sites(np.zeros(12), (2, 7), (1.3, 0.7j))
        cs = higher_constants_recursive(q, 6)
        assert cs == pytest.approx([0j, 0j, 0j, 0j, 0.91j, 0j], abs=1e-15)
        zeros = [n for n in range(12) if n not in (2, 7)]
        assert_continuous_at_zeros(lambda v: higher_constants_recursive(v, 6), q, zeros)

    @PROPERTY_SETTINGS
    @given(fields_with_zeros())
    @example((np.array([1e20, 1e-31, 1e20, 0.3, 0.3]), [1]))
    def test_continuous_at_exact_zeros(self, case):
        field, sites = case
        assert_continuous_at_zeros(lambda q: higher_constants_recursive(q, 6), field, sites)

    def test_order_truncation_consistency(self, rng):
        u = decaying_random_field(rng)
        assert higher_constants_recursive(u, 5)[:3] == pytest.approx(
            higher_constants_recursive(u, 3)
        )

    def test_global_phase_invariance(self, rng):
        u = decaying_random_field(rng)
        a = higher_constants_recursive(u, 4)
        b = higher_constants_recursive(u * np.exp(0.91j), 4)
        assert b == pytest.approx(a, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            higher_constants_recursive(np.zeros(4, dtype=complex), 0)
        with pytest.raises(InvalidParameterError):
            higher_constants_recursive(np.zeros(4, dtype=complex), True)
        with pytest.raises(InvalidParameterError):
            higher_constants_recursive(np.zeros((2, 2), dtype=complex), 2)
        for n in (0, 1):
            assert higher_constants_recursive(np.zeros(n, dtype=complex), 3) == [0j, 0j, 0j]

    def test_an_overflowing_constant_raises(self):
        # C6 multiplies twelve field values: (1e30)^12 is past the largest double
        with pytest.raises(InvalidParameterError, match="overflow"):
            higher_constants_recursive(np.full(5, 1e30), 6)
        assert all(np.isfinite(higher_constants_recursive(np.full(5, 1e20), 6)))


class TestSnapshotAndDrift:
    def test_snapshot_assembles_all_quantities(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        st = soliton_profile(p, top)
        snap = snapshot(st, top, m_max=4)
        assert snap.time == 0.0
        assert snap.N == pytest.approx(0.2, abs=1e-13)
        assert snap.Z == z_quantity(st, top)
        assert snap.E == pytest.approx(-2 * snap.Z.real)
        assert snap.J == pytest.approx(2 * snap.Z.imag)
        assert len(snap.C) == 3
        for m, c in zip((2, 3, 4), snap.C):
            assert c == pytest.approx(closed_form_constant(m, ALPHA_FIG4, 0.1), abs=1e-11)

    @PROPERTY_SETTINGS
    @given(glued_trees())
    @example((NODE_STAR, NODE_FIELD, [36]))
    def test_snapshot_is_continuous_at_a_node(self, case):
        # exact zeros of a glued field on a sum-rule tree, which land on
        # every sibling bond at once; the example has its node on the
        # children's bonds
        top, u, sites = case
        assert_continuous_at_zeros(
            lambda v: snapshot(glued_state(top, v), top, m_max=6).C, u, sites
        )

    def test_an_overflowing_snapshot_names_the_largest_field(self):
        top = build_star((1.0, 1.5, 3.0), truncation=10)
        st = zero_state(top)
        st.data[:] = 1e30
        st.data[top.slices["12"].start + 3] = 2e30  # the largest |q|, sqrt(3) * 2e30
        st.time = 1.5
        with pytest.raises(DivergenceError, match="C_6 overflows") as exc:
            snapshot(st, top, m_max=6)
        assert (exc.value.bond, exc.value.site, exc.value.time) == ("12", 4, 1.5)
        assert all(np.isfinite(snapshot(st, top, m_max=2).C))

    def test_snapshot_m_max_validation(self):
        top = build_chain(1.0, truncation=4)
        st = zero_state(top)
        for bad in (0, -1, 1.5, True):
            with pytest.raises(InvalidParameterError):
                snapshot(st, top, m_max=bad)
        assert snapshot(st, top, m_max=1).C == ()

    def test_recursion_orders_need_the_sum_rule(self):
        # every order is evaluated on any graph; the flow conserves them
        # all under the sum rule and none of them off it
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.3, n0=-20.0)
        config = SimConfig(dt=0.01, t_final=20.0, output_stride=10)
        orders = [f"C{m}" for m in range(2, 7)]
        drifts = {}
        for gammas in ((0.5, 1.5, 3.0), (1.0, 1.5, 3.0)):
            top = build_star(gammas, truncation=60)
            report = drift_audit(soliton_trajectory(top, p, config), top, m_max=6)
            assert set(report.drifts) == {"N", "E", "J", *orders}
            drifts[gammas] = report.drifts
        assert min(drifts[(0.5, 1.5, 3.0)][c] for c in orders) > 1e-2
        assert max(drifts[(1.0, 1.5, 3.0)].values()) < 1e-8

    def test_drift_audit_on_a_short_run(self):
        # box wide enough that hard-wall tails stay below integrator error
        top = build_star((1.0, 1.5, 3.0), truncation=200)
        cp = coupling_coefficients(top)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-70.0)
        traj = list(evolve(soliton_profile(p, top), cp, SimConfig(dt=0.01, t_final=2.0)))
        report = drift_audit(traj, top, m_max=4)
        assert set(report.drifts) == {"N", "E", "J", "C2", "C3", "C4"}
        assert max(report.drifts.values()) < 1e-9
        assert report.chain_residual < 1e-11
        assert report.snapshots[0].time == 0.0
        assert report.snapshots[-1].time == pytest.approx(2.0)

    def test_drift_audit_collapses_each_state_once(self, monkeypatch):
        # the audit's residual comes from the chain field snapshot computed
        top = build_star((1.0, 1.5, 3.0), truncation=40)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-10.0)
        states = [soliton_profile(p, top, t) for t in (0.0, 5.0, 10.0)]
        calls = []

        def counted(state, topology):
            calls.append(state.time)
            return universal_chain_field(state, topology)

        monkeypatch.setattr("alnet.conserved.universal_chain_field", counted)
        report = drift_audit(states, top, m_max=4)
        assert calls == [0.0, 5.0, 10.0]
        assert report.chain_residual == max(
            universal_chain_field(s, top)[1] for s in states
        )

    def test_drift_audit_rejects_empty_trajectory(self):
        top = build_chain(1.0, truncation=4)
        with pytest.raises(InvalidParameterError):
            drift_audit([], top)

    def test_drift_audit_zero_field(self):
        top = build_chain(1.0, truncation=8)
        report = drift_audit([zero_state(top), zero_state(top)], top, m_max=2)
        assert report.drifts == {"N": 0.0, "E": 0.0, "J": 0.0, "C2": 0.0}

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alnet import (
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
    higher_constants_direct,
    higher_constants_recursive,
    norm,
    snapshot,
    soliton_profile,
    universal_chain_field,
    z_quantity,
    zero_state,
)
from conftest import (
    ALPHA_FIG4,
    PROPERTY_SETTINGS,
    decaying_random_field,
    glued_state,
    tree_spec,
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
        c2, _ = higher_constants_direct(st, top)
        assert c2 == pytest.approx(complex(-acc), rel=1e-13)

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
        _, c3 = higher_constants_direct(st, top)
        assert c3 == pytest.approx(complex(-acc), rel=1e-13)

    def test_constants_are_gamma_independent_for_glued_states(self, rng):
        # the incoming-bond prefactor cancels the per-bond 1/gamma weights,
        # so a glued chain field keeps its plain-chain constants on any graph
        u = decaying_random_field(rng)
        uniform = build_chain(1.0, truncation=32)
        ref = higher_constants_direct(glued_state(uniform, u), uniform)
        for top in (
            build_star((2.0, 3.0, 6.0), truncation=32),
            build_star((0.25, 0.5, 0.5), truncation=32),
        ):
            got = higher_constants_direct(glued_state(top, u), top)
            assert got[0] == pytest.approx(ref[0], rel=1e-13)
            assert got[1] == pytest.approx(ref[1], rel=1e-13)

    @pytest.mark.parametrize("length", [1, 2])
    def test_short_internal_bonds_match_the_recursion(self, length):
        # the stencils reach through a bond shorter than themselves into
        # the grandchildren and still see the glued chain field
        top = build_tree(tree_spec(length=length), truncation=200)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.3, n0=0.0)
        st = soliton_profile(p, top)
        q, residual = universal_chain_field(st, top)
        assert residual < 1e-15
        direct = higher_constants_direct(st, top)
        rec = higher_constants_recursive(q, 3)
        assert direct[0] == pytest.approx(rec[1], rel=1e-12)
        assert direct[1] == pytest.approx(rec[2], rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_soliton_closed_forms(self, m):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        st = soliton_profile(p, top)
        got = higher_constants_direct(st, top)[m - 2]
        assert got == pytest.approx(closed_form_constant(m, ALPHA_FIG4, 0.1), abs=1e-12)

    def test_frozen_fig4_values(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        c2, c3 = higher_constants_direct(soliton_profile(p, top), top)
        assert c2 == pytest.approx(-0.201336002541094j, abs=1e-12)
        assert c3 == pytest.approx(-0.1435522430035944 + 0.1435522430035948j, abs=1e-12)


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
            direct = higher_constants_direct(st, top)
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


class TestSnapshotAndDrift:
    def test_snapshot_assembles_all_quantities(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        st = soliton_profile(p, top)
        snap = snapshot(st, top, m_max=4)
        assert snap.time == 0.0
        assert snap.N == pytest.approx(0.2, abs=1e-13)
        assert snap.E == pytest.approx(-2 * snap.Z.real)
        assert snap.J == pytest.approx(2 * snap.Z.imag)
        assert len(snap.C) == 3
        for m, c in zip((2, 3, 4), snap.C):
            assert c == pytest.approx(closed_form_constant(m, ALPHA_FIG4, 0.1), abs=1e-11)

    def test_snapshot_is_continuous_at_a_node(self):
        # a glued tanh x Gaussian with an exact node on the children's bonds
        top = build_star((1.0, 1.5, 3.0), truncation=32)
        x = np.arange(64) - 36.0
        u = 0.5 * np.tanh(0.3 * x) * np.exp(-((x / 6.0) ** 2) + 0.7j * x)
        assert u[36] == 0.0
        assert_continuous_at_zeros(
            lambda v: snapshot(glued_state(top, v), top, m_max=6).C, u, [36]
        )

    def test_snapshot_m_max_validation(self):
        top = build_chain(1.0, truncation=4)
        st = zero_state(top)
        for bad in (0, -1, 1.5, True):
            with pytest.raises(InvalidParameterError):
                snapshot(st, top, m_max=bad)
        assert snapshot(st, top, m_max=1).C == ()

    def test_recursion_orders_need_the_sum_rule(self):
        # C4 and above come from the first-child chain, which a broken rule makes meaningless
        top = build_star((0.5, 1.5, 3.0), truncation=60)
        st = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-20.0), top)
        for m_max in (4, 6):
            with pytest.raises(InvalidParameterError, match="sum rule"):
                snapshot(st, top, m_max=m_max)
            with pytest.raises(InvalidParameterError, match="sum rule"):
                drift_audit([st, st], top, m_max=m_max)
        assert len(snapshot(st, top, m_max=3).C) == 2
        assert set(drift_audit([st, st], top, m_max=3).drifts) == {"N", "E", "J", "C2", "C3"}

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

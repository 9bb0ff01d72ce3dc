import math

import numpy as np
import pytest

from alnet import (
    DivergenceError,
    InvalidParameterError,
    SimConfig,
    SiteRangeError,
    SolitonParams,
    bond_field,
    build_chain,
    build_psg,
    build_star,
    build_tree,
    coupling_coefficients,
    evolve,
    local_current,
    record_trajectory,
    rhs,
    soliton_profile,
    step,
    zero_state,
)
from alnet.state import FieldState
from alnet.topology import stacked_couplings
from conftest import ALPHA_FIG4, tree_spec


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig()
        assert c.dt == 0.01 and c.t_final is None and c.output_stride == 100

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(InvalidParameterError):
            SimConfig(dt=dt)

    @pytest.mark.parametrize("t_final", [-1.0, float("nan")])
    def test_rejects_bad_t_final(self, t_final):
        with pytest.raises(InvalidParameterError):
            SimConfig(t_final=t_final)

    @pytest.mark.parametrize("stride", [0, -2, 1.5, True])
    def test_rejects_bad_stride(self, stride):
        with pytest.raises(InvalidParameterError):
            SimConfig(output_stride=stride)


class TestRhs:
    def test_hand_value_on_a_short_chain(self):
        top = build_chain(2.0, truncation=2)
        st = zero_state(top)
        st.data[:] = [0.1, 0.2j, 0.3, 0.4]
        d = rhs(st, top, coupling_coefficients(top))
        # interior site 1: neighbors 0.1 and 0.3, density |0.2|^2
        assert d[1] == pytest.approx(1j * (0.1 + 0.3) * (1 + 2.0 * 0.04))
        # end site 0: only right neighbor
        assert d[0] == pytest.approx(1j * 0.2j * (1 + 2.0 * 0.01))
        # vertex pair (site 1 <-> site 2) has coupling weight 1
        assert d[2] == pytest.approx(1j * (0.2j + 0.4) * (1 + 2.0 * 0.09))

    def test_vertex_weights_on_a_star(self):
        top = build_psg(1.0, 1.5, 3.0, truncation=3)
        cp = coupling_coefficients(top)
        st = zero_state(top)
        st.data[:] = np.arange(1.0, 10.0)
        d = rhs(st, top, cp)
        s2, s3 = cp.values[("1", "11")], cp.values[("1", "12")]
        assert d[2] == pytest.approx(1j * (2.0 + s2 * 4.0 + s3 * 7.0) * (1 + 9.0))
        assert d[3] == pytest.approx(1j * (s2 * 3.0 + 5.0) * (1 + 1.5 * 16.0))
        assert d[6] == pytest.approx(1j * (s3 * 3.0 + 8.0) * (1 + 3.0 * 49.0))

    @pytest.mark.parametrize(
        "topology",
        [
            build_chain(1.0, truncation=400),
            build_psg(1.0, 1.5, 3.0, truncation=400),
            build_tree(tree_spec(), truncation=400),
        ],
        ids=["chain", "star", "tree"],
    )
    def test_matches_analytic_time_derivative(self, topology):
        # the exact soliton turns the lattice equation into an identity:
        # d psi / dt = psi (beta v tanh(beta (m - n0)) - i omega).  Peak
        # on the vertex so a wrong coupling weight cannot hide in a tail.
        from alnet import site_offset

        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=0.0)
        omega, v = p.omega, p.velocity
        st = soliton_profile(p, topology)
        d = rhs(st, topology, coupling_coefficients(topology))
        exact = np.empty_like(st.data)
        for label in topology.labels:
            coords = topology.site_coordinates(label) + site_offset(topology, label)
            x = p.beta * (coords - p.n0)
            seg = topology.slices[label]
            exact[seg] = st.data[seg] * (p.beta * v * np.tanh(x) - 1j * omega)
        assert np.max(np.abs(d - exact)) < 1e-11

    def test_derivative_cross_check_by_finite_difference(self):
        # independent of the closed form above, up to O(eps^2) noise
        top = build_psg(1.0, 1.5, 3.0, truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=0.0)
        st = soliton_profile(p, top)
        d = rhs(st, top, coupling_coefficients(top))
        eps = 1e-4
        fd = (soliton_profile(p, top, t=eps).data - soliton_profile(p, top, t=-eps).data) / (2 * eps)
        assert np.max(np.abs(d - fd)) < 1e-8

    def test_shape_mismatch_rejected(self):
        top = build_chain(1.0, truncation=10)
        other = build_chain(1.0, truncation=11)
        with pytest.raises(InvalidParameterError):
            rhs(zero_state(other), top, coupling_coefficients(top))


class TestStepAndEvolve:
    def test_step_advances_time_and_returns_new_state(self):
        top = build_chain(1.0, truncation=50)
        p = SolitonParams(alpha=0.4, beta=0.2, n0=0.0)
        st = soliton_profile(p, top)
        new = step(st, top, coupling_coefficients(top), 0.01)
        assert new is not st
        assert new.time == pytest.approx(0.01)
        assert np.max(np.abs(new.data - st.data)) > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_raises_on_blowup(self):
        top = build_chain(1.0, truncation=20)
        st = zero_state(top)
        st.data[:] = 1e8
        with pytest.raises(DivergenceError):
            step(st, top, coupling_coefficients(top), 10.0)

    def test_observer_cadence(self):
        top = build_chain(1.0, truncation=20)
        cfg = SimConfig(dt=0.1, t_final=1.0, output_stride=3)
        times = []
        evolve(zero_state(top), top, coupling_coefficients(top), cfg,
               observers=[lambda t, s: times.append(t)])
        assert np.allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_evolve_requires_t_final(self):
        top = build_chain(1.0, truncation=20)
        with pytest.raises(InvalidParameterError):
            evolve(zero_state(top), top, coupling_coefficients(top), SimConfig())

    def test_record_trajectory_snapshots_are_copies(self):
        top = build_chain(1.0, truncation=40)
        p = SolitonParams(alpha=0.4, beta=0.2, n0=0.0)
        st = soliton_profile(p, top)
        traj = record_trajectory(st, top, coupling_coefficients(top),
                                 SimConfig(dt=0.05, t_final=0.5, output_stride=5))
        assert len(traj) == 3
        assert [s.time for s in traj] == pytest.approx([0.0, 0.25, 0.5])
        assert traj[0].data is not st.data
        np.testing.assert_array_equal(traj[0].data, st.data)

    def test_fourth_order_solution_convergence(self):
        # truncation large enough that hard-wall tails sit far below the
        # integrator error at both step sizes
        top = build_chain(1.0, truncation=400)
        cp = coupling_coefficients(top)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-40.0)
        st = soliton_profile(p, top)
        exact = soliton_profile(p, top, t=2.0)
        errs = []
        for dt in (0.02, 0.01):
            cur = st
            for _ in range(round(2.0 / dt)):
                cur = step(cur, top, cp, dt)
            errs.append(np.max(np.abs(cur.data - exact.data)))
        ratio = errs[0] / errs[1]
        assert 14.0 < ratio < 18.0

    def test_global_phase_covariance(self):
        # psi -> e^{i theta} psi maps solutions to solutions
        top = build_psg(1.0, 1.5, 3.0, truncation=60)
        cp = coupling_coefficients(top)
        p = SolitonParams(alpha=0.9, beta=0.3, n0=-20.0)
        st = soliton_profile(p, top)
        theta = 0.77
        rotated = FieldState(st.data * np.exp(1j * theta), st.time)
        a = step(st, top, cp, 0.01)
        b = step(rotated, top, cp, 0.01)
        np.testing.assert_allclose(b.data, a.data * np.exp(1j * theta), rtol=1e-12)


class TestStackedStep:
    @pytest.mark.parametrize(
        "tops",
        [
            [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 40) for r in (0.1, 0.5, 0.9)],
            [build_star(g, 40) for g in ((1.0, 2.0, 4.0, 4.0), (1.0, 3.0, 3.0, 3.0))],
            [build_tree(tree_spec(2), 30), build_tree(tree_spec(2) | {"gamma": 0.7}, 30)],
        ],
        ids=["stars", "four-way-stars", "trees"],
    )
    def test_columns_equal_single_runs(self, tops, rng):
        n = tops[0].n_sites
        start = 0.3 * (rng.standard_normal((n, len(tops))) + 1j * rng.standard_normal((n, len(tops))))
        stack = FieldState(start)
        singles = [FieldState(start[:, b]) for b in range(len(tops))]
        cp = stacked_couplings(tops)
        for _ in range(40):
            stack = step(stack, tops[0], cp, 0.01)
            singles = [step(s, t, coupling_coefficients(t), 0.01) for s, t in zip(singles, tops)]
        assert stack.data.shape == (n, len(tops))
        for b, single in enumerate(singles):
            assert np.array_equal(stack.data[:, b], single.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_in_one_column_names_its_site(self):
        tops = [build_psg(1.0, 1.5, 3.0, truncation=10), build_psg(1.0, 2.0, 2.0, truncation=10)]
        st = FieldState(np.full((30, 2), 0.1 + 0j))
        st.data[25, 1] = np.nan
        with pytest.raises(DivergenceError) as exc:
            step(st, tops[0], stacked_couplings(tops), 0.01)
        # the four stages spread the NaN four sites each way, to flat site 21
        assert (exc.value.bond, exc.value.site) == ("12", 2)


class TestLocalCurrent:
    def test_hand_value_and_sign(self):
        top = build_chain(1.0, truncation=30)
        st = zero_state(top)
        a = bond_field(st, top, "1")
        a[10] = 1.0
        a[11] = 1.0j
        n = int(top.site_coordinates("1")[10])
        assert local_current(st, top, "1", n) == pytest.approx(2.0)
        # rightward soliton carries positive current
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-15.0)
        moving = soliton_profile(p, top)
        assert p.velocity > 0
        assert local_current(moving, top, "1", -15) > 0

    def test_link_must_be_interior(self):
        top = build_chain(1.0, truncation=30)
        st = zero_state(top)
        assert local_current(st, top, "1", -1) == 0.0
        with pytest.raises(SiteRangeError):
            local_current(st, top, "1", 0)  # partner would be the vertex
        with pytest.raises(SiteRangeError):
            local_current(st, top, "11", 30)
        with pytest.raises(SiteRangeError):
            local_current(st, top, "1", -30)

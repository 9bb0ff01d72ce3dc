import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alnet import (
    DivergenceError,
    InvalidParameterError,
    SimConfig,
    SolitonParams,
    build_chain,
    build_star,
    build_tree,
    coupling_coefficients,
    evolve,
    soliton_profile,
    step,
)
from alnet import dynamics
from alnet.dynamics import StepWorkspace
from alnet.state import FieldState
from alnet.topology import KIND_INTERNAL, with_truncation
from conftest import (
    ALPHA_FIG4,
    PROPERTY_SETTINGS,
    ReferenceShift,
    bits,
    rhs,
    tree_spec,
    tree_stacks,
    with_sum_rule,
    zero_state,
)


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

    @pytest.mark.parametrize("dt, t_final", [(0.01, 200.0), (0.03, 0.06), (0.1, 0.3), (0.01, 0.0)])
    def test_accepts_a_t_final_on_the_dt_grid_to_rounding(self, dt, t_final):
        # 0.3 / 0.1 is 2.9999999999999996
        assert SimConfig(dt=dt, t_final=t_final).n_steps == round(t_final / dt)

    @pytest.mark.parametrize("stride", [0, -2, 1.5, True])
    def test_rejects_bad_stride(self, stride):
        with pytest.raises(InvalidParameterError):
            SimConfig(output_stride=stride)


class TestRhs:
    def test_hand_value_on_a_short_chain(self):
        top = build_chain(2.0, truncation=2)
        st = zero_state(top)
        st.data[:] = [0.1, 0.2j, 0.3, 0.4]
        d = rhs(st, top)
        # interior site 1: neighbors 0.1 and 0.3, density |0.2|^2
        assert d[1] == pytest.approx(1j * (0.1 + 0.3) * (1 + 2.0 * 0.04))
        # end site 0: only right neighbor
        assert d[0] == pytest.approx(1j * 0.2j * (1 + 2.0 * 0.01))
        # vertex pair (site 1 <-> site 2) has coupling weight 1
        assert d[2] == pytest.approx(1j * (0.2j + 0.4) * (1 + 2.0 * 0.09))

    def test_vertex_weights_on_a_star(self):
        top = build_star((1.0, 1.5, 3.0), truncation=3)
        cp = coupling_coefficients(top)
        st = zero_state(top)
        st.data[:] = np.arange(1.0, 10.0)
        d = rhs(st, top)
        s2, s3 = math.sqrt(1.0 / 1.5), math.sqrt(1.0 / 3.0)
        assert d[2] == pytest.approx(1j * (2.0 + s2 * 4.0 + s3 * 7.0) * (1 + 9.0))
        assert d[3] == pytest.approx(1j * (s2 * 3.0 + 5.0) * (1 + 1.5 * 16.0))
        assert d[6] == pytest.approx(1j * (s3 * 3.0 + 8.0) * (1 + 3.0 * 49.0))

    @pytest.mark.parametrize(
        "topology",
        [
            build_chain(1.0, truncation=400),
            build_star((1.0, 1.5, 3.0), truncation=400),
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
        d = rhs(st, topology)
        exact = np.empty_like(st.data)
        for label in topology.labels:
            coords = topology.site_coordinates(label) + site_offset(topology, label)
            x = p.beta * (coords - p.n0)
            seg = topology.slices[label]
            exact[seg] = st.data[seg] * (p.beta * v * np.tanh(x) - 1j * omega)
        assert np.max(np.abs(d - exact)) < 1e-11

    def test_derivative_cross_check_by_finite_difference(self):
        # independent of the closed form above, up to O(eps^2) noise
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=0.0)
        st = soliton_profile(p, top)
        d = rhs(st, top)
        eps = 1e-4
        fd = (soliton_profile(p, top, t=eps).data - soliton_profile(p, top, t=-eps).data) / (2 * eps)
        assert np.max(np.abs(d - fd)) < 1e-8


class TestStepAndEvolve:
    def test_step_advances_time_and_returns_new_state(self):
        top = build_chain(1.0, truncation=50)
        p = SolitonParams(alpha=0.4, beta=0.2, n0=0.0)
        st = soliton_profile(p, top)
        new = step(st, coupling_coefficients(top), 0.01)
        assert new is not st
        assert new.time == pytest.approx(0.01)
        assert np.max(np.abs(new.data - st.data)) > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_raises_on_blowup(self):
        top = build_chain(1.0, truncation=20)
        st = zero_state(top)
        st.data[:] = 1e8
        with pytest.raises(DivergenceError):
            step(st, coupling_coefficients(top), 10.0)

    def test_observer_cadence(self):
        top = build_chain(1.0, truncation=20)
        cfg = SimConfig(dt=0.1, t_final=1.0, output_stride=3)
        times = [s.time for s in evolve(zero_state(top), coupling_coefficients(top), cfg)]
        assert np.allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_evolve_requires_t_final(self):
        top = build_chain(1.0, truncation=20)
        with pytest.raises(InvalidParameterError):
            list(evolve(zero_state(top), coupling_coefficients(top), SimConfig()))

    @pytest.mark.parametrize("dt", [1e300, 0.11])
    def test_evolve_refuses_a_t_final_of_zero_steps(self, dt):
        # 0.05 is less than half a step: the run would end at t = 0 and report
        # t_final 0.05, so its config cannot be built
        with pytest.raises(InvalidParameterError, match="off the grid of dt"):
            SimConfig(dt=dt, t_final=0.05)

    def test_evolve_to_time_zero_yields_a_copy_of_the_initial_state(self):
        top = build_chain(1.0, truncation=20)
        st = soliton_profile(SolitonParams(alpha=0.4, beta=0.2, n0=0.0), top)
        states = list(evolve(st, coupling_coefficients(top), SimConfig(t_final=0.0)))
        assert len(states) == 1
        assert states[0].time == st.time
        assert np.array_equal(bits(states[0].data), bits(st.data))
        assert not np.shares_memory(states[0].data, st.data)

    def test_evolve_trajectory_snapshots_are_copies(self):
        top = build_chain(1.0, truncation=40)
        p = SolitonParams(alpha=0.4, beta=0.2, n0=0.0)
        st = soliton_profile(p, top)
        traj = list(evolve(st, coupling_coefficients(top),
                           SimConfig(dt=0.05, t_final=0.5, output_stride=5)))
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
                cur = step(cur, cp, dt)
            errs.append(np.max(np.abs(cur.data - exact.data)))
        ratio = errs[0] / errs[1]
        assert 14.0 < ratio < 18.0

    @pytest.mark.parametrize(
        "state_sites, r_runs",
        [(30, 1), (40, 1), (60, 2), (20, 2)],
        # a stack's runs lie back to back, so "columns" are runs of 20 sites here
        ids=["long-state", "stack-on-single-r", "three-on-two-columns", "single-on-stacked-r"],
    )
    def test_a_state_that_does_not_fit_r_is_refused(self, state_sites, r_runs):
        top = build_chain(1.0, truncation=10)
        cp = coupling_coefficients(*[top] * r_runs)
        st = FieldState(np.full(state_sites, 0.1 + 0j))
        with pytest.raises(InvalidParameterError, match="does not fit"):
            step(st, cp, 0.01)
        with pytest.raises(InvalidParameterError, match="does not fit"):
            next(evolve(st, cp, SimConfig(dt=0.01, t_final=0.1, output_stride=2)))

    def test_global_phase_covariance(self):
        # psi -> e^{i theta} psi maps solutions to solutions
        top = build_star((1.0, 1.5, 3.0), truncation=60)
        cp = coupling_coefficients(top)
        p = SolitonParams(alpha=0.9, beta=0.3, n0=-20.0)
        st = soliton_profile(p, top)
        theta = 0.77
        rotated = FieldState(st.data * np.exp(1j * theta), st.time)
        a = step(st, cp, 0.01)
        b = step(rotated, cp, 0.01)
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
        # run b of the stack holds sites [b n, (b + 1) n)
        n, size = tops[0].n_sites, tops[0].n_sites * len(tops)
        start = 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        stack = FieldState(start)
        singles = [FieldState(start[b * n:(b + 1) * n]) for b in range(len(tops))]
        cp = coupling_coefficients(*tops)
        for _ in range(40):
            stack = step(stack, cp, 0.01)
            singles = [step(s, coupling_coefficients(t), 0.01) for s, t in zip(singles, tops)]
        assert stack.data.shape == (size,)
        for b, single in enumerate(singles):
            assert np.array_equal(bits(stack.data[b * n:(b + 1) * n]), bits(single.data))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_in_one_column_names_its_site(self):
        tops = [build_star((1.0, 1.5, 3.0), truncation=10), build_star((1.0, 2.0, 2.0), truncation=10)]
        st = FieldState(np.full(60, 0.1 + 0j))
        st.data[30 + 25] = np.nan  # site 25 of run 1
        with pytest.raises(DivergenceError) as exc:
            step(st, coupling_coefficients(*tops), 0.01)
        # the four stages spread the NaN four sites each way, to run 1's flat site 21
        assert (exc.value.bond, exc.value.site) == ("12", 2)


def reference_step(state, ref, dt):
    """Reference RK4 step: R y + R^T y, an explicit factor i, out-of-place stages.

    ``ref`` is the ``ReferenceShift`` of the state's topologies.

    The last product is written array first.  Written as
    ``(dt / 6.0) * (k1 + 2.0 * k2 + k4)`` it runs array first only on
    states of 256 KiB and more, where numpy reuses the temporary in place,
    and scalar first below; the two orders differ only in the sign of an
    underflowed zero.  Array first is how the benchmark's 60k-site star
    has always been integrated.
    """

    def f(y):
        neigh = ref.forward(y)
        neigh += ref.backward(y)
        dens = y.real**2 + y.imag**2
        dens *= ref.site_gamma
        dens += 1.0
        neigh *= dens
        neigh *= 1j
        return neigh

    y = state.data
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    k2 += k3
    return FieldState(y + np.multiply(k1 + 2.0 * k2 + k4, dt / 6.0), state.time + dt)


def tail_field(topology, rng, runs=1):
    """Random field whose semi-infinite bonds fade through subnormal numbers.

    Like a soliton's tail far from its peak, each such bond holds order-one
    amplitudes within 20 sites of its vertex, then amplitudes that fall
    from 1e-300 through the subnormal range into zeros of both signs.
    There a kernel that rounds differently or flips the sign of a zero
    shows up.  ``runs`` such fields lie back to back, as in a stack.
    """
    shape = (runs, topology.n_sites)
    y = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for b in topology.bonds:
        if b.kind == KIND_INTERNAL:
            continue
        depth = np.arange(b.length, dtype=float)
        if b.label == "1":
            depth = depth[::-1]
        y[:, topology.slices[b.label]] *= np.where(depth < 20, 1.0, 10.0 ** (-300 - 0.1 * (depth - 20)))
    return y.ravel()


REFERENCE_CASES = {
    "chain": [build_chain(1.0, truncation=300)],
    "fig4-star": [build_star((1.0, 1.5, 3.0), truncation=400)],
    "three-child-tree": [build_tree({
        "gamma": 1.0,
        "children": [
            {"gamma": 3.0, "length": 25,
             "children": [{"gamma": 9.0}, {"gamma": 9.0}, {"gamma": 9.0}]},
            {"gamma": 3.0},
            {"gamma": 3.0},
        ],
    }, truncation=300)],
    "one-site-bonds": [build_tree(tree_spec(1), truncation=300)],
    "five-leaf-star": [build_star((1.0, 4.0, 4.0, 8.0, 8.0, 4.0), truncation=300)],
    "three-column-stack": [
        build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 300) for r in (0.1, 0.5, 0.9)
    ],
}


def reference_case(tops, rng):
    """Couplings and a tail field for one topology, or for a stack of several."""
    cp = coupling_coefficients(*tops)
    return cp, tail_field(tops[0], rng, len(tops))


class TestFusedKernel:
    @pytest.mark.parametrize("tops", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_neighbors_is_forward_plus_backward(self, tops, rng):
        cp, y = reference_case(tops, rng)
        ref = ReferenceShift(tops)
        expected = ref.forward(y)
        expected += ref.backward(y)
        assert np.array_equal(bits(cp.neighbors(y)), bits(expected))

    @pytest.mark.parametrize("tops", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_shift_powers_match_the_reference(self, tops, rng):
        # R^2 and R^3 are what the C2/C3 stencils read
        cp, y = reference_case(tops, rng)
        ref = ReferenceShift(tops)
        fwd = ref_fwd = y
        for _ in range(3):
            fwd, ref_fwd = cp.forward(fwd), ref.forward(ref_fwd)
            assert np.array_equal(bits(fwd), bits(ref_fwd))

    @pytest.mark.parametrize("tops", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_evolve_matches_the_reference_step_bit_for_bit(self, tops, rng):
        # every one of the 50 states is compared: a flipped sign of zero in
        # the tail can wash out again a few steps later
        cp, y = reference_case(tops, rng)
        start = FieldState(y)
        cfg = SimConfig(dt=0.01, t_final=0.5, output_stride=1)
        fused = list(evolve(start, cp, cfg))
        assert len(fused) == 51
        shift = ReferenceShift(tops)
        ref = start
        for state in fused[1:]:
            ref = reference_step(ref, shift, 0.01)
            assert state.time == ref.time
            assert np.array_equal(bits(state.data), bits(ref.data))

    def test_kept_states_equal_copied_states(self):
        # the states evolve yields, kept without copying, must equal copies
        # taken as they are yielded: no state is ever a workspace buffer or
        # overwritten by a later step
        top = build_star((1.0, 1.5, 3.0), truncation=60)
        cp = coupling_coefficients(top)
        st = soliton_profile(SolitonParams(alpha=0.9, beta=0.3, n0=-20.0), top)
        cfg = SimConfig(dt=0.01, t_final=0.3, output_stride=2)
        kept = list(evolve(st, cp, cfg))
        copied = [s.copy() for s in evolve(st, cp, cfg)]
        assert len(kept) == len(copied) == 16
        for a, b in zip(kept, copied):
            assert a.time == b.time
            assert np.array_equal(bits(a.data), bits(b.data))
        assert len({id(s.data) for s in kept}) == len(kept)

    def test_step_with_a_workspace_equals_step_without(self, rng):
        top = build_star((1.0, 1.5, 3.0), truncation=40)
        cp = coupling_coefficients(top)
        ws = StepWorkspace((top.n_sites,))
        a = b = FieldState(tail_field(top, rng))
        for _ in range(5):
            a = step(a, cp, 0.01, ws)
            b = step(b, cp, 0.01)
        assert np.array_equal(bits(a.data), bits(b.data))


def windowed_run(start, couplings, config):
    """``evolve``'s observed states and the site count of every state ``step`` advanced."""
    with mock.patch.object(dynamics, "step", wraps=dynamics.step) as spy:
        states = list(evolve(start, couplings, config))
    return states, [call.args[0].data.shape[0] for call in spy.call_args_list]


def assert_equals_full_loop(states, start, couplings, config):
    """Every observed state equals a plain ``step`` loop on the full layout, bit for bit."""
    n_steps = round(config.t_final / config.dt)
    expected, ref = [start], start
    for i in range(1, n_steps + 1):
        ref = step(ref, couplings, config.dt)
        if i % config.output_stride == 0 or i == n_steps:
            expected.append(ref)
    assert len(states) == len(expected)
    for state, ref in zip(states, expected):
        assert state.time == ref.time
        assert state.data.shape == ref.data.shape
        assert np.array_equal(bits(state.data), bits(ref.data))


def near_vertex_field(topology, rng, reach, runs=1):
    """Random field on the ``reach`` sites of each semi-infinite bond nearest its vertex.

    Internal bonds are filled too; every other site is +0.  Magnitudes run
    from order one down through the subnormals to zeros of both signs.
    ``runs`` such fields lie back to back, as in a stack.
    """
    y = np.zeros((runs, topology.n_sites), dtype=np.complex128)
    near = topology.vertex_distance <= reach
    part = y[:, near].shape
    scale = 10.0 ** rng.uniform(-330, 0, part)
    y[:, near] = (rng.standard_normal(part) + 1j * rng.standard_normal(part)) * scale
    return y.ravel()


class TestWindow:
    """``evolve`` steps a shorter truncation while the far tails are exact +0."""

    def test_underflowed_soliton_tails(self):
        # at beta = 1 the sech tails underflow about 745 sites from the peak
        top = build_star((1.0, 1.5, 3.0), truncation=1500)
        cp = coupling_coefficients(top)
        start = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=1.0, n0=-20.0), top)
        cfg = SimConfig(dt=0.01, t_final=1.0, output_stride=20)
        states, sites = windowed_run(start, cp, cfg)
        assert len(sites) == 100
        assert max(sites[1:]) < 0.6 * top.n_sites
        assert_equals_full_loop(states, start, cp, cfg)

    def test_signed_zero_tails_window_after_the_first_step(self, rng):
        # the -0 beyond the tails bars a window at t = 0; one full step clears them
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        cp = coupling_coefficients(top)
        start = FieldState(tail_field(top, rng))
        assert np.signbit(start.data[top.guard_sites].real).any()
        cfg = SimConfig(dt=0.01, t_final=0.3, output_stride=3)
        states, sites = windowed_run(start, cp, cfg)
        assert sites[0] == top.n_sites
        assert max(sites[1:]) < 0.7 * top.n_sites
        assert_equals_full_loop(states, start, cp, cfg)

    def test_the_window_widens_as_the_field_creeps_to_the_walls(self, rng):
        # each step spreads an order-one field by up to 4 sites, so every
        # observation picks a wider window, until the full layout takes over
        top = build_star((1.0, 1.5, 3.0), truncation=60)
        cp = coupling_coefficients(top)
        start = FieldState(near_vertex_field(top, rng, 10))
        cfg = SimConfig(dt=0.01, t_final=0.2, output_stride=2)
        states, sites = windowed_run(start, cp, cfg)
        assert sites == sorted(sites)
        assert sites[0] < top.n_sites == sites[-1]
        assert len(set(sites)) >= 4
        assert_equals_full_loop(states, start, cp, cfg)

    def test_a_stack_windows_on_the_union_of_its_columns(self, rng):
        tops = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 400) for r in (0.1, 0.5, 0.9)]
        cp = coupling_coefficients(*tops)
        data = tail_field(tops[0], rng, 3)
        # only the middle run reaches past 100 sites from the vertex
        runs, far = data.reshape(3, -1), tops[0].vertex_distance > 100
        runs[0, far] = runs[2, far] = 0.0
        start = FieldState(data)
        cfg = SimConfig(dt=0.01, t_final=0.2, output_stride=4)
        states, sites = windowed_run(start, cp, cfg)
        # each of the three runs steps the same window of more than 3 * 250 sites
        assert 3 * (3 * 250) < max(sites[1:]) < 3 * tops[0].n_sites
        assert_equals_full_loop(states, start, cp, cfg)

    def test_the_window_keeps_a_long_internal_bond_whole(self, rng):
        # internal bonds hold vertex distance 0, so a window shorter than
        # their 60 sites still steps all of them
        top = with_sum_rule(build_tree(tree_spec(length=60), 200))
        cp = coupling_coefficients(top)
        start = FieldState(near_vertex_field(top, rng, 3))
        cfg = SimConfig(dt=0.01, t_final=0.1, output_stride=2)
        states, sites = windowed_run(start, cp, cfg)
        # the first window: W = 3 + 9 = 12 on the five semi-infinite bonds
        assert sites[0] == 2 * 60 + 5 * 12
        assert max(sites) < top.n_sites
        assert_equals_full_loop(states, start, cp, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_full_loops_bond_site_and_time(self):
        top = build_star((1.0, 1.5, 3.0), truncation=100)
        cp = coupling_coefficients(top)
        start = FieldState(np.where(top.vertex_distance <= 5, 3.0, 0.0))
        cfg = SimConfig(dt=0.1, t_final=100.0, output_stride=1)
        with mock.patch.object(dynamics, "step", wraps=dynamics.step) as spy:
            with pytest.raises(DivergenceError) as windowed:
                list(evolve(start, cp, cfg))
        assert max(call.args[0].data.shape[0] for call in spy.call_args_list) < top.n_sites
        ref = start
        with pytest.raises(DivergenceError) as full:
            for _ in range(1000):
                ref = step(ref, cp, cfg.dt)
        found = [(e.bond, e.site, e.time) for e in (windowed.value, full.value)]
        assert found[0] == found[1]


@PROPERTY_SETTINGS
@given(tops=tree_stacks(), seed=st.integers(0, 2**32 - 1))
def test_window_on_random_sum_rule_trees(tops, seed):
    tops = [with_truncation(with_sum_rule(t), 30) for t in tops]
    cp = coupling_coefficients(*tops)
    start = FieldState(near_vertex_field(tops[0], np.random.default_rng(seed), 3, len(tops)))
    cfg = SimConfig(dt=0.01, t_final=0.06, output_stride=2)
    states, sites = windowed_run(start, cp, cfg)
    assert sites[0] < len(tops) * tops[0].n_sites
    assert_equals_full_loop(states, start, cp, cfg)

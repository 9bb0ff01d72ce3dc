import dataclasses
import errno
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alnet import (
    DivergenceError,
    InconclusiveRunError,
    InvalidParameterError,
    SimConfig,
    SolitonParams,
    build_chain,
    build_star,
    build_tree,
    coupling_coefficients,
    evolve,
    scattering_run,
    soliton_profile,
    step,
)
from alnet import dynamics
from alnet.dynamics import StepWorkspace
from alnet.experiments import observe
from alnet.state import FieldState
from alnet.topology import KIND_INTERNAL, with_truncation
from conftest import (
    ALPHA_FIG4,
    PROPERTY_SETTINGS,
    ReferenceShift,
    assert_no_child_is_left,
    bits,
    fds_left_open,
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
    """``evolve``'s observed states and the site count of every state ``step`` advanced.

    The run has no second CPU, so that this process steps every run of a stack.
    """
    with mock.patch.object(dynamics, "step", wraps=dynamics.step) as spy, \
            mock.patch.object(dynamics, "fits", lambda: False):
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


def split_and_serial(start, couplings, config, **patches):
    """``evolve``'s states with every big-enough stretch split, its serial states, and the forks it made.

    ``FORK_SITES`` is 0 and ``fits`` True for the split run, so it
    splits whatever the machine; ``patches`` set more attributes of
    ``dynamics`` for it.  The serial run has no second CPU.
    """
    return run_split_and_serial(lambda: list(evolve(start, couplings, config)), **patches)


def run_split_and_serial(run, **patches):
    """``run()`` with the patches of ``split_and_serial``, ``run()`` without a second CPU, and the forks."""
    with mock.patch.object(dynamics, "fits", lambda: False):
        serial = run()
    patches = {"FORK_SITES": 0, "fits": lambda: True, **patches}
    with mock.patch.multiple(dynamics, **patches), \
            mock.patch.object(dynamics, "Child", wraps=dynamics.Child) as forks:
        split = run()
    assert_no_child_is_left()
    return split, serial, forks.call_count


def assert_same_states(states, expected):
    assert len(states) == len(expected)
    for state, ref in zip(states, expected):
        assert state.time == ref.time
        assert np.array_equal(bits(state.data), bits(ref.data))


@st.composite
def split_cases(draw):
    """A star of one to nine leaves, one run or a stack of up to three, with a field and a config.

    Each run's star keeps the sum rule or breaks it.  The field fills the
    ``reach`` sites nearest the vertex, from order one down through the
    subnormals; the rest is +0, or -0 for a launch whose tails bar the
    first window.  The run holds at least one stretch of ``output_stride``
    steps, and its last stretch may be shorter.
    """
    leaves, runs = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    truncation = draw(st.integers(80, 140))
    tops = []
    for _ in range(runs):
        gammas = draw(st.lists(st.floats(0.5, 5.0), min_size=leaves + 1, max_size=leaves + 1))
        if draw(st.booleans()):
            gammas[0] = 1.0 / sum(1.0 / g for g in gammas[1:])
        tops.append(build_star(gammas, truncation))
    reach = draw(st.integers(50, truncation))
    data = near_vertex_field(tops[0], np.random.default_rng(draw(st.integers(0, 2**32 - 1))), reach, runs)
    if draw(st.booleans()):
        data.reshape(runs, -1)[:, tops[0].vertex_distance > reach] = -0.0
    stride = draw(st.integers(2, 4))
    n_steps = draw(st.integers(2 * stride + 1, 4 * stride))
    return tops, FieldState(data), SimConfig(dt=0.01, t_final=n_steps * 0.01, output_stride=stride)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(case=split_cases())
def test_a_split_run_equals_the_serial_run_bit_for_bit(case):
    tops, start, cfg = case
    split, serial, forks = split_and_serial(start, coupling_coefficients(*tops), cfg)
    assert forks >= 1
    assert_same_states(split, serial)


class TestSplit:
    """A big window's far tails step in a forked child; the serial run is the reference."""

    @staticmethod
    def case(truncation=120):
        # a stride of 4 and 13 steps: stretches of 1, 3, 4, 4 and 1 steps
        top = build_star((1.0, 1.5, 3.0), truncation)
        start = FieldState(near_vertex_field(top, np.random.default_rng(7), 60))
        return start, coupling_coefficients(top), SimConfig(dt=0.01, t_final=0.13, output_stride=4)

    def test_the_big_star_geometry(self):
        # configs/big_star.json at truncation 8000: a window of about 23k
        # sites, above the real threshold, splits each stretch after the first
        top = build_star((1.0, 1.5, 3.0), truncation=8000)
        start = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0), top)
        cfg = SimConfig(dt=0.01, t_final=2.0, output_stride=100)
        split, serial, forks = split_and_serial(start, coupling_coefficients(top), cfg, FORK_SITES=dynamics.FORK_SITES)
        assert forks == 2
        assert_same_states(split, serial)

    @pytest.mark.parametrize("shape", ["ten-leaves", "short-window", "one-step-stretches"])
    def test_what_steps_serially(self, shape):
        start, cp, cfg = self.case()
        if shape == "ten-leaves":  # one far star holds at most nine
            leaf = {"gamma": 2.0}
            top = build_tree({"gamma": 1.0, "children": [
                {"gamma": 2.0, "length": 5, "children": [leaf] * 5} for _ in range(2)]}, 120)
            cp, start = coupling_coefficients(top), FieldState(near_vertex_field(top, np.random.default_rng(7), 60))
        elif shape == "short-window":  # the cut less the halo of 16 sites is below 1
            start, cp, _ = self.case(truncation=20)
        else:
            cfg = SimConfig(dt=0.01, t_final=0.13, output_stride=1)
        split, serial, forks = split_and_serial(start, cp, cfg)
        assert forks == 0
        assert_same_states(split, serial)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
    def test_a_failed_fork_steps_the_rest_of_the_run_serially(self):
        start, cp, cfg = self.case()
        attempts = []

        def failing_fork():
            attempts.append(1)
            raise BlockingIOError(errno.EAGAIN, "fork: no process slot")

        with fds_left_open() as left, mock.patch.object(os, "fork", failing_fork):
            split, serial, forks = split_and_serial(start, cp, cfg)
        assert forks == len(attempts) == 1
        assert_same_states(split, serial)
        # neither the stretch's own Pipe nor the sentinel pipes of CPython's fork Popen
        assert left == {}

    def test_a_child_that_exits_nonzero_leaves_its_stretch_to_the_parent(self):
        start, cp, cfg = self.case()
        split, serial, forks = split_and_serial(start, cp, cfg, _step_far=lambda *args: os._exit(1))
        assert forks == 3
        assert_same_states(split, serial)

    def test_a_non_finite_value_in_a_halo_alone_raises_nothing(self):
        # infinite vertex weights make the far star's junction, inside the
        # halo, non-finite at its first stage
        start, cp, cfg = self.case()
        real = dynamics._step_far

        def inf_junction(couplings, *args):
            real(dataclasses.replace(couplings, edge_weights=np.full_like(couplings.edge_weights, np.inf)), *args)

        split, serial, forks = split_and_serial(start, cp, cfg, _step_far=inf_junction)
        assert forks == 3
        assert_same_states(split, serial)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_owned_site_raises_the_serial_runs_error(self):
        # a bump at 90 < d <= 96 blows up at t = 0.2, in stretch 2 (steps 2
        # to 5); its window of 121 sites cuts at 84, so the child owns it
        top = build_star((1.0, 1.5, 3.0), truncation=200)
        cp = coupling_coefficients(top)
        start = FieldState(np.where((top.vertex_distance > 90) & (top.vertex_distance <= 96), 3.0, 0.0))
        cfg = SimConfig(dt=0.1, t_final=100.0, output_stride=5)
        errors = []
        for serially in (True, False):
            patches = {"fits": lambda: False} if serially else \
                {"FORK_SITES": 0, "fits": lambda: True}
            with mock.patch.multiple(dynamics, **patches), \
                    mock.patch.object(dynamics, "Child", wraps=dynamics.Child) as forks:
                with pytest.raises(DivergenceError) as error:
                    list(evolve(start, cp, cfg))
            errors.append((error.value.bond, error.value.site, error.value.time, forks.call_count))
        assert errors == [("11", 90, 0.2, 0), ("11", 90, 0.2, 1)]
        assert_no_child_is_left()

    def test_ctrl_c_leaves_no_child(self):
        start, cp, cfg = self.case()
        parent, real, calls = os.getpid(), dynamics.step, []

        def interrupted(*args):
            if os.getpid() == parent:
                calls.append(args)
                if len(calls) == 5:  # in stretch 3, with its child stepping
                    raise KeyboardInterrupt
            return real(*args)

        with mock.patch.multiple(dynamics, FORK_SITES=0, fits=lambda: True, step=interrupted), \
                mock.patch.object(dynamics, "Child", wraps=dynamics.Child) as forks:
            with pytest.raises(KeyboardInterrupt):
                list(evolve(start, cp, cfg))
        assert forks.call_count == 2
        assert_no_child_is_left()


# ``split_and_serial``'s patches for the stack split: ``FORK_SITES`` at its value, since no
# stack lies below 0 sites, and a stack of any run length splits
STACK_SPLIT = {"FORK_SITES": dynamics.FORK_SITES, "STACK_SITE_STEPS": 0}
# beta 0.5 crosses a vertex about 70 time units after a launch at n0 = -20
FAST = SolitonParams(alpha=ALPHA_FIG4, beta=0.5, n0=-20.0)


def assert_same_reports(reports, expected):
    assert len(reports) == len(expected)
    for report, ref in zip(reports, expected):
        (times, series), (ref_times, ref_series) = report.partial_norms, ref.partial_norms
        assert np.array_equal(bits(times), bits(ref_times))
        assert series.keys() == ref_series.keys()
        for label in series:
            assert np.array_equal(bits(series[label]), bits(ref_series[label]))
        assert dataclasses.replace(report, partial_norms=None) == dataclasses.replace(ref, partial_norms=None)


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(tops=tree_stacks(max_columns=5, min_columns=2), seed=st.integers(0, 2**32 - 1), stride=st.integers(2, 4))
def test_a_split_stack_equals_the_serial_stack_bit_for_bit(tops, seed, stride):
    # a random field near the vertices at truncation 30, then a scattering
    # run at 145, whose leaves hold the transmitted peaks
    short = [with_truncation(with_sum_rule(t), 30) for t in tops]
    start = FieldState(near_vertex_field(short[0], np.random.default_rng(seed), 20, len(short)))
    cfg = SimConfig(dt=0.01, t_final=(4 * stride + 1) * 0.01, output_stride=stride)
    split, serial, forks = split_and_serial(start, coupling_coefficients(*short), cfg, **STACK_SPLIT)
    assert forks == 1
    assert_same_states(split, serial)
    long = [with_truncation(with_sum_rule(t), 145) for t in tops]
    split, serial, forks = run_split_and_serial(
        lambda: scattering_run(long, FAST, SimConfig(dt=0.1, output_stride=10))[0], **STACK_SPLIT)
    assert forks == 1
    assert_same_reports(split, serial)


class TestStackSplit:
    """A child steps the last half of a stack's runs; the serial run is the reference."""

    @staticmethod
    def case(truncation=40):
        # three stars of one layout, 13 steps in stretches of 1, 3, 4, 4 and 1
        tops = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), truncation) for r in (0.1, 0.5, 0.9)]
        start = FieldState(near_vertex_field(tops[0], np.random.default_rng(11), 30, 3))
        return start, coupling_coefficients(*tops), SimConfig(dt=0.01, t_final=0.13, output_stride=4)

    def test_fig4s_single_run_forks_nothing(self):
        # 200 steps on fig4's 1200-site star: as the second run of a stack,
        # the same run repays the fork
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        start = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0), top)
        cfg = SimConfig(dt=0.01, t_final=2.0, output_stride=100)
        assert 1200 * 200 >= dynamics.STACK_SITE_STEPS
        real = {"FORK_SITES": dynamics.FORK_SITES}
        single, serial, forks = split_and_serial(start, coupling_coefficients(top), cfg, **real)
        assert forks == 0
        assert_same_states(single, serial)
        pair = FieldState(np.concatenate([start.data, start.data]))
        _, _, forks = split_and_serial(pair, coupling_coefficients(top, top), cfg, **real)
        assert forks == 1

    @pytest.mark.parametrize("shape", ["short-run", "one-cpu", "stack-of-fork-sites"])
    def test_what_steps_serially(self, shape):
        start, cp, cfg = self.case(truncation=120)
        patches = dict(STACK_SPLIT)
        if shape == "short-run":  # 13 steps of one 360-site run: far below the threshold
            patches = {"FORK_SITES": dynamics.FORK_SITES}
        elif shape == "one-cpu":
            patches["fits"] = lambda: False
        else:  # the far-tail split's size; the window stays below it
            patches["FORK_SITES"] = start.data.size
        split, serial, forks = split_and_serial(start, cp, cfg, **patches)
        assert forks == 0
        assert_same_states(split, serial)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
    def test_a_failed_fork_steps_the_whole_run_serially(self):
        attempts = []

        def failing_fork():
            attempts.append(1)
            raise BlockingIOError(errno.EAGAIN, "fork: no process slot")

        with fds_left_open() as left, mock.patch.object(os, "fork", failing_fork):
            split, serial, forks = split_and_serial(*self.case(), **STACK_SPLIT)
        assert forks == len(attempts) == 1
        assert_same_states(split, serial)
        # neither the split's own Pipe nor the sentinel pipes of CPython's fork Popen
        assert left == {}

    def test_a_child_that_exits_nonzero_leaves_its_runs_to_the_parent(self):
        patches = {**STACK_SPLIT, "_step_runs": lambda *args: os._exit(1)}
        split, serial, forks = split_and_serial(*self.case(), **patches)
        assert forks == 1
        assert_same_states(split, serial)

    def test_a_child_killed_mid_run_leaves_the_rest_to_the_parent(self):
        parent, real, calls = os.getpid(), dynamics.step, []

        def killed(*args):
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 6:  # in stretch 3, after it sent the first observation
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        split, serial, forks = split_and_serial(*self.case(), **STACK_SPLIT, step=killed)
        assert forks == 1
        assert_same_states(split, serial)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "bumps", [{2: 1.5}, {0: 1.5}, {0: 1.3, 2: 1.5}, {0: 1.5, 2: 1.1}],
        ids=["child-owned", "parent-owned", "child-owned-first", "parent-owned-first"],
    )
    def test_a_divergence_raises_the_serial_runs_error(self, bumps):
        # run 2 belongs to the child, runs 0 and 1 to the parent.  Alone, a
        # bump of 1.5 blows up at t = 0.5, one of 1.3 at 0.6 and one of 1.1
        # at 0.7; the observations come every 0.2.  With bumps of 1.3 and
        # 1.5 the parent's half raises at 0.6, in the stretch where the
        # child's run blew up first
        tops = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 100) for r in (0.4, 0.5, 0.6)]
        data = np.zeros((3, tops[0].n_sites), dtype=np.complex128)
        for run, height in bumps.items():
            data[run, tops[0].vertex_distance <= 5] = height
        cp, cfg = coupling_coefficients(*tops), SimConfig(dt=0.1, t_final=100.0, output_stride=2)
        errors = []
        for patches in ({"fits": lambda: False}, {**STACK_SPLIT, "fits": lambda: True}):
            with mock.patch.multiple(dynamics, **patches), \
                    mock.patch.object(dynamics, "Child", wraps=dynamics.Child) as forks:
                with pytest.raises(DivergenceError) as error:
                    list(evolve(FieldState(data.ravel()), cp, cfg))
            errors.append((error.value.bond, error.value.site, error.value.time, forks.call_count))
        assert errors[0][2] == pytest.approx(0.5)
        assert errors[0][:3] == errors[1][:3] and errors[0][3] == 0 and errors[1][3] == 1
        assert_no_child_is_left()

    @pytest.mark.parametrize("walls", [(2,), (1, 2)], ids=["child-owned", "parent-owned-first"])
    def test_a_wall_names_the_first_failing_run_in_stack_order(self, walls):
        # run 2's soliton runs out along the leaves and run 1's back along
        # bond 1; each alone reaches its wall at the observation t = 25
        top = build_star((1.0, 1.5, 3.0), 100)
        launches = {1: SolitonParams(alpha=math.pi / 4, beta=0.5, n0=-60.0), 2: dataclasses.replace(FAST, n0=60.0)}
        launch = FieldState(np.concatenate([
            soliton_profile(launches[b] if b in walls else FAST, top).data for b in range(3)]))
        cfg = SimConfig(dt=0.05, t_final=40.0, output_stride=100)
        split, serial, forks = run_split_and_serial(
            lambda: pytest.raises(InconclusiveRunError, observe, [top] * 3, launch, cfg), **STACK_SPLIT)
        assert forks == 1
        assert str(split.value) == str(serial.value)
        assert f"bond '{'1' if walls[0] == 1 else '11'}' " in str(serial.value)

    def test_an_observer_that_raises_leaves_no_child(self):
        seen = []

        def failing(state):
            seen.append(state.time)
            if len(seen) == 3:
                raise RuntimeError("the observer failed")

        tops = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 145) for r in (0.3, 0.6)]
        with mock.patch.multiple(dynamics, **STACK_SPLIT, fits=lambda: True), \
                mock.patch.object(dynamics, "Child", wraps=dynamics.Child) as forks:
            with pytest.raises(RuntimeError, match="observer failed"):
                scattering_run(tops, FAST, SimConfig(dt=0.1, output_stride=10), folds=[failing])
        assert forks.call_count == 1
        assert_no_child_is_left()

    def test_ctrl_c_to_the_group_leaves_no_child(self, tmp_path):
        # the stepping child marks its start and then steps on; Ctrl-C
        # reaches the whole group, and only the parent may act on it
        marker = tmp_path / "child.pid"
        code = "\n".join([
            "import os",
            "import alnet.dynamics",
            "from alnet.cli import main",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "real = alnet.dynamics._step_runs",
            "def marked(*args):",
            f"    with open({str(marker)!r}, 'a') as fh:",
            "        fh.write(f'{os.getpid()}\\n')",
            "    real(*args)",
            "alnet.dynamics._step_runs = marked",
            "main()",
        ])
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "experiment": "sweep", "ratios": [0.3, 0.6], "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 300},
            "soliton": {"alpha": ALPHA_FIG4, "beta": 0.1, "n0": -120.0}, "sim": {"dt": 0.01, "output_stride": 100},
        }))
        env = dict(os.environ, PYTHONPATH=str(Path(dynamics.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "sweep", "--config", str(config), "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
        )
        try:
            for _ in range(200):
                if marker.exists():
                    break
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode != 0 and stdout == ""
        # the parent's own KeyboardInterrupt, and no line from the child
        assert stderr.count("Traceback") == 1 and stderr.rstrip().endswith("KeyboardInterrupt")
        assert "Process" not in stderr
        for pid in map(int, marker.read_text().split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert not (tmp_path / "out").exists()


SIGNED_PARTS = [p for q in (0.0, 5e-324, 1e-310, 3e-200, 0.7) for p in (q, -q)]


@pytest.mark.parametrize("im", SIGNED_PARTS)
@pytest.mark.parametrize("re", SIGNED_PARTS)
def test_times_i_is_numpys_two_products_bit_for_bit(re, im):
    pair = np.array([re, im]).view(np.complex128)  # a complex literal would lose the signs of zero
    expected, got = pair.copy(), pair.copy()
    expected *= np.ones(1)
    expected *= 1j
    dynamics._times_i(got, np.empty(1))
    assert bits(got).tolist() == bits(expected).tolist()


def test_the_probe_finds_numpys_products_exact():
    # where it does not, the tiny zone takes the linear zone's products
    assert dynamics._real_view_exact()


def zoned_run_states(start, couplings, steps, dt, zoned):
    """The state after each step of a ``_run``, and the text of a DivergenceError that ended it."""
    real, states = dynamics.step, []

    def recorded(*args):
        states.append(real(*args))
        return states[-1]

    with mock.patch.object(dynamics, "step", recorded), np.errstate(all="ignore"):
        try:
            dynamics._run(start, couplings, steps, dt, zoned=zoned)
        except DivergenceError as exc:
            states.append(str(exc))
    return states


def assert_same_steps(zoned, plain):
    assert len(zoned) == len(plain)
    for a, b in zip(zoned, plain):
        if isinstance(b, str):
            assert a == b
        else:
            assert np.array_equal(bits(a.data), bits(b.data))


@st.composite
def zone_cases(draw):
    """Stars or same-shape trees, one run or a stack of two, with a windowed field and a stretch.

    Each run's field has a core of order one at a random vertex distance
    and tails that fall by 3 to 30 decades a site, through the subnormals
    into zeros of both signs; a twentieth of its words are -0, and every
    site beyond a frontier is +0.  ``dt * steps`` runs up to 300.
    """
    truncation = draw(st.integers(40, 120))
    if draw(st.booleans()):
        leaves, runs = draw(st.integers(1, 5)), draw(st.integers(1, 2))
        gammas = st.lists(st.floats(0.25, 8.0), min_size=leaves + 1, max_size=leaves + 1)
        tops = [build_star(draw(gammas), truncation) for _ in range(runs)]
    else:
        tops = [with_truncation(t, truncation) for t in draw(tree_stacks(max_columns=2))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distance = np.tile(tops[0].vertex_distance, len(tops))
    center, fall = draw(st.integers(0, 20)), draw(st.floats(3.0, 30.0))
    with np.errstate(under="ignore"):
        magnitude = 10.0 ** (-fall * np.abs(distance - center) * rng.uniform(0.9, 1.1, distance.shape))
        y = magnitude * np.exp(2j * np.pi * rng.random(distance.shape))
    parts = y.view(np.float64)
    parts[rng.random(parts.shape) < 0.05] = -0.0
    y[distance > draw(st.integers(10, truncation))] = 0.0
    dt, steps = draw(st.sampled_from([0.01, 0.1, 1.0, 50.0])), draw(st.integers(1, 6))
    return coupling_coefficients(*tops), FieldState(y), dt, steps


@PROPERTY_SETTINGS
@given(case=zone_cases())
def test_a_zoned_run_equals_the_plain_run_at_every_step(case):
    couplings, start, dt, steps = case
    zoned = zoned_run_states(start, couplings, steps, dt, zoned=True)
    assert_same_steps(zoned, zoned_run_states(start, couplings, steps, dt, zoned=False))


class TestZones:
    """A window's stretch steps its linear and tiny zones without the arithmetic whose result is known."""

    @staticmethod
    def case():
        # at beta = 1 the sech tails underflow about 745 sites from the peak
        top = build_star((1.0, 1.5, 3.0), truncation=1500)
        start = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=1.0, n0=-20.0), top)
        return start, coupling_coefficients(top), SimConfig(dt=0.01, t_final=1.0, output_stride=20)

    @staticmethod
    def chosen(run):
        """``run()``'s result, and the zones of every call to the zone selector."""
        real, zones = dynamics._zones, []

        def recorded(*args):
            zones.append(real(*args))
            return zones[-1]

        with mock.patch.object(dynamics, "_zones", recorded), mock.patch.object(dynamics, "fits", lambda: False):
            return run(), zones

    def test_a_soliton_window_steps_on_all_three_zones(self):
        start, cp, cfg = self.case()
        states, zones = self.chosen(lambda: list(evolve(start, cp, cfg)))
        # step 1 clears the launch's -0 tails on the full layout; then the
        # stretches of 19 and 4 * 20 steps on windows
        assert len(zones) == 5
        for z in zones:
            assert z.core and z.tiny and z.scaled != z.core
        assert_equals_full_loop(states, start, cp, cfg)

    def test_a_stretch_too_long_for_a_linear_zone_steps_plainly(self):
        # 2 rho dt s = 2 * 2 * 50 * 3: e^-600 takes the bound below the normal floats, with no OverflowError
        start, cp, _ = self.case()
        assert dynamics._zones(start.data, cp, 3, 50.0) is None

    def test_a_probe_that_disagrees_steps_the_tiny_zone_as_linear(self):
        start, cp, cfg = self.case()
        zoned, _ = self.chosen(lambda: list(evolve(start, cp, cfg)))
        with mock.patch.object(dynamics, "_real_view_exact", lambda: False):
            linear, zones = self.chosen(lambda: list(evolve(start, cp, cfg)))
        assert zones and all(not z.tiny for z in zones)
        assert_same_states(linear, zoned)

    @pytest.mark.parametrize("workload", ["fig4", "sweep", "tree-audit"])
    def test_the_runs_that_reach_their_walls_build_no_zones(self, workload):
        # the first 300 steps of the benchmark's workloads: their soliton tails reach the walls at t = 0
        soliton, stride = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0), 100
        if workload == "fig4":
            tops = [build_star((1.0, 1.5, 3.0), 400)]
        elif workload == "sweep":
            tops = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 300) for r in (0.1, 0.5, 0.9)]
            soliton = dataclasses.replace(soliton, n0=-120.0)
        else:
            def tree(depth):
                node = {"gamma": float(3**depth)}
                if depth < 3:
                    node["children"] = [tree(depth + 1) for _ in range(3)]
                    node["length"] = 30
                return node

            tops = [build_tree(tree(0), 200)]
            soliton, stride = dataclasses.replace(soliton, n0=-60.0), 5
        start = FieldState(np.concatenate([soliton_profile(soliton, t).data for t in tops]))
        cfg = SimConfig(dt=0.01, t_final=3.0, output_stride=stride)
        states, zones = self.chosen(lambda: list(evolve(start, coupling_coefficients(*tops), cfg)))
        assert len(states) == 300 // stride + 1
        assert zones == []

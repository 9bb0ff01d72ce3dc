import errno
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alnet import (
    DivergenceError,
    FieldState,
    InconclusiveRunError,
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
    snapshot,
    soliton_profile,
    site_offset,
    universal_chain_field,
    z_quantity,
)
from alnet.conserved import SnapshotFold, SnapshotWorkspace
from conftest import (
    ALPHA_FIG4,
    PROPERTY_SETTINGS,
    assert_matches_the_lax_tower,
    audit,
    chain_gaps,
    decaying_random_field,
    glued_state,
    higher_constants_recursive,
    lax_log_a,
    norm,
    soliton_chain,
    stencil_constants,
    tree_spec,
    tree_stacks,
    with_sum_rule,
    zero_state,
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
def glued_trees(draw, soliton=False):
    """A random sum-rule tree and a random chain field to glue onto it.

    The field vanishes past the end of the shortest leaf in unrolled
    coordinates, so every sibling subtree sees all of it, as on a tree
    whose leaves reach far past the field.  With ``soliton`` the field is
    a perturbed soliton of width 0.2 to 0.5 (``soliton_chain``).  Also
    returns 1-3 of its nonzero sites, leaving at least two.
    """
    (top,) = draw(tree_stacks(max_columns=1))
    top = with_sum_rule(top)
    root = top.bond("1").length
    ends = [site_offset(top, leaf) + top.bond(leaf).length for leaf in top.leaves]
    span = root + max(site_offset(top, b.label) + b.length for b in top.bonds[1:])
    u = np.zeros(span, dtype=np.complex128)
    support = root + min(ends)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if soliton:
        u[:support] = soliton_chain(rng, support, draw(st.floats(0.2, 0.5)))
    else:
        u[:support] = random_field(rng, support)
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


class TestLaxOracle:
    """The ladder against the tower of the Lax spectrum, code that shares nothing with it.

    |z| = 1.6 lies well outside the zero of every soliton drawn here
    (|z| = e^(beta / 2) <= 1.29) and of its 0.05 perturbation.
    """

    def test_a_perturbed_soliton_chain(self):
        # beta 0.4 plus a 0.05 perturbation on 300 sites, to m = 12
        q = soliton_chain(np.random.default_rng(41), 300, 0.4)
        assert_matches_the_lax_tower(higher_constants_recursive(q, 12), q, 1.6)

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(4, 300), st.floats(0.2, 0.5))
    def test_random_chain_fields(self, seed, n, beta):
        q = soliton_chain(np.random.default_rng(seed), n, beta)
        assert_matches_the_lax_tower(higher_constants_recursive(q, 12), q, 1.6)

    @PROPERTY_SETTINGS
    @given(glued_trees(soliton=True))
    def test_glued_fields_on_sum_rule_trees(self, case):
        # the graph ladder of snapshot against the tower of the chain it glues
        top, u, _ = case
        st = glued_state(top, u)
        q, residual = universal_chain_field(st, top)
        assert residual < 1e-15
        assert_matches_the_lax_tower(snapshot(st, top, m_max=12).C, q, 1.6, first=2)

    @staticmethod
    def generating_function_gap(gammas):
        """max over the run and |z| = 1.6 of |log a(z, t) - log a(z, 0)| on the unrolled q.

        A beta 0.4 soliton (zero at |z| = 1.22) crosses the vertex of a
        truncation-80 star by t = 40 (2000 steps at dt 0.02, an observation
        every 100).
        """
        top = build_star(gammas, truncation=80)
        launch = soliton_profile(SolitonParams(alpha=ALPHA_FIG4, beta=0.4, n0=-25.0), top)
        config = SimConfig(dt=0.02, t_final=40.0, output_stride=100)
        states = evolve(launch, coupling_coefficients(top), config)
        logs = [lax_log_a(universal_chain_field(state, top)[0], 1.6) for state in states]
        assert len(logs) == 21
        return max(float(np.abs(log_a - logs[0]).max()) for log_a in logs)

    def test_the_generating_function_is_one_constant(self):
        # every C_m at once: on the (1, 1.5, 3) star the gap was 2.9e-8
        # against |log a| of 0.57, RK4's error (it scales as dt^5: 9.1e-10
        # at dt 0.01, 9.3e-7 at dt 0.04)
        assert self.generating_function_gap((1.0, 1.5, 3.0)) <= 1e-7

    def test_the_generating_function_drifts_off_the_sum_rule(self):
        # the negative control: the (0.5, 1.5, 3) vertex reflects, and the
        # unrolled q's log a moved by 0.498
        assert self.generating_function_gap((0.5, 1.5, 3.0)) > 0.1

    def test_a_wrong_ladder_misses_the_tower(self):
        # the negative control: C_m of the field's complex conjugate (the
        # mirror-image flow) is another tower
        q = soliton_chain(np.random.default_rng(41), 300, 0.4)
        with pytest.raises(AssertionError):
            assert_matches_the_lax_tower(higher_constants_recursive(np.conj(q), 12), q, 1.6)


class TestSnapshotFold:
    """``SnapshotFold`` in a forked worker and in-process, against ``snapshot``."""

    @staticmethod
    def states():
        top = build_tree(tree_spec(), truncation=60)
        u = soliton_chain(np.random.default_rng(5), 150, 0.4)
        return top, [FieldState(glued_state(top, u * np.exp(0.3j * k)).data, 0.5 * k) for k in range(4)]

    def test_the_worker_gives_the_in_process_snapshots(self, worker_forks):
        top, states = self.states()
        with SnapshotFold(top, 8) as fold:
            for state in states:
                fold.add(state)
            snaps = fold.snapshots()
        assert len(worker_forks) == 1
        assert snaps == [snapshot(state, top, 8) for state in states]
        q, _ = universal_chain_field(states[-1], top)
        assert_matches_the_lax_tower(snaps[-1].C, q, 1.6, first=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("machine", ["one CPU", "no fork"])
    def test_a_machine_without_a_second_cpu_or_fork_runs_in_process(self, monkeypatch, machine):
        top, states = self.states()
        if machine == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "fork")
        with SnapshotFold(top, 8) as fold:
            for state in states:
                fold.add(state)
            assert fold.worker is None
            assert fold.snapshots() == [snapshot(state, top, 8) for state in states]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
    def test_a_failed_fork_runs_in_process_and_leaks_no_pipe_end(self, worker_forks, monkeypatch):
        top, states = self.states()

        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, "fork: no process slot")

        monkeypatch.setattr(os, "fork", failing_fork)
        before = set(os.listdir("/proc/self/fd"))
        with SnapshotFold(top, 8) as fold:
            for state in states:
                fold.add(state)
            assert fold.worker is None and fold.pipe is None
            snaps = fold.snapshots()
        assert snaps == [snapshot(state, top, 8) for state in states]
        # CPython's fork Popen opens two sentinel pipes before os.fork and
        # closes neither when it raises; the fold's Pipe is a socket pair,
        # and both of its ends must be closed
        left = {fd: os.readlink(f"/proc/self/fd/{fd}") for fd in set(os.listdir("/proc/self/fd")) - before}
        for fd in left:
            os.close(int(fd))
        assert all(target.startswith("pipe:") for target in left.values()), left

    def test_a_daemonic_process_runs_in_process(self, worker_forks, monkeypatch):
        # a daemonic multiprocessing process, a Pool's worker say, may not start children
        top, states = self.states()
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        with SnapshotFold(top, 8) as fold:
            for state in states:
                fold.add(state)
            assert fold.worker is None
            assert fold.snapshots() == [snapshot(state, top, 8) for state in states]
        assert worker_forks == []

    def test_a_ctrl_c_at_the_worker_leaves_it_to_its_pipe(self, worker_forks, capfd):
        # the terminal sends SIGINT to the whole process group; the parent's
        # KeyboardInterrupt closes the pipe, so the worker ignores its own
        top, states = self.states()
        with SnapshotFold(top, 8) as fold:
            fold.add(states[0])
            fold.add(states[1])  # the worker has answered once, so it is in its loop
            os.kill(worker_forks[0], signal.SIGINT)
            for state in states[2:]:
                fold.add(state)
            snaps = fold.snapshots()
        assert snaps == [snapshot(state, top, 8) for state in states]
        assert capfd.readouterr() == ("", "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_error_in_flight_comes_first(self, worker_forks, monkeypatch):
        # the serial run fails at observation 1; a worker learns it only after
        # the caller has raised at observation 2
        top, states = self.states()
        real = snapshot

        def failing(state, topology, m_max, workspace=None):
            if state.time == states[1].time:
                raise DivergenceError("11", 3, state.time, "planted")
            return real(state, topology, m_max, workspace)

        monkeypatch.setattr("alnet.conserved.snapshot", failing)
        with pytest.raises(DivergenceError, match="planted") as exc:
            with SnapshotFold(top, 4) as fold:
                fold.add(states[0])
                fold.add(states[1])
                raise InconclusiveRunError("the guard trips at observation 2")
        assert (exc.value.bond, exc.value.site, exc.value.time) == ("11", 3, states[1].time)
        assert len(worker_forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_joins_the_worker(self, worker_forks):
        top, states = self.states()
        with pytest.raises(KeyboardInterrupt):
            with SnapshotFold(top, 4) as fold:
                fold.add(states[0])
                raise KeyboardInterrupt
        assert len(worker_forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_is_an_error_and_is_reaped(self, worker_forks):
        top, states = self.states()
        with pytest.raises((RuntimeError, BrokenPipeError)):
            with SnapshotFold(top, 4) as fold:
                fold.add(states[0])
                os.kill(worker_forks[0], signal.SIGKILL)
                for state in states[1:]:
                    fold.add(state)
                fold.snapshots()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_reused_workspace_gives_the_same_bits(self):
        top, states = self.states()
        workspace = SnapshotWorkspace(6, top.n_sites)
        for state in states:
            assert snapshot(state, top, 6, workspace) == snapshot(state, top, 6)
        with pytest.raises(InvalidParameterError, match="workspace"):
            snapshot(states[0], top, 5, workspace)


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

    @staticmethod
    def two_soliton_gaps(gammas):
        # two solitons of different beta and speed, both through the vertex by
        # t = 30 (1000 steps), launched as the sum of their profiles on bond 1
        top = build_star(gammas, truncation=120)
        slow = SolitonParams(alpha=ALPHA_FIG4, beta=0.3, n0=-30.0)
        fast = SolitonParams(alpha=ALPHA_FIG4 + 0.3, beta=0.6, n0=-50.0, phi0=1.0)
        launch = FieldState(soliton_profile(slow, top).data + soliton_profile(fast, top).data)
        return chain_gaps(top, launch, SimConfig(dt=0.03, t_final=30.0, output_stride=50))

    def test_a_two_soliton_field_runs_as_the_chain_under_the_sum_rule(self):
        # finding (1) beyond one soliton: for q = sqrt(gamma) psi the vertex is
        # a unitary splitter, so the graph's q is the unrolled chain's evolution
        q_gaps, sibling_gaps = self.two_soliton_gaps((1.0, 1.5, 3.0))
        assert len(q_gaps) == 21
        assert max(q_gaps) <= 1e-12
        assert max(sibling_gaps) <= 1e-12

    def test_the_chain_oracle_fails_off_the_sum_rule(self):
        # negative control: the (1, 1.5, 2.5) vertex reflects, and the chain gap
        # exceeds the 1e-12 gate by more than six orders.  Each leaf's q sees
        # the parent's q at the vertex whatever the gammas, so the leaves stay
        # glued: sibling agreement alone does not show the sum rule
        q_gaps, sibling_gaps = self.two_soliton_gaps((1.0, 1.5, 2.5))
        assert max(q_gaps) > 1e-6
        assert max(sibling_gaps) <= 1e-12


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
        for n in (0, 1):
            assert higher_constants_recursive(np.zeros(n, dtype=complex), 3) == [0j, 0j, 0j]

    def test_an_overflowing_constant_raises(self):
        # C6 multiplies twelve field values: (1e30)^12 is past the largest double
        with pytest.raises(OverflowError, match="overflow"):
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
            states = evolve(soliton_profile(p, top), coupling_coefficients(top), config)
            report = audit(states, top, m_max=6)
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
        report = audit(traj, top, m_max=4)
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
        report = audit(states, top, m_max=4)
        assert calls == [0.0, 5.0, 10.0]
        assert report.chain_residual == max(
            universal_chain_field(s, top)[1] for s in states
        )

    def test_drift_audit_rejects_empty_trajectory(self):
        top = build_chain(1.0, truncation=4)
        with pytest.raises(InvalidParameterError):
            drift_audit(())

    def test_drift_audit_zero_field(self):
        top = build_chain(1.0, truncation=8)
        report = audit([zero_state(top), zero_state(top)], top, m_max=2)
        assert report.drifts == {"N": 0.0, "E": 0.0, "J": 0.0, "C2": 0.0}

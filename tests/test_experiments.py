import math

import numpy as np
import pytest

from alnet import (
    FieldState,
    InconclusiveRunError,
    InvalidParameterError,
    SimConfig,
    SnapshotPicker,
    SolitonParams,
    broken_rule_run,
    build_chain,
    build_star,
    scattering_run,
    soliton_profile,
    transmission_sweep,
)
from alnet.experiments import MEASUREMENT_MARGIN, _launch, _margin
from conftest import ALPHA_FIG4, peak_tracker, zero_state

INCIDENT = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-60.0)


@pytest.fixture(scope="module")
def psg_run():
    # the run observes every 1.0 up to its measurement time, 99; keep t = 60 .. 99
    top = build_star((1.0, 1.5, 3.0), truncation=150)
    [report], picker = scattering_run([top], INCIDENT, SimConfig(), tuple(range(60, 100)))
    return top, report, [state for _, state in picker.picks()]


class TestPeakTracker:
    def test_recovers_analytic_motion(self):
        top = build_chain(1.0, truncation=200)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-50.0)
        traj = [soliton_profile(p, top, t) for t in np.arange(0.0, 32.0, 4.0)]
        series = peak_tracker(traj, top, "1")
        assert series.velocity is not None
        assert series.velocity == pytest.approx(p.velocity, rel=0.01)
        assert series.sites[0] == pytest.approx(-50.0, abs=0.1)
        np.testing.assert_allclose(series.moduli, math.sinh(0.1), rtol=1e-3)

    def test_stationary_soliton(self):
        top = build_chain(1.0, truncation=100)
        p = SolitonParams(alpha=0.0, beta=0.2, n0=-30.0)
        traj = [soliton_profile(p, top, t) for t in np.arange(0.0, 10.0, 2.0)]
        series = peak_tracker(traj, top, "1")
        assert series.velocity is not None
        assert abs(series.velocity) < 1e-3
        assert np.all(np.abs(series.sites + 30.0) < 0.1)

    def test_zero_field_has_no_peak(self):
        top = build_chain(1.0, truncation=50)
        series = peak_tracker([zero_state(top)] * 3, top, "1")
        assert series.velocity is None

    def test_reads_any_iterable_once(self):
        top = build_chain(1.0, truncation=100)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-50.0)
        states = [soliton_profile(p, top, t) for t in np.arange(0.0, 12.0, 4.0)]
        streamed = peak_tracker(iter(states), top, "1")
        listed = peak_tracker(states, top, "1")
        assert streamed.velocity == listed.velocity
        np.testing.assert_array_equal(streamed.sites, listed.sites)
        assert peak_tracker(iter(()), top, "1").times.shape == (0,)


class TestScattering:
    def test_transmission_fractions(self, psg_run):
        _, report, _ = psg_run
        assert report.transmissions["11"] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert report.transmissions["12"] == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert report.reflection < 1e-4
        assert report.unitarity_residual < 1e-3
        assert report.total_norm == pytest.approx(0.2, abs=1e-6)

    def test_report_numbers_are_plain_floats(self, psg_run):
        # numpy scalars would print as np.float64(...) in the quick start
        _, report, _ = psg_run
        values = [*report.transmissions.values(), report.reflection, report.unitarity_residual]
        assert all(type(v) is float for v in values)

    def test_measurement_time_snaps_to_observation_grid(self, psg_run):
        _, report, late = psg_run
        # target sits 80 sites past the vertex; ceil((80 + 60) / v) = 99
        assert report.measurement_time == pytest.approx(99.0)
        assert late[-1].time == pytest.approx(99.0)
        np.testing.assert_allclose(report.partial_norms[0], np.arange(0.0, 100.0))

    def test_norm_series_bookkeeping(self, psg_run):
        top, report, _ = psg_run
        _, series = report.partial_norms
        assert set(series) == set(top.labels)
        totals = sum(series.values())
        np.testing.assert_allclose(totals, totals[0], rtol=1e-6)

    def test_transmitted_peaks_keep_shape_and_speed(self, psg_run):
        top, _, kept = psg_run
        late = [s for s in kept if s.time > 60.0]
        assert len(late) == 39
        p11 = peak_tracker(late, top, "11")
        p12 = peak_tracker(late, top, "12")
        assert p11.velocity == pytest.approx(INCIDENT.velocity, rel=0.01)
        assert p12.velocity == pytest.approx(INCIDENT.velocity, rel=0.01)
        # squared peak heights scale with the inverse nonlinearities
        ratio = (p11.moduli[-1] / p12.moduli[-1]) ** 2
        assert ratio == pytest.approx(3.0 / 1.5, rel=0.01)

    def test_symmetric_star_splits_evenly(self):
        top = build_star((2.0, 4.0, 4.0), truncation=150)
        [report], _ = scattering_run([top], INCIDENT, SimConfig())
        assert report.transmissions["11"] == report.transmissions["12"]
        assert report.transmissions["11"] == pytest.approx(0.5, abs=1e-3)

    def test_four_way_star(self):
        top = build_star((1.0, 2.0, 4.0, 4.0), truncation=150)
        [report], _ = scattering_run([top], INCIDENT, SimConfig())
        assert report.transmissions["11"] == pytest.approx(0.5, abs=1e-3)
        assert report.transmissions["12"] == pytest.approx(0.25, abs=1e-3)
        assert report.transmissions["13"] == pytest.approx(0.25, abs=1e-3)

    def test_wrong_direction_is_inconclusive(self):
        away = SolitonParams(alpha=3 * math.pi / 4, beta=0.1, n0=-60.0)
        assert away.velocity < 0
        with pytest.raises(InconclusiveRunError):
            scattering_run([build_star((1.0, 1.5, 3.0), 150)], away, SimConfig())

    def test_short_leaves_are_inconclusive(self):
        with pytest.raises(InconclusiveRunError):
            scattering_run([build_star((1.0, 1.5, 3.0), 100)], INCIDENT, SimConfig())

    def test_a_wide_soliton_is_measured_past_its_tail(self):
        # a peak 80 sites past the vertex leaves (1 - tanh(80 beta)) / 2 of the norm
        # behind it: 7.5e-3 at beta = 0.03, and T_11 would miss 2/3 by 5e-3.  The
        # margin grows to ln(1e6) / (2 beta) = 231 sites, and criterion 1 holds
        wide = SolitonParams(alpha=ALPHA_FIG4, beta=0.03, n0=-150.0)
        [report], _ = scattering_run([build_star((1.0, 1.5, 3.0), 450)], wide, SimConfig(dt=0.02))
        assert report.transmissions["11"] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert report.transmissions["12"] == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert report.reflection < 1e-5 and report.measurement_time == 270.0
        # leaves that cannot hold the peak the wider margin from their walls refuse the run
        with pytest.raises(InconclusiveRunError, match="201 sites from its far end"):
            scattering_run([build_star((1.0, 1.5, 3.0), 400)], wide, SimConfig(dt=0.02))

    def test_the_margin_is_fixed_down_to_beta_0_087(self):
        margins = [_margin(SolitonParams(ALPHA_FIG4, beta, -60.0)) for beta in (0.086, 0.087, 0.1, 3.0)]
        assert margins[0] > MEASUREMENT_MARGIN and margins[1:] == [MEASUREMENT_MARGIN] * 3

    def test_a_given_t_final_must_reach_the_measurement_time(self):
        # the derived measurement time of this run is 99; one step short of it is refused
        top = build_star((1.0, 1.5, 3.0), truncation=150)
        cfg, _ = _launch([top], INCIDENT, SimConfig(t_final=99.0))
        assert cfg.t_final == 99.0 and _launch([top], INCIDENT, SimConfig())[0] == cfg
        with pytest.raises(InconclusiveRunError, match="before its measurement time 99"):
            _launch([top], INCIDENT, SimConfig(t_final=98.99))

    def test_boundary_guard_checks_every_observation(self, monkeypatch):
        # a field that reaches a leaf's truncated end mid-run and comes back
        # inside must not pass: only the middle observation fails the guard
        top = build_star((1.0, 1.5, 3.0), truncation=150)
        quiet = soliton_profile(INCIDENT, top)
        loud = FieldState(quiet.data.copy(), 50.0)
        loud.data[top.slices["12"].stop - 1] = 0.05  # |psi|^2 = 2.5e-3
        states = [quiet, loud, FieldState(quiet.data, 99.0)]
        monkeypatch.setattr("alnet.experiments.evolve", lambda *args: iter(states))
        with pytest.raises(InconclusiveRunError, match="bond '12'"):
            scattering_run([top], INCIDENT, SimConfig())

    def test_boundary_guard_names_the_first_bond_in_label_order(self, monkeypatch):
        # the guard reads the two sites at every wall; of the failing bonds
        # the first label is named, with its larger |psi|^2
        top = build_star((1.0, 1.5, 3.0), truncation=150)
        quiet = soliton_profile(INCIDENT, top)

        def run(*sites):
            loud = FieldState(quiet.data.copy(), 50.0)
            loud.data[list(sites)] = 0.05
            loud.data[sites[0]] = 0.06
            states = [quiet, loud, FieldState(quiet.data, 99.0)]
            monkeypatch.setattr("alnet.experiments.evolve", lambda *args: iter(states))
            scattering_run([top], INCIDENT, SimConfig())

        ends = {label: top.slices[label].stop - 1 for label in ("11", "12")}
        with pytest.raises(InconclusiveRunError, match=r"bond '1' \(\|psi\|\^2 = 3\.600e-03\)"):
            run(1, ends["11"], ends["12"])
        with pytest.raises(InconclusiveRunError, match=r"bond '11' \(\|psi\|\^2 = 3\.600e-03\)"):
            run(ends["11"] - 1, ends["11"], ends["12"])

    def test_overlong_run_trips_the_boundary_guard(self):
        # the peak reaches the truncated leaf ends near t = 148
        cfg = SimConfig(t_final=148.0)
        with pytest.raises(InconclusiveRunError):
            scattering_run([build_star((1.0, 1.5, 3.0), 150)], INCIDENT, cfg)


class TestSumRuleIsSharp:
    def test_reflection_grows_quadratically_in_the_residual(self):
        # stars (1, 1.5, 3(1 + delta)) miss the sum rule by delta / (3 (1 + delta));
        # the vertex is transparent on the rule, and reflection grows as the
        # residual squared, so it quadruples per doubling of delta; dt = 0.02
        # halves the cost and moves no reflection in its first eight digits
        deltas = (0.0, 0.01, 0.02, 0.04)
        stars = [build_star((1.0, 1.5, 3.0 * (1.0 + d)), 300) for d in deltas]
        soliton = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-120.0)
        reports, _ = scattering_run(stars, soliton, SimConfig(dt=0.02))
        reflections = [r.reflection for r in reports]
        assert reflections[0] < 1e-6
        for smaller, larger in zip(reflections[1:], reflections[2:]):
            assert 3.5 <= larger / smaller <= 4.5


class TestSweep:
    def test_matches_predictions(self):
        rows = transmission_sweep([0.25, 0.5], INCIDENT, SimConfig(), truncation=150)
        assert [r.ratio for r in rows] == [0.25, 0.5]
        for row in rows:
            assert row.predicted_t2 == row.ratio
            assert row.predicted_t3 == 1.0 - row.ratio
            assert row.t2 == pytest.approx(row.predicted_t2, abs=5e-3)
            assert row.t3 == pytest.approx(row.predicted_t3, abs=5e-3)
            assert row.unitarity_residual < 1e-3

    @pytest.mark.parametrize(
        "grid", [[0.4], [0.2, 0.35, 0.6, 0.8]], ids=["1-point", "4-point"]
    )
    def test_rows_equal_separate_runs(self, grid):
        # the grid is integrated as one stack; each run of it must be the single run exactly
        rows = transmission_sweep(grid, INCIDENT, SimConfig(), truncation=150)
        assert [row.ratio for row in rows] == grid
        for r, row in zip(grid, rows):
            top = build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), truncation=150)
            [report], _ = scattering_run([top], INCIDENT, SimConfig())
            assert row.t2 == report.transmissions["11"]
            assert row.t3 == report.transmissions["12"]
            assert row.unitarity_residual == report.unitarity_residual

    def test_overlong_sweep_trips_the_boundary_guard(self):
        # as test_overlong_run_trips_the_boundary_guard, for every run of the stack
        cfg = SimConfig(t_final=148.0)
        with pytest.raises(InconclusiveRunError):
            transmission_sweep([0.3, 0.6], INCIDENT, cfg, truncation=150)

    def test_boundary_guard_checks_every_column(self):
        # at t = 124 the leaf ends of the r = 0.5 star hold |psi|^2 = 7.1e-5 and
        # those of the r = 0.1 star 1.3e-4, either side of the 1e-4 guard
        cfg = SimConfig(t_final=124.0)
        transmission_sweep([0.5], INCIDENT, cfg, truncation=150)
        with pytest.raises(InconclusiveRunError, match="bond '12'"):
            transmission_sweep([0.5, 0.1], INCIDENT, cfg, truncation=150)

    def test_boundary_guard_raises_at_the_first_failing_observation(self, monkeypatch):
        # run 1 fails on bond '11' at t = 50 and run 0 on bond '12' at
        # t = 60: the earlier observation decides.  Within one observation
        # the first failing run decides, whatever its bond's place.
        stars = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), 150) for r in (0.3, 0.6)]
        quiet = np.concatenate([soliton_profile(INCIDENT, top).data for top in stars])
        end = {label: stars[0].slices[label].stop - 1 for label in ("11", "12")}

        def observed(*loud):
            data = quiet.copy()
            for run, label in loud:
                data[run * stars[0].n_sites + end[label]] = 0.05
            return data

        def run(*middle):
            states = [FieldState(quiet)]
            states += [FieldState(observed(*loud), t) for t, loud in middle]
            states.append(FieldState(quiet, 99.0))
            monkeypatch.setattr("alnet.experiments.evolve", lambda *args: iter(states))
            transmission_sweep([0.3, 0.6], INCIDENT, SimConfig(), truncation=150)

        with pytest.raises(InconclusiveRunError, match="bond '11'"):
            run((50.0, [(1, "11")]), (60.0, [(0, "12")]))
        with pytest.raises(InconclusiveRunError, match="bond '12'"):
            run((50.0, [(0, "12"), (1, "11")]))

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.2, 1.2])
    def test_rejects_ratios_outside_unit_interval(self, r):
        with pytest.raises(InvalidParameterError):
            transmission_sweep([r], INCIDENT)


class TestBrokenRule:
    def test_rule_satisfying_couplings_are_a_precondition_error(self):
        with pytest.raises(InvalidParameterError):
            broken_rule_run(build_star((1.0, 1.5, 3.0), 150), INCIDENT, SimConfig())

    def test_reflection_regime(self):
        report, peaks, _ = broken_rule_run(
            build_star((0.5, 1.5, 3.0), truncation=150), INCIDENT, SimConfig()
        )
        assert report.reflection > 0.01
        assert report.radiation_fraction is not None
        assert 0.0 <= report.radiation_fraction < 1.0
        assert set(peaks) == {"1", "11", "12"}
        reflected = peaks["1"]
        assert reflected.velocity is not None
        # the reflected peak runs backwards at roughly the incident speed
        assert reflected.velocity == pytest.approx(-INCIDENT.velocity, rel=0.05)
        # fitting starts only after the incident peak has cleared the vertex
        t_clear = -INCIDENT.n0 / INCIDENT.velocity
        assert reflected.times.min() > t_clear
        for leaf in ("11", "12"):
            assert peaks[leaf].velocity == pytest.approx(
                INCIDENT.velocity, rel=0.05
            )


class TestSnapshotPicker:
    def test_each_pick_goes_once_as_soon_as_no_later_observation_can_replace_it(self):
        # observations at 0, 0.5, .., 2; 0.75 ties 0.5 and 1.0, and the earlier stays
        config = SimConfig(dt=0.5, t_final=2.0, output_stride=1)
        handed, events = [], []

        def hand_off(state, at_end):
            handed.append((state.time, at_end))
            return f"rows of {state.time}"

        picker = SnapshotPicker((0.0, 0.6, 0.75, 2.0, 2.3), config, hand_off)
        for i in range(5):
            picker.add(FieldState(np.zeros(2, dtype=np.complex128), 0.5 * i))
            events.append(list(handed))
        picker.finish()
        # 0 is final at its own observation and goes at the next; 0.6 and 0.75
        # share 0.5, final at 1.0; 2.0 and 2.3 share the last observation,
        # which the end hands off
        assert events == [[], [(0.0, False)], [(0.0, False)], [(0.0, False), (0.5, False)],
                          [(0.0, False), (0.5, False)]]
        assert handed == [(0.0, False), (0.5, False), (2.0, True)]
        assert picker.picks() == ((0.0, "rows of 0.0"), (0.5, "rows of 0.5"), (2.0, "rows of 2.0"))

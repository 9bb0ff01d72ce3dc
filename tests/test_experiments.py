import math

import numpy as np
import pytest

from alnet import (
    InconclusiveRunError,
    InvalidParameterError,
    SimConfig,
    SolitonParams,
    build_chain,
    build_psg,
    peak_tracker,
    run_bifurcation,
    run_broken_rule,
    scattering_run,
    soliton_profile,
    transmission_sweep,
    zero_state,
)
from conftest import ALPHA_FIG4

INCIDENT = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-60.0)


@pytest.fixture(scope="module")
def psg_run():
    top = build_psg(1.0, 1.5, 3.0, truncation=150)
    report, trajectory = scattering_run(top, INCIDENT, SimConfig())
    return top, report, trajectory


class TestPeakTracker:
    def test_recovers_analytic_motion(self):
        top = build_chain(1.0, truncation=200)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-50.0)
        traj = [soliton_profile(p, top, t) for t in np.arange(0.0, 32.0, 4.0)]
        series = peak_tracker(traj, top, "1")
        assert not series.no_peak
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
        assert series.no_peak
        assert series.velocity is None


class TestScattering:
    def test_transmission_fractions(self, psg_run):
        _, report, _ = psg_run
        assert report.transmissions["11"] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert report.transmissions["12"] == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert report.reflection < 1e-4
        assert report.unitarity_residual < 1e-3
        assert report.total_norm == pytest.approx(0.2, abs=1e-6)

    def test_measurement_time_snaps_to_observation_grid(self, psg_run):
        _, report, trajectory = psg_run
        # target sits 80 sites past the vertex; ceil((80 + 60) / v) = 99
        assert report.measurement_time == pytest.approx(99.0)
        assert trajectory[-1].time == pytest.approx(99.0)
        np.testing.assert_allclose(report.times, np.arange(0.0, 100.0))

    def test_norm_series_bookkeeping(self, psg_run):
        top, report, _ = psg_run
        assert set(report.partial_norm_series) == set(top.labels)
        totals = sum(report.partial_norm_series.values())
        np.testing.assert_allclose(totals, totals[0], rtol=1e-6)

    def test_transmitted_peaks_keep_shape_and_speed(self, psg_run):
        top, _, trajectory = psg_run
        late = [s for s in trajectory if s.time > 60.0]
        p11 = peak_tracker(late, top, "11")
        p12 = peak_tracker(late, top, "12")
        assert p11.velocity == pytest.approx(INCIDENT.velocity, rel=0.01)
        assert p12.velocity == pytest.approx(INCIDENT.velocity, rel=0.01)
        # squared peak heights scale with the inverse nonlinearities
        ratio = (p11.moduli[-1] / p12.moduli[-1]) ** 2
        assert ratio == pytest.approx(3.0 / 1.5, rel=0.01)

    def test_symmetric_star_splits_evenly(self):
        top = build_psg(2.0, 4.0, 4.0, truncation=150)
        report, _ = scattering_run(top, INCIDENT, SimConfig())
        assert report.transmissions["11"] == report.transmissions["12"]
        assert report.transmissions["11"] == pytest.approx(0.5, abs=1e-3)

    def test_four_way_star(self):
        report = run_bifurcation(
            (1.0, 2.0, 4.0, 4.0), INCIDENT, SimConfig(), truncation=150
        )
        assert report.transmissions["11"] == pytest.approx(0.5, abs=1e-3)
        assert report.transmissions["12"] == pytest.approx(0.25, abs=1e-3)
        assert report.transmissions["13"] == pytest.approx(0.25, abs=1e-3)

    def test_wrong_direction_is_inconclusive(self):
        away = SolitonParams(alpha=3 * math.pi / 4, beta=0.1, n0=-60.0)
        assert away.velocity < 0
        with pytest.raises(InconclusiveRunError):
            run_bifurcation((1.0, 1.5, 3.0), away, SimConfig(), truncation=150)

    def test_short_leaves_are_inconclusive(self):
        with pytest.raises(InconclusiveRunError):
            run_bifurcation((1.0, 1.5, 3.0), INCIDENT, SimConfig(), truncation=100)

    def test_overlong_run_trips_the_boundary_guard(self):
        # the peak reaches the truncated leaf ends near t = 148
        cfg = SimConfig(t_final=148.0)
        with pytest.raises(InconclusiveRunError):
            run_bifurcation((1.0, 1.5, 3.0), INCIDENT, cfg, truncation=150)


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
        # the grid is integrated as one stack; each column must be the single run exactly
        rows = transmission_sweep(grid, INCIDENT, SimConfig(), truncation=150)
        assert [row.ratio for row in rows] == grid
        for r, row in zip(grid, rows):
            report = run_bifurcation(
                (1.0, 1.0 / r, 1.0 / (1.0 - r)), INCIDENT, SimConfig(), truncation=150
            )
            assert row.t2 == report.transmissions["11"]
            assert row.t3 == report.transmissions["12"]
            assert row.unitarity_residual == report.unitarity_residual

    def test_overlong_sweep_trips_the_boundary_guard(self):
        # as test_overlong_run_trips_the_boundary_guard, for every column of the stack
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

    def test_workers_do_not_change_results(self):
        serial = transmission_sweep([0.3, 0.6], INCIDENT, SimConfig(), truncation=150)
        threaded = transmission_sweep(
            [0.3, 0.6], INCIDENT, SimConfig(), truncation=150, workers=2
        )
        assert serial == threaded

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.2, 1.2])
    def test_rejects_ratios_outside_unit_interval(self, r):
        with pytest.raises(InvalidParameterError):
            transmission_sweep([r], INCIDENT)


class TestBrokenRule:
    def test_rule_satisfying_couplings_are_a_precondition_error(self):
        with pytest.raises(InvalidParameterError):
            run_broken_rule((1.0, 1.5, 3.0), INCIDENT, SimConfig(), truncation=150)

    def test_reflection_regime(self):
        report, track = run_broken_rule(
            (0.5, 1.5, 3.0), INCIDENT, SimConfig(), truncation=150
        )
        assert report.reflection > 0.01
        assert report.radiation_fraction is not None
        assert 0.0 <= report.radiation_fraction < 1.0
        assert set(track.series) == {"1", "11", "12"}
        reflected = track.series["1"]
        assert not reflected.no_peak
        # the reflected peak runs backwards at roughly the incident speed
        assert reflected.velocity == pytest.approx(-INCIDENT.velocity, rel=0.05)
        # fitting starts only after the incident peak has cleared the vertex
        t_clear = -INCIDENT.n0 / INCIDENT.velocity
        assert reflected.times.min() > t_clear
        for leaf in ("11", "12"):
            assert track.series[leaf].velocity == pytest.approx(
                INCIDENT.velocity, rel=0.05
            )

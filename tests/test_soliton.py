import math

import numpy as np
import pytest

from alnet import (
    InvalidParameterError,
    SolitonParams,
    bond_field,
    build_chain,
    build_star,
    derive_kinematics,
    sech,
    site_offset,
    soliton_profile,
)
from conftest import ALPHA_FIG4, analytic_Z, analytic_norm, norm


class TestKinematics:
    def test_frozen_reference_values(self):
        omega, v = derive_kinematics(ALPHA_FIG4, 0.1)
        assert v == pytest.approx(1.416571763768989, abs=1e-15)
        assert omega == pytest.approx(1.4212905247060068, abs=1e-15)

    def test_zero_carrier_is_stationary(self):
        omega, v = derive_kinematics(0.0, 0.3)
        assert v == 0.0
        assert omega == pytest.approx(-2.0 * math.cosh(0.3))

    def test_quarter_wave_has_zero_frequency(self):
        omega, v = derive_kinematics(math.pi / 2, 0.2)
        assert omega == pytest.approx(0.0, abs=1e-15)
        assert v == pytest.approx(-2.0 * math.sinh(0.2) / 0.2)

    @pytest.mark.parametrize("beta", [0.0, -0.1])
    def test_rejects_nonpositive_width(self, beta):
        with pytest.raises(InvalidParameterError):
            derive_kinematics(0.1, beta)
        with pytest.raises(InvalidParameterError):
            SolitonParams(alpha=0.1, beta=beta, n0=0.0)

    def test_rejects_a_width_whose_sinh_and_cosh_overflow(self):
        # cosh overflows a double just above beta = 710.4758
        assert math.isfinite(SolitonParams(alpha=0.1, beta=710.4758, n0=0.0).velocity)
        with pytest.raises(InvalidParameterError, match="overflow"):
            SolitonParams(alpha=0.1, beta=710.476, n0=0.0)

    def test_params_expose_kinematics(self):
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        assert (p.omega, p.velocity) == derive_kinematics(ALPHA_FIG4, 0.1)


class TestProfile:
    def test_refuses_a_peak_whose_density_overflows(self):
        # sinh(400)^2 overflows a double, though sinh and cosh do not
        top = build_star((1.0, 1.5, 3.0), truncation=20)
        with pytest.raises(InvalidParameterError, match="overflows"):
            soliton_profile(SolitonParams(alpha=0.1, beta=400.0, n0=-5.0), top)

    def test_refuses_a_profile_whose_norm_underflows(self):
        # 11 sites past the last one of bond '11' the amplitudes there are about
        # 1e-209, so every |psi|^2 is 0 and there is no norm to take fractions of
        top = build_star((1.0, 1.5, 3.0), truncation=37)
        p = SolitonParams(alpha=0.1, beta=48.0, n0=48.0)
        with pytest.raises(InvalidParameterError, match="zero amplitude"):
            soliton_profile(p, top)

    def test_peak_amplitude_and_decay(self):
        top = build_chain(1.0, truncation=200)
        p = SolitonParams(alpha=0.0, beta=0.1, n0=-40.0)
        st = soliton_profile(p, top)
        a = bond_field(st, top, "1")
        peak = int(np.argmax(np.abs(a)))
        assert top.site_coordinates("1")[peak] == -40
        assert abs(a[peak]) == pytest.approx(math.sinh(0.1), rel=1e-12)
        # tails far from the center are tiny but nonzero
        assert 0 < abs(a[0]) < 1e-6

    def test_amplitude_scales_with_bond_gamma(self):
        top = build_star((1.0, 1.5, 3.0), truncation=120)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=20.0)
        st = soliton_profile(p, top)
        a2 = np.abs(bond_field(st, top, "11")) ** 2
        a3 = np.abs(bond_field(st, top, "12")) ** 2
        np.testing.assert_allclose(a2 / a3, np.full(120, 3.0 / 1.5), rtol=1e-12)

    def test_profile_is_continuous_through_vertex(self):
        # rescaled fields sqrt(gamma_b) psi_b all lie on one chain profile
        top = build_star((1.0, 1.5, 3.0), truncation=120)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=0.0)
        st = soliton_profile(p, top)

        def chain_value(n):
            return (
                math.sinh(0.1)
                * sech(0.1 * (n - p.n0))
                * np.exp(-1j * p.alpha * n)
            )

        for label in top.labels:
            g = top.bond(label).gamma
            coords = top.site_coordinates(label)
            np.testing.assert_allclose(
                math.sqrt(g) * bond_field(st, top, label),
                chain_value(coords.astype(float)),
                rtol=1e-12,
                atol=1e-300,
            )

    def test_offset_shifts_deep_bonds(self):
        from conftest import tree_spec
        from alnet import build_tree

        top = build_tree(tree_spec(), truncation=100)
        assert site_offset(top, "111") == 30
        p = SolitonParams(alpha=0.0, beta=0.2, n0=45.0)
        st = soliton_profile(p, top)
        a = np.abs(bond_field(st, top, "111"))
        # local site 15 sits at chain coordinate 45
        assert int(np.argmax(a)) == 14

    def test_time_argument_translates_the_profile(self):
        top = build_chain(1.0, truncation=300)
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-100.0)
        v = p.velocity
        dt = 10.0 / v  # move exactly ten sites
        st = soliton_profile(p, top, t=dt)
        ref = soliton_profile(
            SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-90.0), top
        )
        np.testing.assert_allclose(np.abs(st.data), np.abs(ref.data), atol=1e-12)

    def test_phi0_is_a_global_phase(self):
        top = build_chain(1.0, truncation=60)
        p0 = SolitonParams(alpha=0.3, beta=0.2, n0=0.0)
        p1 = SolitonParams(alpha=0.3, beta=0.2, n0=0.0, phi0=1.234)
        st0 = soliton_profile(p0, top)
        st1 = soliton_profile(p1, top)
        np.testing.assert_allclose(st1.data, st0.data * np.exp(-1.234j), rtol=1e-12)


class TestClosedForms:
    def test_norm_value_and_scaling(self):
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        assert analytic_norm(p, 1.0) == pytest.approx(0.2)
        assert analytic_norm(p, 0.5) == pytest.approx(0.4)
        p2 = SolitonParams(alpha=ALPHA_FIG4, beta=0.2, n0=-150.0)
        assert analytic_norm(p2, 1.0) == pytest.approx(2 * analytic_norm(p, 1.0))

    def test_numeric_norm_matches_closed_form(self):
        top = build_star((1.0, 1.5, 3.0), truncation=400)
        # non-integer center: the lattice sum still telescopes exactly
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.37)
        st = soliton_profile(p, top)
        assert norm(st, top) == pytest.approx(0.2, abs=1e-13)

    def test_Z_frozen_reference_values(self):
        p = SolitonParams(alpha=ALPHA_FIG4, beta=0.1, n0=-150.0)
        z, e, j = analytic_Z(p, 1.0)
        assert z.real == pytest.approx(-0.14165717637689892, abs=1e-15)
        assert z.imag == pytest.approx(0.1416571763768989, abs=1e-15)
        assert e == pytest.approx(0.2833143527537978, abs=1e-15)
        assert j == pytest.approx(0.2833143527537978, abs=1e-15)

    def test_Z_consistency(self):
        p = SolitonParams(alpha=0.7, beta=0.25, n0=0.0)
        z, e, j = analytic_Z(p, 2.0)
        assert z == pytest.approx(math.sinh(0.25) * np.exp(-0.7j))
        assert e == pytest.approx(-2 * z.real) and j == pytest.approx(2 * z.imag)
        z_neg, _, j_neg = analytic_Z(SolitonParams(alpha=-0.7, beta=0.25, n0=0.0), 2.0)
        assert z_neg == pytest.approx(np.conj(z))
        assert j_neg == pytest.approx(-j)


def test_sech_overflow_safe():
    assert sech(0.0) == 1.0
    assert sech(800.0) == pytest.approx(0.0, abs=1e-300)
    assert sech(-800.0) == sech(800.0)
    x = np.array([-2.0, 0.0, 2.0])
    np.testing.assert_allclose(sech(x), 1.0 / np.cosh(x), rtol=1e-15)

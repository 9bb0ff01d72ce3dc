import numpy as np
import pytest

from alnet import (
    DivergenceError,
    FieldState,
    assert_finite,
    bond_field,
    build_psg,
    partial_norms,
    zero_state,
)


def test_zero_state_shape_and_dtype():
    top = build_psg(1.0, 1.5, 3.0, truncation=30)
    st = zero_state(top)
    assert st.data.shape == (90,)
    assert st.data.dtype == np.complex128
    assert st.time == 0.0
    assert not np.any(st.data)


def test_bond_field_is_a_view():
    top = build_psg(1.0, 1.5, 3.0, truncation=30)
    st = zero_state(top)
    seg = bond_field(st, top, "11")
    seg[:] = 1.0 + 2.0j
    assert np.all(st.data[30:60] == 1.0 + 2.0j)
    assert not np.any(st.data[:30])
    with pytest.raises(KeyError):
        bond_field(st, top, "13")


def test_partial_norms_against_direct_sum(rng):
    top = build_psg(1.0, 1.5, 3.0, truncation=16)
    st = zero_state(top)
    st.data[:] = 0.3 * (rng.random(48) - 0.5) + 0.3j * (rng.random(48) - 0.5)
    norms = partial_norms(st, top)
    for label in top.labels:
        g = top.bond(label).gamma
        seg = bond_field(st, top, label)
        expected = np.sum(np.log(1.0 + g * np.abs(seg) ** 2)) / g
        assert norms[label] == pytest.approx(expected, rel=1e-14)
    assert set(norms) == set(top.labels)


def test_assert_finite_reports_bond_and_site():
    top = build_psg(1.0, 1.5, 3.0, truncation=10)
    st = zero_state(top)
    st.time = 2.5
    assert_finite(st, top)
    st.data[13] = np.nan
    with pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    assert exc.value.bond == "11"
    assert exc.value.time == 2.5
    st.data[13] = 0.0
    st.data[5] = np.inf
    with pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    assert exc.value.bond == "1"


def test_assert_finite_reports_a_stack_column_by_column():
    top = build_psg(1.0, 1.5, 3.0, truncation=10)
    st = FieldState(np.zeros((top.n_sites, 3), dtype=complex), time=1.5)
    assert_finite(st, top)
    st.data[13, 1] = np.nan
    with pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    # the site's own bond and coordinate, not the stacked array's flat index 40
    assert (exc.value.bond, exc.value.site, exc.value.time) == ("11", 4, 1.5)
    # an earlier column wins over an earlier site
    st.data[25, 0] = np.inf
    with pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    assert (exc.value.bond, exc.value.site) == ("12", 6)

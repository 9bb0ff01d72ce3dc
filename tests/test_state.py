import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alnet import (
    DivergenceError,
    FieldState,
    InvalidParameterError,
    assert_finite,
    bond_field,
    build_star,
    partial_norms,
)
from alnet.topology import with_truncation
from conftest import PROPERTY_SETTINGS, bits, tree_stacks, zero_state


def test_zero_state_shape_and_dtype():
    top = build_star((1.0, 1.5, 3.0), truncation=30)
    st = zero_state(top)
    assert st.data.shape == (90,)
    assert st.data.dtype == np.complex128
    assert st.time == 0.0
    assert not np.any(st.data)


def test_state_data_is_one_dimensional():
    # a stack of runs is one flat layout, never a (sites, runs) array
    with pytest.raises(InvalidParameterError, match="one-dimensional"):
        FieldState(np.zeros((30, 2), dtype=complex))


def test_bond_field_is_a_view():
    top = build_star((1.0, 1.5, 3.0), truncation=30)
    st = zero_state(top)
    seg = bond_field(st, top, "11")
    seg[:] = 1.0 + 2.0j
    assert np.all(st.data[30:60] == 1.0 + 2.0j)
    assert not np.any(st.data[:30])
    with pytest.raises(KeyError):
        bond_field(st, top, "13")


@PROPERTY_SETTINGS
@given(tops=tree_stacks(), truncation=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_partial_norms_against_direct_sum(tops, truncation, seed):
    # one log1p pass, then the bonds of one length summed as the rows of
    # one table, give each bond's own np.sum bit for bit; leaves long
    # enough for numpy's blocked summation
    top = with_truncation(tops[0], truncation)
    rng = np.random.default_rng(seed)
    n = top.n_sites
    scale = 10.0 ** rng.uniform(-20, 0, n)
    state = FieldState((rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale)
    expected = []
    for b in top.bonds:
        a = bond_field(state, top, b.label).copy()
        expected.append(np.sum(np.log1p(b.gamma * (a.real**2 + a.imag**2))) / b.gamma)
    norms = partial_norms(state, top)
    assert norms.shape == (len(top.labels),)
    assert np.array_equal(bits(norms), bits(np.array(expected)))


def test_assert_finite_reports_bond_and_site():
    top = build_star((1.0, 1.5, 3.0), truncation=10)
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


def test_assert_finite_passes_a_finite_field_whose_sum_of_squares_overflows():
    # the screen sums the parts, not their squares, so amplitudes whose
    # squares overflow pass it; an inf among them fails it
    top = build_star((1.0, 1.5, 3.0), truncation=10)
    st = zero_state(top)
    st.time = 2.5
    st.data[:] = 1e200 - 1e200j
    with np.errstate(over="ignore"):
        assert_finite(st, top)
        st.data[17] = complex(1e200, -np.inf)
        with pytest.raises(DivergenceError) as exc:
            assert_finite(st, top)
    assert (exc.value.bond, exc.value.site, exc.value.time) == ("11", 8, 2.5)


def test_assert_finite_passes_a_finite_field_whose_sum_overflows():
    # the screening sum overflows to inf, and the exact search finds every part finite;
    # the sum's overflow warning follows the caller's errstate, as in a run
    top = build_star((1.0, 1.5, 3.0), truncation=10)
    st = FieldState(np.full(top.n_sites, 1e308 + 1e308j), time=2.5)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(st.data.view(np.float64)))
        assert_finite(st, top)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                                 complex(0.0, -np.inf), complex(np.inf, -np.inf)])
def test_assert_finite_raises_on_a_nan_or_an_inf_part(bad):
    top = build_star((1.0, 1.5, 3.0), truncation=10)
    st = FieldState(np.full(top.n_sites, 0.5 - 0.25j), time=2.5)
    st.data[22] = bad
    # inf - inf in the screening sum warns as the caller's errstate says
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    assert (exc.value.bond, exc.value.site, exc.value.time) == ("12", 3, 2.5)


def test_a_density_that_overflows_has_no_finite_norm():
    # every amplitude is finite, but |psi|^2 at site 13 is not: the run has diverged
    top = build_star((1.0, 1.5, 3.0), truncation=10)
    st = zero_state(top)
    st.time = 2.5
    st.data[13] = 1e200 - 1e160j
    st.data[4] = 1e150
    with pytest.raises(DivergenceError) as exc:
        partial_norms(st, top)
    assert (exc.value.bond, exc.value.site, exc.value.time) == ("11", 4, 2.5)
    assert "|psi|^2 overflows" in str(exc.value)


def test_assert_finite_reports_a_stack_column_by_column():
    # a stack of three runs lies back to back, run b at [30 b, 30 (b + 1))
    top = build_star((1.0, 1.5, 3.0), truncation=10)
    st = FieldState(np.zeros(3 * top.n_sites, dtype=complex), time=1.5)
    assert_finite(st, top)
    st.data[30 + 13] = np.nan
    with pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    # the site's own bond and coordinate, not the stacked array's flat index 43
    assert (exc.value.bond, exc.value.site, exc.value.time) == ("11", 4, 1.5)
    # an earlier run wins over an earlier site
    st.data[25] = np.inf
    with pytest.raises(DivergenceError) as exc:
        assert_finite(st, top)
    assert (exc.value.bond, exc.value.site) == ("12", 6)

"""Property-based tests on LUT querying and the analysis helpers."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.lut import LookupTable
from repro.telemetry.analysis import (
    count_thermal_cycles,
    count_threshold_crossings,
    max_overshoot,
    rolling_mean,
    summarize,
)

utilizations = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def lookup_tables(draw):
    n = draw(st.integers(1, 8))
    levels = sorted(
        draw(
            st.lists(
                st.floats(0.0, 100.0),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    rpms = draw(
        st.lists(
            st.sampled_from([1800.0, 2400.0, 3000.0, 3600.0, 4200.0]),
            min_size=n,
            max_size=n,
        )
    )
    return LookupTable(levels_pct=tuple(levels), rpms=tuple(rpms))


class TestLutProperties:
    @given(lut=lookup_tables(), u=utilizations)
    def test_query_returns_table_speed(self, lut, u):
        assert lut.query(u) in lut.rpms

    @given(lut=lookup_tables(), u=utilizations)
    def test_query_rounds_up(self, lut, u):
        """The selected entry's level is the smallest level >= u, unless
        u is above every level (then the last entry)."""
        rpm = lut.query(u)
        candidates = [l for l in lut.levels_pct if l >= u - 1e-9]
        if candidates:
            expected = lut.rpms[lut.levels_pct.index(candidates[0])]
            assert rpm == expected
        else:
            assert rpm == lut.rpms[-1]

    @given(lut=lookup_tables())
    def test_json_roundtrip(self, lut):
        assert LookupTable.from_json(lut.to_json()) == lut

    @given(lut=lookup_tables(), us=st.lists(utilizations, max_size=20))
    def test_query_many_matches_query(self, lut, us):
        """The vectorized lookup is the scalar one, element by element."""
        many = lut.query_many(np.array(us, dtype=float))
        assert many.tolist() == [lut.query(u) for u in us]

    @given(
        lut=lookup_tables(),
        bad=st.sampled_from([-1e-9, 100.0000001, float("nan"), float("inf")]),
    )
    def test_query_many_raises_the_scalar_error(self, lut, bad):
        with pytest.raises(ValueError) as scalar:
            lut.query(bad)
        with pytest.raises(ValueError) as vector:
            lut.query_many(np.array([50.0, bad, -5.0]))
        assert str(vector.value) == str(scalar.value)

    @given(lut=lookup_tables(), u1=utilizations, u2=utilizations)
    def test_monotone_tables_give_monotone_queries(self, lut, u1, u2):
        if list(lut.rpms) != sorted(lut.rpms):
            return  # only meaningful for monotone tables
        if u1 > u2:
            u1, u2 = u2, u1
        assert lut.query(u1) <= lut.query(u2)


series_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestAnalysisProperties:
    @given(values=series_strategy)
    def test_summary_bounds(self, values):
        s = summarize(values)
        # Epsilon absorbs float rounding of np.mean on constant series.
        eps = 1e-9
        assert s.minimum - eps <= s.mean <= s.maximum + eps
        assert s.peak_to_peak >= 0.0
        assert s.count == len(values)

    @given(values=series_strategy, threshold=st.floats(0.0, 100.0))
    def test_overshoot_non_negative(self, values, threshold):
        assert max_overshoot(values, threshold) >= 0.0

    @given(values=series_strategy, threshold=st.floats(0.0, 100.0))
    def test_crossings_bounded_by_length(self, values, threshold):
        assert 0 <= count_threshold_crossings(values, threshold) <= len(values) // 2 + 1

    @given(values=series_strategy, amplitude=st.floats(0.5, 50.0))
    def test_cycles_bounded(self, values, amplitude):
        cycles = count_thermal_cycles(values, amplitude_c=amplitude)
        assert 0 <= cycles <= len(values)

    @given(values=series_strategy, window=st.floats(0.5, 50.0))
    @settings(max_examples=50)
    def test_rolling_mean_within_range(self, values, window):
        times = np.arange(float(len(values)))
        out = rolling_mean(times, values, window_s=window)
        assert np.all(out >= np.min(values) - 1e-9)
        assert np.all(out <= np.max(values) + 1e-9)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longisurv.errors import ConfigError, DataError
from longisurv.survival import TimeGrid, EventOutcome, hazard_to_survival


class TestHazardToSurvival:
    def test_zero_hazard(self):
        np.testing.assert_array_equal(hazard_to_survival([0, 0, 0]), [1, 1, 1])

    def test_product_formula(self):
        np.testing.assert_allclose(hazard_to_survival([0.5, 0.5, 0.5]),
                                   [0.5, 0.25, 0.125])

    def test_certain_event_absorbs(self):
        np.testing.assert_array_equal(hazard_to_survival([1.0, 0.3]), [0.0, 0.0])

    @pytest.mark.parametrize("bad", [[-0.1], [1.1], [np.nan], [0.2, 2.0]])
    def test_domain_error(self, bad):
        with pytest.raises(DataError):
            hazard_to_survival(bad)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
    def test_nonincreasing_and_bounded(self, h):
        s = hazard_to_survival(h)
        assert np.all(s >= 0) and np.all(s <= 1)
        assert np.all(np.diff(s) <= 1e-15)

    @given(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=30))
    def test_round_trip_recovers_hazard(self, h):
        h = np.asarray(h)
        s = hazard_to_survival(h)
        prev = np.concatenate([[1.0], s[:-1]])
        ok = prev > 0
        rec = 1.0 - s[ok] / prev[ok]
        np.testing.assert_allclose(rec, h[ok], rtol=1e-12, atol=1e-12)


class TestTimeGrid:
    def test_step_conversion_six_months(self):
        grid = TimeGrid(step_months=6, j_max=27)
        assert grid.time_to_step(1.0) == 2
        assert grid.time_to_step(8.0) == 16

    def test_monotone(self):
        grid = TimeGrid(step_months=12, j_max=15)
        steps = [grid.time_to_step(t) for t in np.linspace(0, 14, 113)]
        assert all(b >= a for a, b in zip(steps, steps[1:]))

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            TimeGrid(step_months=0, j_max=5)
        with pytest.raises(ConfigError):
            TimeGrid(step_months=6, j_max=0)

    def test_outcome_validation(self):
        grid = TimeGrid(step_months=6, j_max=27)
        EventOutcome(event_step=27, censored=True).validate(grid)
        with pytest.raises(DataError):
            EventOutcome(event_step=0, censored=False).validate(grid)
        with pytest.raises(DataError):
            EventOutcome(event_step=28, censored=False).validate(grid)


def test_off_grid_time_logs_warning(caplog):
    grid = TimeGrid(step_months=6, j_max=27)
    with caplog.at_level("WARNING", logger="longisurv.survival"):
        grid.time_to_step(1.0)                   # exactly on the grid
        assert not caplog.records
        grid.time_to_step(1.1)                   # 2.2 steps, 0.2 off
        assert any("off the" in r.message for r in caplog.records)

import numpy as np
import pytest

from longisurv.errors import ConfigError
from longisurv.svgplot import (Canvas, five_number, grid_box_figure,
                               survival_curves_figure)


class TestFiveNumber:
    def test_quartiles_on_known_data(self):
        values = np.arange(1.0, 102.0)            # 1..101
        lo, q1, med, q3, hi = five_number(values)
        assert med == 51.0
        assert q1 == 26.0 and q3 == 76.0
        assert lo == 1.0 and hi == 101.0          # whiskers within 1.5 IQR

    def test_whiskers_clamp_outliers(self):
        values = np.concatenate([np.linspace(0, 1, 50), [10.0]])
        lo, q1, med, q3, hi = five_number(values)
        assert hi < 10.0                           # the outlier is excluded

    def test_constant_samples(self):
        lo, q1, med, q3, hi = five_number(np.full(20, 0.7))
        assert lo == q1 == med == q3 == hi == 0.7


class TestCanvas:
    def test_fixed_precision_coordinates(self):
        c = Canvas(100, 50)
        c.line(1 / 3, 2 / 3, 10, 20)
        svg = c.render()
        assert 'x1="0.33"' in svg
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>\n")


class TestFigures:
    def test_grid_box_counts_and_determinism(self):
        rng = np.random.default_rng(0)
        cells = [(1.0, 2.0), (2.0, 2.0)]
        models = ["baseline", "longitudinal"]
        groups = {(m, c): rng.uniform(0.6, 0.9, size=80)
                  for m in models for c in cells}
        sig = {(2.0, 2.0): "****"}
        a = grid_box_figure(groups, sig)
        b = grid_box_figure(groups, sig)
        assert a == b
        assert a.count("<rect") == 1 + 4 + 2       # background, boxes, legend
        assert "****" in a
        assert "t=1,dt=2" in a

    def test_lowest_tick_is_never_negative_zero(self):
        # a Brier sample below 0.02 puts the axis floor in (-0.1, 0)
        svg = grid_box_figure({("oracle", (1.0, 1.0)): np.array([0.004, 0.01, 0.03])},
                              ylabel="time-dependent brier")
        assert ">-0.0<" not in svg
        assert ">0.0<" in svg

    def test_grid_box_empty_rejected(self):
        with pytest.raises(ConfigError):
            grid_box_figure({})

    def test_pair_without_samples_has_no_box(self):
        """Cells and models come from ``groups``; a (model, cell) pair with no
        samples, absent or empty, is skipped, and its cell keeps its place."""
        rng = np.random.default_rng(1)
        groups = {("a", (1.0, 2.0)): rng.uniform(0.6, 0.9, 40),
                  ("b", (1.0, 2.0)): rng.uniform(0.6, 0.9, 40),
                  ("b", (2.0, 2.0)): rng.uniform(0.6, 0.9, 40)}
        svg = grid_box_figure(groups)
        assert svg.count("<rect") == 1 + 3 + 2      # background, boxes, legend
        assert "t=1,dt=2" in svg and "t=2,dt=2" in svg
        groups[("a", (2.0, 2.0))] = np.array([])
        assert grid_box_figure(groups) == svg

    def test_survival_curves_polylines(self):
        curves = {"modelA: eye1": np.linspace(1, 0.4, 27),
                  "modelA: eye2": np.linspace(1, 0.7, 27)}
        svg = survival_curves_figure(curves, step_years=0.5)
        assert svg.count("<polyline") == 2
        assert "modelA: eye1" in svg
        assert survival_curves_figure(curves, step_years=0.5) == svg

    def test_survival_curves_empty_rejected(self):
        with pytest.raises(ConfigError):
            survival_curves_figure({}, step_years=0.5)

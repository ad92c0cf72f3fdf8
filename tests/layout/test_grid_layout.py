"""Tests for the window grid and the layout data model."""

import numpy as np
import pytest

from repro.layout import LayerWindows, Layout, WindowGrid, apply_fill, dummy_count


def make_layer(rows=4, cols=5, density=0.4, slack=2000.0, name="M1"):
    shape = (rows, cols)
    return LayerWindows(
        name=name,
        density=np.full(shape, density),
        slack=np.full(shape, slack),
        wire_perimeter=np.full(shape, 1000.0),
        wire_width=np.full(shape, 0.2),
        trench_depth=3000.0,
    )


def make_layout(rows=4, cols=5, layers=2):
    grid = WindowGrid(rows, cols)
    return Layout("t", grid, [make_layer(rows, cols, name=f"M{i}") for i in range(layers)])


class TestWindowGrid:
    def test_shape_and_area(self):
        g = WindowGrid(3, 7, window_um=100.0)
        assert g.shape == (3, 7)
        assert g.num_windows == 21
        assert g.window_area == 10000.0
        assert g.chip_width_um == 700.0
        assert g.chip_height_um == 300.0

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            WindowGrid(0, 5)
        with pytest.raises(ValueError):
            WindowGrid(5, 5, window_um=-1)

    def test_window_of(self):
        g = WindowGrid(4, 4)
        assert g.window_of(0.0, 0.0) == (0, 0)
        assert g.window_of(150.0, 250.0) == (2, 1)
        with pytest.raises(ValueError):
            g.window_of(401.0 * 100, 0.0)


class TestLayout:
    def test_stacks_shapes(self):
        lay = make_layout(layers=3)
        assert lay.shape == (3, 4, 5)
        assert lay.density_stack().shape == (3, 4, 5)
        assert lay.slack_stack().shape == (3, 4, 5)
        assert lay.trench_depths().shape == (3,)

    def test_layer_shape_mismatch_rejected(self):
        grid = WindowGrid(4, 5)
        with pytest.raises(ValueError):
            Layout("bad", grid, [make_layer(3, 5)])

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            Layout("bad", WindowGrid(2, 2), [])

    def test_density_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_layer(density=1.5)
        with pytest.raises(ValueError):
            make_layer(slack=-1.0)

    def test_validate_fill(self):
        lay = make_layout()
        ok = np.full(lay.shape, 1000.0)
        lay.validate_fill(ok)
        with pytest.raises(ValueError):
            lay.validate_fill(np.full(lay.shape, 3000.0))
        with pytest.raises(ValueError):
            lay.validate_fill(-ok)
        with pytest.raises(ValueError):
            lay.validate_fill(ok[:1])


class TestNonFiniteInputs:
    """NaN passes every ``x < 0`` style bound check, so it needs its own."""

    @staticmethod
    def _layer_with(label, value):
        arrays = {
            "density": np.full((4, 5), 0.4),
            "slack": np.full((4, 5), 2000.0),
            "wire_perimeter": np.full((4, 5), 1000.0),
            "wire_width": np.full((4, 5), 0.2),
        }
        arrays[label][1, 2] = value
        return LayerWindows(name="M1", **arrays)

    def test_nan_density_rejected(self):
        with pytest.raises(ValueError, match="density must be finite"):
            self._layer_with("density", np.nan)

    def test_nan_slack_rejected(self):
        with pytest.raises(ValueError, match="slack must be finite"):
            self._layer_with("slack", np.nan)

    def test_inf_width_rejected(self):
        with pytest.raises(ValueError, match="wire_width must be finite"):
            self._layer_with("wire_width", np.inf)

    @pytest.mark.parametrize("label", ["wire_perimeter", "wire_width"])
    def test_negative_wire_stats_rejected(self, label):
        with pytest.raises(ValueError, match=f"{label} must be non-negative"):
            self._layer_with(label, -1.0)

    def test_nan_fill_rejected(self):
        lay = make_layout()
        fill = np.full(lay.shape, 1000.0)
        fill[0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="fill must be finite"):
            lay.validate_fill(fill)
        with pytest.raises(ValueError, match="fill must be finite"):
            apply_fill(lay, fill)


class TestApplyFill:
    def test_no_fill_returns_original_features(self):
        lay = make_layout()
        f = apply_fill(lay)
        np.testing.assert_allclose(f.density, lay.density_stack())
        np.testing.assert_allclose(f.perimeter, lay.perimeter_stack())
        np.testing.assert_allclose(f.wire_width, lay.width_stack())
        assert f.trench_depth.shape == lay.shape

    def test_density_increases_by_fill_fraction(self):
        lay = make_layout()
        fill = np.full(lay.shape, 1000.0)
        f = apply_fill(lay, fill)
        np.testing.assert_allclose(
            f.density, lay.density_stack() + 1000.0 / lay.grid.window_area
        )

    def test_perimeter_increases_with_dummies(self):
        lay = make_layout()
        fill = np.full(lay.shape, 400.0)
        f = apply_fill(lay, fill, dummy_side=2.0)
        n = dummy_count(fill, 2.0)
        np.testing.assert_allclose(f.perimeter, lay.perimeter_stack() + 8.0 * n)

    def test_width_moves_toward_dummy_side(self):
        lay = make_layout()
        fill = lay.slack_stack()  # fill everything
        f = apply_fill(lay, fill, dummy_side=2.0)
        assert np.all(f.wire_width > lay.width_stack())
        assert np.all(f.wire_width < 2.0)

    def test_zero_density_empty_window_keeps_width(self):
        layer = make_layer(density=0.0)
        lay = Layout("t", WindowGrid(4, 5), [layer])
        f = apply_fill(lay, np.zeros(lay.shape))
        np.testing.assert_allclose(f.wire_width[0], layer.wire_width)

    def test_overfull_fill_rejected(self):
        lay = make_layout()
        with pytest.raises(ValueError):
            apply_fill(lay, np.full(lay.shape, 1e9))

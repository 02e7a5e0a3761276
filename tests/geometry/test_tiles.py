"""Tests for the slab-stack detector geometry."""

import numpy as np
import pytest

from repro import constants
from repro.geometry.tiles import DetectorGeometry, Layer, adapt_geometry


class TestLayer:
    def test_thickness(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert layer.thickness == pytest.approx(1.5)

    def test_contains_z_inside(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert layer.contains_z(np.array([-0.5]))[0]

    def test_contains_z_boundaries_inclusive(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert layer.contains_z(np.array([0.0]))[0]
        assert layer.contains_z(np.array([-1.5]))[0]

    def test_contains_z_outside(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert not layer.contains_z(np.array([0.1]))[0]
        assert not layer.contains_z(np.array([-1.6]))[0]


class TestAdaptGeometry:
    def test_default_layer_count(self, geometry):
        assert geometry.num_layers == constants.ADAPT_NUM_LAYERS

    def test_top_at_origin(self, geometry):
        assert geometry.z_top == pytest.approx(0.0)

    def test_height_includes_gaps(self, geometry):
        expected = (
            constants.ADAPT_NUM_LAYERS * constants.ADAPT_TILE_THICKNESS_CM
            + (constants.ADAPT_NUM_LAYERS - 1) * constants.ADAPT_LAYER_GAP_CM
        )
        assert geometry.height == pytest.approx(expected)

    def test_layers_do_not_overlap(self, geometry):
        for upper, lower in zip(geometry.layers[:-1], geometry.layers[1:]):
            assert upper.z_bottom > lower.z_top

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            adapt_geometry(num_layers=0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            adapt_geometry(tile_thickness_cm=-1.0)

    def test_single_layer(self):
        geo = adapt_geometry(num_layers=1)
        assert geo.num_layers == 1
        assert geo.height == pytest.approx(constants.ADAPT_TILE_THICKNESS_CM)


class TestLayerIndex:
    def test_point_in_first_layer(self, geometry):
        idx = geometry.layer_index(np.array([[0.0, 0.0, -0.5]]))
        assert idx[0] == 0

    def test_point_in_gap(self, geometry):
        # Between layer 0 (bottom -1.5) and layer 1 (top -11.5).
        idx = geometry.layer_index(np.array([[0.0, 0.0, -5.0]]))
        assert idx[0] == -1

    def test_point_outside_laterally(self, geometry):
        idx = geometry.layer_index(np.array([[100.0, 0.0, -0.5]]))
        assert idx[0] == -1

    def test_point_above_detector(self, geometry):
        idx = geometry.layer_index(np.array([[0.0, 0.0, 5.0]]))
        assert idx[0] == -1

    def test_every_layer_reachable(self, geometry):
        for i, layer in enumerate(geometry.layers):
            z = 0.5 * (layer.z_top + layer.z_bottom)
            assert geometry.layer_index(np.array([[0.0, 0.0, z]]))[0] == i

    def test_contains_matches_layer_index(self, geometry):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-30, 10, size=(500, 3))
        assert np.array_equal(
            geometry.contains(pts), geometry.layer_index(pts) >= 0
        )


class TestSegmentIntersections:
    def test_vertical_ray_total_path(self, geometry):
        origin = np.array([[0.0, 0.0, 1.0]])
        direction = np.array([[0.0, 0.0, -1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        total = lengths.sum()
        expected = geometry.num_layers * constants.ADAPT_TILE_THICKNESS_CM
        assert total == pytest.approx(expected, rel=1e-9)

    def test_miss_detector(self, geometry):
        origin = np.array([[100.0, 100.0, 1.0]])
        direction = np.array([[0.0, 0.0, -1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        assert lengths.sum() == pytest.approx(0.0)

    def test_oblique_ray_matches_numeric(self, geometry):
        origin = np.array([0.0, 0.0, 1.0])
        direction = np.array([0.3, 0.1, -1.0])
        direction = direction / np.linalg.norm(direction)
        t_in, t_out = geometry.segment_intersections(
            origin[None, :], direction[None, :]
        )
        analytic = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0).sum()
        numeric = geometry.path_length_in_layers(origin, direction, n_steps=20001)
        assert analytic == pytest.approx(numeric, abs=0.05)

    def test_horizontal_ray_through_one_layer(self, geometry):
        layer = geometry.layers[1]
        z = 0.5 * (layer.z_top + layer.z_bottom)
        origin = np.array([[-50.0, 0.0, z]])
        direction = np.array([[1.0, 0.0, 0.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        # Crosses exactly one layer over its full lateral width.
        assert lengths[0, 1] == pytest.approx(2 * layer.half_size)
        assert lengths[0, 0] == pytest.approx(0.0)

    def test_ray_starting_inside_layer(self, geometry):
        layer = geometry.layers[0]
        z = 0.5 * (layer.z_top + layer.z_bottom)
        origin = np.array([[0.0, 0.0, z]])
        direction = np.array([[0.0, 0.0, -1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        # Half the first layer remains ahead.
        assert lengths[0, 0] == pytest.approx(layer.thickness / 2.0, rel=1e-6)

    def test_upward_ray_exits_without_material(self, geometry):
        origin = np.array([[0.0, 0.0, 1.0]])
        direction = np.array([[0.0, 0.0, 1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        assert lengths.sum() == pytest.approx(0.0)


class TestStackValidation:
    @staticmethod
    def _layer(z_top, z_bottom, half_size=20.0):
        return Layer(
            z_top=z_top, z_bottom=z_bottom, half_size=half_size, material=constants.CSI
        )

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one layer"):
            DetectorGeometry(layers=())

    def test_rejects_inverted_layer(self):
        with pytest.raises(ValueError, match="layer 1"):
            DetectorGeometry(
                layers=(self._layer(0.0, -1.5), self._layer(-13.0, -11.5))
            )

    def test_rejects_zero_thickness_layer(self):
        with pytest.raises(ValueError, match="layer 0"):
            DetectorGeometry(layers=(self._layer(0.0, 0.0),))

    @pytest.mark.parametrize("half_size", [0.0, -5.0])
    def test_rejects_non_positive_half_size(self, half_size):
        with pytest.raises(ValueError, match="layer 0: half_size"):
            DetectorGeometry(layers=(self._layer(0.0, -1.5, half_size),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_faces(self, bad):
        with pytest.raises(ValueError, match="layer 0"):
            DetectorGeometry(layers=(self._layer(0.0, -1.5, bad),))
        with pytest.raises(ValueError, match="layer 0"):
            DetectorGeometry(layers=(self._layer(bad, -1.5),))

    def test_rejects_overlapping_layers(self):
        with pytest.raises(ValueError, match="layer 1"):
            DetectorGeometry(
                layers=(self._layer(0.0, -1.5), self._layer(-1.0, -2.5))
            )

    def test_rejects_bottom_up_order(self):
        with pytest.raises(ValueError, match="layer 1"):
            DetectorGeometry(
                layers=(self._layer(-11.5, -13.0), self._layer(0.0, -1.5))
            )

    def test_touching_layers_are_allowed(self):
        geo = DetectorGeometry(
            layers=(self._layer(0.0, -1.5), self._layer(-1.5, -3.0, 15.0))
        )
        assert geo.num_layers == 2
        assert geo.height == pytest.approx(3.0)
        assert adapt_geometry(layer_gap_cm=0.0).num_layers == 4

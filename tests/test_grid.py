"""Tests for the occupancy-grid representation and its serial formats."""

import json
import logging
import re

import numpy as np
import pytest

from uavad.grid import (
    CATEGORIES,
    CATEGORY_GLYPHS,
    CATEGORY_IDS,
    N_CATEGORIES,
    BoundingBox,
    GpsLabel,
    GridSpec,
    GridTensor,
    category_id,
    cell_of_center,
    cell_of_point,
    flatten,
    rasterize,
    read_annotations,
    read_jsonl,
    record_to_scene,
    render_text,
    scene_to_record,
)

SPEC = GridSpec()


def brute_force_cell(cx, cy, spec):
    """Scan every cell and return the one whose pixel window contains (cx, cy).

    Cell (r, c) spans [c*w, (c+1)*w) x [r*h, (r+1)*h), with the last row and
    column closed at the image edge.
    """
    for row in range(spec.cells_y):
        for col in range(spec.cells_x):
            x_lo, x_hi = col * spec.cell_width, (col + 1) * spec.cell_width
            y_lo, y_hi = row * spec.cell_height, (row + 1) * spec.cell_height
            x_ok = x_lo <= cx < x_hi or (col == spec.cells_x - 1 and cx >= x_lo)
            y_ok = y_lo <= cy < y_hi or (row == spec.cells_y - 1 and cy >= y_lo)
            if x_ok and y_ok:
                return row, col
    raise AssertionError(f"no cell contains ({cx}, {cy})")


class TestGridSpec:
    def test_default_geometry(self):
        """A 1080x1080 image over a 16x16 grid gives 67.5-pixel cells."""
        assert SPEC.cell_width == 67.5
        assert SPEC.cell_height == 67.5
        assert (SPEC.cells_y, SPEC.cells_x) == (16, 16)
        assert SPEC.vector_length == 2048

    def test_dict_round_trip(self):
        spec = GridSpec(image_width=640, image_height=480, cells_x=8, cells_y=4)
        assert GridSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_nonpositive_dimensions(self):
        for kwargs in ({"cells_x": 0}, {"cells_y": -1}, {"image_width": 0}):
            with pytest.raises(ValueError):
                GridSpec(**kwargs)

    @pytest.mark.parametrize("value", [16.9, 16.0, True, "16"])
    def test_from_dict_rejects_non_integers(self, value):
        doc = {**SPEC.to_dict(), "cells_x": value}
        with pytest.raises(ValueError, match="cells_x .* must be an integer"):
            GridSpec.from_dict(doc)


class TestCategories:
    def test_category_ids_are_dense_and_ordered(self):
        assert len(CATEGORIES) == N_CATEGORIES == 8
        assert [CATEGORY_IDS[name] for name in CATEGORIES] == list(range(8))
        assert len(CATEGORY_GLYPHS) == 8

    def test_category_id_rejects_unknown(self):
        with pytest.raises(ValueError, match="unicycle"):
            category_id("unicycle")


class TestCellOfPoint:
    def test_known_points(self):
        """Hand-checked pixel positions: floor(coord / 67.5)."""
        assert cell_of_point(540.0, 100.0, SPEC) == (1, 8)
        assert cell_of_point(100.0, 200.0, SPEC) == (2, 1)
        assert cell_of_point(0.0, 0.0, SPEC) == (0, 0)

    def test_far_edge_clamps_to_last_cell(self):
        """Points on the closing image edge belong to the last row/column."""
        assert cell_of_point(1080.0, 1080.0, SPEC) == (15, 15)
        assert cell_of_point(1079.999, 0.0, SPEC) == (0, 15)

    def test_matches_brute_force_membership(self):
        """1000 random points agree with the per-cell membership scan."""
        rng = np.random.default_rng(20240601)
        for _ in range(1000):
            cx = rng.uniform(0, SPEC.image_width)
            cy = rng.uniform(0, SPEC.image_height)
            assert cell_of_point(cx, cy, SPEC) == brute_force_cell(cx, cy, SPEC)

    def test_boundary_pixels_fall_into_the_next_cell(self):
        """A point exactly on an interior cell edge belongs to the higher cell."""
        assert cell_of_point(67.5, 0.0, SPEC) == (0, 1)
        assert cell_of_point(67.5 - 1e-9, 0.0, SPEC) == (0, 0)


class TestRasterize:
    def _random_boxes(self, rng, n):
        boxes = []
        for _ in range(n):
            x0, x1 = np.sort(rng.uniform(0, SPEC.image_width, size=2))
            y0, y1 = np.sort(rng.uniform(0, SPEC.image_height, size=2))
            if x1 <= x0 or y1 <= y0:
                continue
            boxes.append(
                BoundingBox(int(rng.integers(0, N_CATEGORIES)), x0, y0, x1, y1)
            )
        return boxes

    def test_box_centers_match_brute_force(self):
        """1000 random boxes: the marked cell is the brute-force member cell."""
        rng = np.random.default_rng(7)
        boxes = []
        while len(boxes) < 1000:
            boxes.extend(self._random_boxes(rng, 1000 - len(boxes)))
        g = rasterize(boxes, SPEC)
        expected = np.zeros((SPEC.cells_y, SPEC.cells_x, N_CATEGORIES), np.uint8)
        for box in boxes:
            cx, cy = box.center
            row, col = brute_force_cell(cx, cy, SPEC)
            assert cell_of_center(box, SPEC) == (row, col)
            expected[row, col, box.category] = 1
        assert np.array_equal(g.data, expected)

    def test_order_invariance(self):
        """Rasterization is a set operation: shuffling boxes changes nothing."""
        rng = np.random.default_rng(11)
        boxes = self._random_boxes(rng, 60)
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        assert rasterize(boxes, SPEC) == rasterize(shuffled, SPEC)

    def test_duplicates_collapse(self):
        box = BoundingBox(3, 10, 10, 20, 20)
        g = rasterize([box, box, box], SPEC)
        assert g.popcount() == 1

    def test_popcount_bounded_by_box_count(self):
        rng = np.random.default_rng(13)
        boxes = self._random_boxes(rng, 100)
        assert rasterize(boxes, SPEC).popcount() <= len(boxes)

    def test_rejects_bad_category(self):
        with pytest.raises(ValueError, match="category"):
            rasterize([BoundingBox(8, 0, 0, 1, 1)], SPEC)


class TestGridTensor:
    def test_data_is_frozen(self):
        g = GridTensor(SPEC)
        with pytest.raises(ValueError):
            g.data[0, 0, 0] = 1

    def test_with_cell_is_pure(self):
        g = GridTensor(SPEC)
        h = g.with_cell(3, 4, 5)
        assert g.popcount() == 0
        assert h.popcount() == 1
        assert h.occupied_cells() == [(3, 4, 5)]

    def test_rejects_nonbinary_data(self):
        data = np.zeros((16, 16, 8), np.uint8)
        data[0, 0, 0] = 2
        with pytest.raises(ValueError, match="binary"):
            GridTensor(SPEC, data)

    @pytest.mark.parametrize("value", [0.5, 1.7, np.nan])
    def test_rejects_non_binary_floats_before_the_cast(self, value):
        """A cast to uint8 would load 0.5 as 0 and 1.7 as 1."""
        data = np.zeros((16, 16, 8))
        data[2, 3, 4] = value
        with pytest.raises(ValueError, match="binary"):
            GridTensor(SPEC, data)

    def test_loads_bool_and_float_binary_data(self):
        data = np.zeros((16, 16, 8), bool)
        data[2, 3, 4] = True
        assert GridTensor(SPEC, data).occupied_cells() == [(2, 3, 4)]
        assert GridTensor(SPEC, data.astype(np.float64)) == GridTensor(SPEC, data)
        assert GridTensor(SPEC, data).data.dtype == np.uint8

    def test_equality_includes_spec(self):
        small = GridSpec(image_width=64, image_height=64, cells_x=4, cells_y=4)
        assert GridTensor(SPEC) != GridTensor(small)


class TestFlatten:
    def test_index_convention(self):
        """flatten uses index = (row * cells_x + col) * N + category."""
        g = GridTensor(SPEC).with_cell(2, 5, 3)
        v = flatten(g)
        assert v.sum() == 1
        assert v[(2 * 16 + 5) * 8 + 3] == 1

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            data = (rng.random((16, 16, 8)) < 0.05).astype(np.uint8)
            g = GridTensor(SPEC, data)
            assert GridTensor(SPEC, flatten(g).reshape(16, 16, 8)) == g


class TestRenderText:
    def test_shape_and_alphabet(self):
        g = GridTensor(SPEC).with_cell(0, 1, CATEGORY_IDS["pedestrian"])
        g = g.with_cell(2, 2, 0).with_cell(2, 2, 1)
        text = render_text(g)
        lines = text.split("\n")
        assert len(lines) == 16
        assert all(len(line) == 16 for line in lines)
        assert lines[0][1] == "p"
        assert lines[2][2] == "*"
        assert set("".join(lines)) <= set(".*" + "".join(CATEGORY_GLYPHS))


class TestSceneRecords:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            data = (rng.random((16, 16, 8)) < 0.04).astype(np.uint8)
            g = GridTensor(SPEC, data)
            gps = GpsLabel(41.1, 29.0)
            g2, gps2 = record_to_scene(json.loads(scene_to_record(g, gps)), SPEC)
            assert g2 == g
            assert gps2 == gps

    def test_cells_sorted_by_name_then_position(self):
        g = GridTensor(SPEC).with_cell(0, 0, 4).with_cell(5, 5, 0)
        cells = json.loads(scene_to_record(g, GpsLabel(0, 0)))["cells"]
        assert cells == sorted(cells)

    def test_record_with_out_of_range_cell_rejected(self):
        record = {"gps": [0, 0], "cells": [["car", 16, 0]]}
        with pytest.raises(ValueError, match="outside grid"):
            record_to_scene(record, SPEC)

    @pytest.mark.parametrize("row, col", [(1.5, 2), (1, 2.0), (True, 2), (1, "2")])
    def test_record_with_non_integer_cell_rejected(self, row, col):
        record = {"gps": [0, 0], "cells": [["car", row, col]]}
        with pytest.raises(ValueError, match="must be integers"):
            record_to_scene(record, SPEC)


def record_dict(g: GridTensor, gps: GpsLabel) -> dict:
    """A scene record as a dict, cells sorted by (name, row, col)."""
    rows, cols, cats = (a.tolist() for a in np.nonzero(g.data))
    cells = sorted([CATEGORIES[cat], row, col] for row, col, cat in zip(rows, cols, cats))
    return {"gps": [gps.latitude, gps.longitude], "cells": cells}


SMALL_SPEC = GridSpec(image_width=150, image_height=90, cells_x=5, cells_y=3)


class TestSceneRecordText:
    """``scene_to_record`` writes the text of ``json.dumps`` of the record."""

    @pytest.mark.parametrize("spec", [SPEC, SMALL_SPEC], ids=["16x16", "3x5"])
    @pytest.mark.parametrize("fill", ["empty", "full", "sparse"])
    @pytest.mark.parametrize(
        "lat, lon", [(-0.0, 41.0), (-90, 180), (41.0, -0.0), (41.1005, 29.000712345678)],
        ids=["negative-zero-lat", "int-bounds", "negative-zero-lon", "fractions"],
    )
    def test_equals_json_dumps_of_the_record(self, spec, fill, lat, lon):
        shape = (spec.cells_y, spec.cells_x, N_CATEGORIES)
        data = {
            "empty": np.zeros(shape, dtype=np.uint8),
            "full": np.ones(shape, dtype=np.uint8),
            "sparse": (np.random.default_rng(3).random(shape) < 0.05).astype(np.uint8),
        }[fill]
        g, gps = GridTensor(spec, data), GpsLabel(lat, lon)
        assert scene_to_record(g, gps) == json.dumps(record_dict(g, gps))

    @pytest.mark.parametrize("extra", [None, {}, {"task": "task1_public", "injected": ["car", 2, 3]}])
    def test_extra_fields_follow_the_cells(self, extra):
        g = GridTensor(SMALL_SPEC).with_cell(2, 3, 0).with_cell(0, 4, 5)
        gps = GpsLabel(41.1, 29.0)
        assert scene_to_record(g, gps, extra) == json.dumps({**record_dict(g, gps), **(extra or {})})


# GPS fields that are not a list of exactly two JSON numbers.
BAD_GPS = {
    "strings": ["41.1", "29.0"], "bool": [True, 29.0], "three-numbers": [41.1, 29.0, 7],
    "empty": [],
}


class TestGpsField:
    @pytest.mark.parametrize("gps", BAD_GPS.values(), ids=BAD_GPS)
    def test_scene_record_rejects_it_naming_the_line(self, tmp_path, gps):
        path = tmp_path / "scenes.jsonl"
        lines = [{"gps": [41.1, 29.0], "cells": []}, {"gps": gps, "cells": [["car", 1, 2]]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        it = read_jsonl(str(path), lambda record, _: record_to_scene(record, SPEC))
        assert next(it)[1] == GpsLabel(41.1, 29.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: .*exactly two numbers"):
            next(it)

    @pytest.mark.parametrize("gps", [[41, 29], [41.5, -29], [-90, 180.0]])
    def test_ints_and_floats_are_read_as_floats(self, gps):
        _, label = record_to_scene({"gps": gps, "cells": []}, SPEC)
        assert (label.latitude, label.longitude) == tuple(float(v) for v in gps)
        assert type(label.latitude) is float and type(label.longitude) is float


class TestJsonl:
    def test_line_numbers_in_errors(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        it = read_jsonl(str(path), lambda record, position: (position, record))
        assert next(it) == (0, {"ok": 1})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: "):
            next(it)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"a": 1}\n\n{"b": 2}\n\nnot json\n')
        it = read_jsonl(str(path), lambda record, position: (position, record))
        assert [next(it), next(it)] == [(0, {"a": 1}), (1, {"b": 2})]
        with pytest.raises(ValueError, match="line 6: "):
            next(it)


class TestReadAnnotations:
    def _record(self, boxes):
        return json.dumps(
            {
                "image_width": 1080,
                "image_height": 1080,
                "gps": [41.0, 29.0],
                "boxes": boxes,
            }
        )

    def _read(self, tmp_path, text):
        path = tmp_path / "annotations.jsonl"
        path.write_text(text)
        return read_annotations(str(path))

    def test_parses_boxes(self, tmp_path):
        line = self._record(
            [{"category": "car", "x_min": 0, "y_min": 0, "x_max": 50, "y_max": 50}]
        )
        spec, gps, boxes = next(self._read(tmp_path, line))
        assert spec == SPEC
        assert gps == GpsLabel(41.0, 29.0)
        assert boxes[0].category == CATEGORY_IDS["car"]

    @pytest.mark.parametrize(
        "field, value, message",
        [("boxes", [{"category": "tank", "x_min": 0, "y_min": 0, "x_max": 5, "y_max": 5}], "tank"),
         ("image_height", None, "image_height"),
         ("gps", [41.0], "exactly two numbers"),
         ("image_width", 1080.9, "image_width 1080.9 must be an integer"),
         ("image_height", "1080", "image_height '1080' must be an integer"),
         ("image_width", True, "image_width True must be an integer"),
         ("boxes", [{"category": "car", "x_min": "10", "y_min": 0, "x_max": 50, "y_max": 50}],
          "x_min '10' must be a number"),
         ("boxes", [{"category": "car", "x_min": 10, "y_min": True, "x_max": 50, "y_max": 50}],
          "y_min True must be a number"),
         *(("gps", gps, "exactly two numbers") for gps in BAD_GPS.values())],
        ids=["unknown-category", "missing-image-height", "short-gps", "fractional-width",
             "string-height", "bool-width", "string-x_min", "bool-y_min",
             *(f"gps-{name}" for name in BAD_GPS)],
    )
    def test_malformed_record_names_its_line(self, tmp_path, field, value, message):
        good = self._record([])
        doc = json.loads(good)
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        text = good + "\n" + json.dumps(doc) + "\n"
        path = re.escape(str(tmp_path / "annotations.jsonl"))
        with pytest.raises(ValueError, match=f"^{path}: line 2: .*{message}"):
            list(self._read(tmp_path, text))

    def test_out_of_bounds_boxes_dropped_with_warning(self, tmp_path, caplog):
        line = self._record(
            [
                {"category": "car", "x_min": 0, "y_min": 0, "x_max": 50, "y_max": 50},
                {"category": "bus", "x_min": -5, "y_min": 0, "x_max": 50, "y_max": 50},
            ]
        )
        with caplog.at_level(logging.WARNING, logger="uavad.grid"):
            _, _, boxes = next(self._read(tmp_path, line))
        assert len(boxes) == 1
        assert "dropping out-of-bounds box" in caplog.text

"""Seeded plane inputs: valid, reproducible, and the same work for every seed."""
from coverbench import jsonio
from coverbench.exhaustion import normalize, validate_exhaustion
from coverbench.layered import verify_layered

from inputs import (
    FAN_ENDS,
    fan_exhaustion,
    ladder_exhaustion,
    staircase_document,
    write_plane_inputs,
)


def _bytes(graph) -> str:
    return jsonio.dumps(jsonio.exhaustion_to_json(graph))


def test_generated_exhaustions_are_valid():
    for seed in (0, 1, 12345):
        for graph in (fan_exhaustion(seed), ladder_exhaustion(seed, width=6, depth=5)):
            report = validate_exhaustion(graph)
            assert report.ok, report.problems


def test_same_seed_same_bytes():
    assert _bytes(fan_exhaustion(7)) == _bytes(fan_exhaustion(7))
    assert _bytes(ladder_exhaustion(7)) == _bytes(ladder_exhaustion(7))
    assert _bytes(fan_exhaustion(7)) != _bytes(fan_exhaustion(8))


def test_seed_only_relabels():
    a, b = ladder_exhaustion(1, width=5, depth=6), ladder_exhaustion(2, width=5, depth=6)
    shape = lambda g: sorted((p.level, p.genus, len(p.inner), len(p.outer)) for p in g.pieces)
    assert shape(a) == shape(b)
    assert len(normalize(a).pieces) == len(normalize(b).pieces)


def test_small_fan_normalizes_to_its_end_count():
    normal = normalize(fan_exhaustion(3, ends=12))
    assert normal.stable_depth == 12
    assert sum(1 for p in normal.pieces if len(p.outer) == 2) == 11


def test_staircase_document_verifies():
    cover = staircase_document(5, levels=40)
    assert verify_layered(cover).ok
    assert cover.degree == 41


def test_plane_inputs_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    write_plane_inputs(first, 11)
    write_plane_inputs(second, 11)
    names = sorted(p.name for p in first.iterdir())
    assert names == ["fan-cover.json", "fan-normal.json", "fan.json", "ladder.json", "staircase.json"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    normal = jsonio.exhaustion_from_json(jsonio.loads((first / "fan-normal.json").read_text()))
    assert normal.stable_depth == FAN_ENDS

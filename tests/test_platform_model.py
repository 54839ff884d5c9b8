"""Platform model graph: places, edges, JSON round trips, validation."""

import json

import pytest

from repro.platform.model import PlatformModel
from repro.platform.place import MEMORY_PLACE_TYPES, PlaceType
from repro.util.errors import PlatformError


def build_small():
    m = PlatformModel("small")
    m.num_workers = 2
    mem = m.add_place("mem", PlaceType.SYSTEM_MEM)
    gpu = m.add_place("gpu0", PlaceType.GPU_MEM, {"device": 0})
    nic = m.add_place("nic", PlaceType.INTERCONNECT)
    m.add_edge(mem, gpu)
    m.add_edge(mem, nic)
    return m


class TestPlaces:
    def test_place_ids_dense(self):
        m = build_small()
        assert [p.place_id for p in m] == [0, 1, 2]

    def test_place_lookup_by_name(self):
        m = build_small()
        assert m.place("gpu0").kind is PlaceType.GPU_MEM

    def test_unknown_name_raises(self):
        with pytest.raises(PlatformError, match="no place named"):
            build_small().place("nope")

    def test_duplicate_name_rejected(self):
        m = build_small()
        with pytest.raises(PlatformError, match="duplicate"):
            m.add_place("mem", PlaceType.NVM)

    def test_empty_name_rejected(self):
        m = PlatformModel()
        with pytest.raises(PlatformError):
            m.add_place("", PlaceType.SYSTEM_MEM)

    def test_is_memory_classification(self):
        m = build_small()
        assert m.place("mem").is_memory
        assert m.place("gpu0").is_memory
        assert not m.place("nic").is_memory

    def test_memory_types_cover_storage(self):
        assert PlaceType.NVM in MEMORY_PLACE_TYPES
        assert PlaceType.DISK in MEMORY_PLACE_TYPES
        assert PlaceType.L1_CACHE not in MEMORY_PLACE_TYPES

    def test_place_type_from_string_error_lists_valid(self):
        with pytest.raises(PlatformError, match="system_mem"):
            PlaceType.from_string("bogus")


class TestEdgesAndPaths:
    def test_neighbors_sorted(self):
        m = build_small()
        names = [p.name for p in m.place("mem").neighbors()]
        assert names == ["gpu0", "nic"]

    def test_self_edge_rejected(self):
        m = build_small()
        with pytest.raises(PlatformError, match="self-edge"):
            m.add_edge(m.place("mem"), m.place("mem"))

    def test_cross_model_edge_rejected(self):
        a, b = build_small(), build_small()
        with pytest.raises(PlatformError):
            a.add_edge(a.place("mem"), b.place("mem"))

    def test_shortest_path_trivial(self):
        m = build_small()
        assert m.shortest_path(m.place("mem"), m.place("mem")) == [m.place("mem")]

    def test_shortest_path_two_hops(self):
        m = build_small()
        path = m.shortest_path(m.place("gpu0"), m.place("nic"))
        assert [p.name for p in path] == ["gpu0", "mem", "nic"]

    def test_disconnected_raises(self):
        m = PlatformModel()
        a = m.add_place("a", PlaceType.SYSTEM_MEM)
        b = m.add_place("b", PlaceType.NVM)
        with pytest.raises(PlatformError, match="not connected"):
            m.shortest_path(a, b)

    def test_has_edge(self):
        m = build_small()
        assert m.has_edge(m.place("mem"), m.place("gpu0"))
        assert not m.has_edge(m.place("gpu0"), m.place("nic"))


class TestValidation:
    def test_valid_model_passes(self):
        build_small().validate()

    def test_disconnected_model_fails(self):
        m = PlatformModel()
        m.add_place("a", PlaceType.SYSTEM_MEM)
        m.add_place("b", PlaceType.NVM)
        with pytest.raises(PlatformError, match="not connected"):
            m.validate()

    def test_empty_model_fails(self):
        with pytest.raises(PlatformError, match="no places"):
            PlatformModel().validate()

    def test_two_interconnects_fail(self):
        m = PlatformModel()
        mem = m.add_place("mem", PlaceType.SYSTEM_MEM)
        n1 = m.add_place("n1", PlaceType.INTERCONNECT)
        n2 = m.add_place("n2", PlaceType.INTERCONNECT)
        m.add_edge(mem, n1)
        m.add_edge(mem, n2)
        with pytest.raises(PlatformError, match="interconnect"):
            m.validate()

    def test_bad_worker_count(self):
        m = build_small()
        m.num_workers = 0
        with pytest.raises(PlatformError, match="num_workers"):
            m.validate()


class TestFreezeAndCopy:
    def test_freeze_blocks_mutation(self):
        m = build_small().freeze()
        with pytest.raises(PlatformError, match="frozen"):
            m.add_place("x", PlaceType.NVM)
        with pytest.raises(PlatformError, match="frozen"):
            m.add_edge(m.place("mem"), m.place("gpu0"))

    def test_copy_is_unfrozen_and_structurally_equal(self):
        m = build_small().freeze()
        c = m.copy()
        assert not c.frozen
        assert len(c) == len(m)
        assert c.num_workers == m.num_workers
        assert c.has_edge(c.place("mem"), c.place("gpu0"))
        c.add_place("extra", PlaceType.DISK)  # mutable

    def test_copy_does_not_share_properties(self):
        m = build_small()
        c = m.copy()
        c.place("gpu0").properties["device"] = 7
        assert m.place("gpu0").properties["device"] == 0


class TestJson:
    def test_round_trip(self):
        m = build_small()
        m2 = PlatformModel.from_json(m.to_json())
        assert len(m2) == len(m)
        assert m2.num_workers == m.num_workers
        assert m2.place("gpu0").properties["device"] == 0
        assert m2.has_edge(m2.place("mem"), m2.place("nic"))

    def test_round_trip_via_file(self, tmp_path):
        m = build_small()
        path = str(tmp_path / "platform.json")
        m.save(path)
        m2 = PlatformModel.load(path)
        assert m2.to_json_dict() == m.to_json_dict()

    def test_json_is_valid_and_stable(self):
        data = json.loads(build_small().to_json())
        assert {p["name"] for p in data["places"]} == {"mem", "gpu0", "nic"}
        assert sorted(data["edges"]) == data["edges"]

    def test_malformed_json_raises(self):
        with pytest.raises(PlatformError, match="invalid JSON"):
            PlatformModel.from_json("{nope")

    def test_missing_places_key_raises(self):
        with pytest.raises(PlatformError, match="malformed"):
            PlatformModel.from_json_dict({"name": "x"})

    def test_bad_place_type_raises(self):
        with pytest.raises(PlatformError):
            PlatformModel.from_json_dict(
                {"places": [{"name": "a", "type": "warp_core"}]}
            )

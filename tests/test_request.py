"""MemoryRequest / RequestFactory tests."""

from repro.mem.request import AccessKind, MemoryRequest, RequestFactory


class TestAccessKind:
    def test_write_classification(self):
        assert not AccessKind.LOAD.is_write
        assert AccessKind.STORE.is_write
        assert AccessKind.WRITEBACK.is_write


class TestMemoryRequest:
    def make(self):
        return MemoryRequest(
            rid=1, kind=AccessKind.LOAD, line=0x40, sm_id=2, warp_id=3)

    def test_stamp_and_latency(self):
        r = self.make()
        r.timestamps["a"] = 100
        r.timestamps["b"] = 130
        assert r.latency("a", "b") == 30

    def test_latency_missing_hop_is_none(self):
        r = self.make()
        r.timestamps["a"] = 100
        assert r.latency("a", "b") is None
        assert r.latency("z", "a") is None

    def test_is_write_mirrors_kind(self):
        r = self.make()
        assert not r.is_write
        wb = MemoryRequest(
            rid=2, kind=AccessKind.WRITEBACK, line=0, sm_id=-1, warp_id=-1)
        assert wb.is_write

    def test_repr_mentions_direction(self):
        r = self.make()
        assert "req" in repr(r)
        r.is_response = True
        assert "resp" in repr(r)


class TestRequestFactory:
    def test_ids_unique_and_monotone(self):
        factory = RequestFactory()
        rids = [
            factory.make(AccessKind.LOAD, i, 0, 0, now=i).rid
            for i in range(10)
        ]
        assert rids == sorted(set(rids))

    def test_issue_time_recorded(self):
        factory = RequestFactory()
        r = factory.make(AccessKind.STORE, 5, 1, 2, now=42)
        assert r.issued_at == 42
        assert r.sm_id == 1 and r.warp_id == 2

    def test_factories_independent(self):
        a, b = RequestFactory(), RequestFactory()
        assert a.make(AccessKind.LOAD, 0, 0, 0, 0).rid == 0
        assert b.make(AccessKind.LOAD, 0, 0, 0, 0).rid == 0

"""Unit tests for bid records and the bidding log."""


from repro.ads.bidding import BidLog, BidLogRecord, BidResponse
from repro.geo.point import Point


def record(device, x=0.0, y=0.0, t=0.0):
    return BidLogRecord(
        device_id=device,
        reported_location=Point(x, y),
        timestamp=t,
        matched_campaigns=0,
    )


class TestBidLog:
    def test_append_and_count(self):
        log = BidLog()
        log.append(record("a"))
        log.append(record("b"))
        assert len(log) == 2

    def test_devices(self):
        log = BidLog()
        log.append(record("a"))
        log.append(record("b"))
        log.append(record("a"))
        assert sorted(log.devices()) == ["a", "b"]

    def test_records_for_preserves_order(self):
        log = BidLog()
        log.append(record("a", t=1.0))
        log.append(record("b", t=2.0))
        log.append(record("a", t=3.0))
        recs = log.records_for("a")
        assert [r.timestamp for r in recs] == [1.0, 3.0]

    def test_records_for_unknown_device(self):
        assert BidLog().records_for("nope") == []

    def test_observations_array(self):
        log = BidLog()
        log.append(record("a", x=1.0, y=2.0))
        log.append(record("a", x=3.0, y=4.0))
        obs = log.observations_for("a")
        assert obs.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_observations_empty_device(self):
        assert BidLog().observations_for("nope").shape == (0, 2)

    def test_iteration(self):
        log = BidLog()
        log.append(record("a"))
        assert len(list(log)) == 1


class TestBidResponse:
    def test_filled_flag(self):
        assert not BidResponse("r", ads=()).filled

"""Tests for Detector base machinery and RecordStore."""

import pytest

from repro.detect.base import (
    Detection,
    DetectionLabel,
    Detector,
    RecordStore,
    TotalOrderDetector,
)
from repro.predicates.relational import RelationalPredicate


def phi():
    return RelationalPredicate({"x": 0, "y": 1}, lambda e: e["x"] + e["y"] > 5)


def test_store_dedupes_by_key(rec):
    store = RecordStore()
    r = rec(0, "x", 1, true_time=0.0)
    assert store.add(r)
    assert not store.add(r)
    assert len(store) == 1
    assert store.duplicates == 1


def test_store_all_sorted_by_pid_seq(rec):
    store = RecordStore()
    r1 = rec(1, "y", 1, true_time=0.0)
    r0 = rec(0, "x", 1, true_time=1.0)
    store.add(r1)
    store.add(r0)
    assert [r.pid for r in store.all()] == [0, 1]


def test_store_by_process(rec):
    store = RecordStore()
    store.add(rec(1, "y", 1, true_time=0.0))
    store.add(rec(1, "y", 2, true_time=1.0))
    store.add(rec(0, "x", 1, true_time=2.0))
    per = store.by_process(3)
    assert [len(q) for q in per] == [1, 2, 0]
    assert [r.seq for r in per[1]] == [1, 2]


def test_detector_requires_initials():
    with pytest.raises(ValueError):
        class D(Detector):
            pass
        D(phi(), {"x": 0})     # y missing


def test_feed_many(rec):
    class D(Detector):
        def finalize(self):
            return []
    d = D(phi(), {"x": 0, "y": 0})
    d.feed_many([rec(0, "x", 1, true_time=0.0), rec(1, "y", 1, true_time=1.0)])
    assert len(d.store) == 2


def test_total_order_replay_snapshots_env_per_emission(rec):
    """The shared replay mutates one live environment but hands each
    detection its own copy, taken at the rising edge."""
    class D(TotalOrderDetector):
        stamp = "physical"

        @staticmethod
        def _sort_key(r):
            return (r.physical, r.pid, r.seq)

    d = D(phi(), {"x": 0, "y": 0})
    d.feed(rec(0, "x", 9, true_time=0.0, physical=1.0))    # rising edge
    d.feed(rec(0, "x", 0, true_time=1.0, physical=2.0))    # falls
    d.feed(rec(1, "y", 6, true_time=2.0, physical=3.0))    # rises again
    out = d.finalize()
    assert [det.env for det in out] == [{"x": 9, "y": 0}, {"x": 0, "y": 6}]
    assert all(det.detail is None and det.firm for det in out)
    assert d.finalize() == out                             # idempotent


def test_detection_firm_property(rec):
    r = rec(0, "x", 1, true_time=0.0)
    d1 = Detection("d", r, {}, DetectionLabel.FIRM)
    d2 = Detection("d", r, {}, DetectionLabel.BORDERLINE)
    assert d1.firm and not d2.firm


def test_attach_taps_process_streams():
    from repro.core.process import ClockConfig
    from repro.core.system import PervasiveSystem, SystemConfig

    s = PervasiveSystem(SystemConfig(n_processes=2, clocks=ClockConfig.strobes()))
    s.world.create("room", temp=20)
    s.processes[1].track("temp", "room", "temp", initial=20)

    class D(Detector):
        def finalize(self):
            return []
    d = D(RelationalPredicate({"temp": 1}, lambda e: e["temp"] > 30), {"temp": 20})
    d.attach(s.processes[0])           # root taps local + strobes
    s.world.set_attribute("room", "temp", 31)
    s.run()
    assert len(d.store) == 1           # arrived via strobe at p0


def _family_detector(family):
    from repro.detect.online import (
        OnlineScalarStrobeDetector,
        OnlineVectorStrobeDetector,
    )
    from repro.detect.physical import PhysicalClockDetector
    from repro.detect.strobe_scalar import ScalarStrobeDetector
    from repro.detect.strobe_vector import VectorStrobeDetector
    from repro.sim.kernel import Simulator

    initials = {"x": 0, "y": 0}
    online = {
        "vector_strobe": OnlineVectorStrobeDetector,
        "scalar_strobe": OnlineScalarStrobeDetector,
    }
    if family in online:
        return online[family](Simulator(), phi(), initials, delta=0.1)
    offline = {
        "offline_vector_strobe": VectorStrobeDetector,
        "offline_scalar_strobe": ScalarStrobeDetector,
        "physical": PhysicalClockDetector,
    }
    return offline[family](phi(), initials)


@pytest.mark.parametrize("family", [
    "vector_strobe", "scalar_strobe",
    "offline_vector_strobe", "offline_scalar_strobe", "physical",
])
def test_missing_stamp_is_rejected(rec, family):
    """A record lacking the family's stamp (but carrying every other)
    fails loudly: offline detectors at finalize, online detectors at
    feed — before the record reaches the store."""
    import dataclasses

    det = _family_detector(family)
    good = rec(0, "x", 1, true_time=0.0, scalar=1, vector=(1, 0), physical=0.0)
    bad = dataclasses.replace(
        rec(1, "y", 9, true_time=0.5, scalar=2, vector=(1, 1), physical=0.5),
        **{det.stamp: None},
    )
    det.feed(good)
    if family in ("vector_strobe", "scalar_strobe"):
        with pytest.raises(ValueError, match=det.stamp):
            det.feed(bad)
        assert det.store.keys() == [good.key()]
    else:
        det.feed(bad)
        with pytest.raises(ValueError, match=det.stamp):
            det.finalize()

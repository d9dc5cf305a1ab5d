"""Instrumentation must be a pure observer.

The determinism contract: attaching a registry, tracer, and sampler to
a run changes **nothing** about the simulation — the record stream
(values, stamps, ordering), the detections, and the final sim time are
bit-identical to an uninstrumented run with the same seed.  This is
why read metrics only read, pushed hooks guard on ``is None``, and the
sampler rides the kernel's post-event hook instead of scheduling
events.
"""

from repro.detect.online import OnlineVectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay
from repro.obs import MetricsRegistry, Observability, SpanTracer, instrument_system
from repro.scenarios.builders import OBS_SCENARIOS, build_scenario
from repro.scenarios.smart_office import SmartOffice, SmartOfficeConfig

DELTA = 0.2
DURATION = 60.0
SEED = 11


def run_office(instrument: bool):
    office = SmartOffice(SmartOfficeConfig(
        seed=SEED, delay=DeltaBoundedDelay(DELTA),
        temp_threshold=28.0, temp_base=27.5, temp_sigma=1.5,
    ))
    obs = None
    if instrument:
        obs = Observability(tracer=SpanTracer(office.system.sim))
        instrument_system(office.system, obs.registry, sample_every=100)
    detector = OnlineVectorStrobeDetector(
        office.system.sim, office.predicate, office.initials, delta=DELTA,
    )
    office.attach_detector(detector)
    detector.start()
    office.run(DURATION)
    detections = detector.finalize()
    return office, detector, detections, obs


def test_instrumentation_does_not_perturb_the_run():
    office_a, det_a, detections_a, _ = run_office(instrument=False)
    office_b, det_b, detections_b, obs = run_office(instrument=True)

    # Identical record streams: same values, same stamps, same order.
    assert det_a.store.all() == det_b.store.all()
    assert detections_a == detections_b
    assert office_a.system.sim.now == office_b.system.sim.now
    assert office_a.system.sim.processed_events == office_b.system.sim.processed_events
    assert office_a.system.net.stats.sent == office_b.system.net.stats.sent

    # ...while the instrumented run actually recorded something.
    reg = obs.registry
    assert reg.get("kernel.events_fired").value == office_b.system.sim.processed_events
    assert reg.get("net.sent").value == office_b.system.net.stats.sent
    assert reg.get("net.delivered").value == office_b.system.net.stats.delivered
    assert reg.get("detect.records").value == len(det_b.store.all())
    assert len(reg.samples) > 0


def read_sources(system, detector):
    """Every read metric of a run, taken straight from the state it
    reads (no faults here, so no clock was ever replaced)."""
    stats = system.net.stats
    strobes = [
        c for p in system.processes
        for c in (p.strobe_scalar, p.strobe_vector) if c is not None
    ]
    return {
        "kernel.events_fired": system.sim.processed_events,
        "kernel.compactions": system.sim.compactions,
        "net.sent": stats.sent,
        "net.delivered": stats.delivered,
        "net.dropped_loss": stats.dropped_loss,
        "net.dropped_partition": stats.dropped_partition,
        "net.dropped_crashed": stats.dropped_crashed,
        "net.dropped_burst": stats.dropped_burst,
        "net.payload_units": stats.total_units,
        "clock.strobe.emitted": sum(c.relevant_events for c in strobes),
        "clock.strobe.merged": sum(c.strobes_received for c in strobes),
        "clock.strobe.payload_units": sum(
            c.relevant_events * c.strobe_size() for c in strobes
        ),
        "detect.records": len(detector.store),
        "detect.processed": detector.frontier_snapshot()["processed"],
        "detect.late_records": detector.late_records,
        "detect.quarantine_events": detector.quarantine_events,
    }


def typed(values):
    return sorted((k, type(v).__name__, v) for k, v in values.items())


def check_profile(profile):
    scenario, phi, initials = build_scenario(profile, seed=SEED, delta=DELTA)
    system = scenario.system
    reg = MetricsRegistry()
    instrument_system(system, reg, sample_every=20)
    detector = OnlineVectorStrobeDetector(system.sim, phi, initials, delta=DELTA)
    scenario.attach_detector(detector)
    detector.start()
    checked = []

    def check(_ev) -> None:             # runs after the sampler's hook
        if len(reg.samples) > len(checked):
            expected = read_sources(system, detector)
            values = reg.samples[-1][2]
            assert typed({k: values[k] for k in expected}) == typed(expected)
            checked.append(len(reg.samples))

    system.sim.add_post_hook(check)
    scenario.run(DURATION)
    detector.finalize()
    assert len(checked) > 5
    final = reg.scalar_values()
    expected = read_sources(system, detector)
    assert typed({k: final[k] for k in expected}) == typed(expected)

    # Conservation: every sent message was delivered, dropped, or is
    # still in flight — a live delivery event — at the run horizon.
    in_flight = sum(
        1 for entry in system.sim.calendar_snapshot()[1:]
        if str(entry[3]).startswith("deliver:")
    )
    dropped = sum(final[f"net.dropped_{why}"]
                  for why in ("loss", "partition", "crashed", "burst"))
    assert final["net.sent"] == final["net.delivered"] + dropped + in_flight
    # The delay histogram is observed at dispatch (when the delivery is
    # scheduled), so it covers every send that was not dropped there —
    # including any still in flight at the horizon.
    assert final["net.delay_s"] == final["net.sent"] - dropped


def test_obs_counters_agree_with_transport_accounting():
    """Every read counter equals the state it reads, value and type, at
    every sample and at the end, on all four profiles; and the
    transport's counts conserve messages."""
    for profile in OBS_SCENARIOS:
        check_profile(profile)


def test_bare_registry_is_accepted_by_instrument_system():
    office = SmartOffice(SmartOfficeConfig(seed=3))
    reg = MetricsRegistry()
    obs = instrument_system(office.system, reg)
    assert obs.registry is reg
    office.run(20.0)
    assert reg.get("kernel.events_fired").value > 0

"""Tests for loss models."""

import numpy as np
import pytest

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.obs import MetricsRegistry, Probe
from repro.sim.kernel import Simulator


def test_no_loss_never_drops():
    rng = np.random.default_rng(0)
    m = NoLoss()
    assert not any(m.drops(rng) for _ in range(100))


def test_bernoulli_zero_and_one():
    rng = np.random.default_rng(0)
    assert not any(BernoulliLoss(0.0).drops(rng) for _ in range(100))
    assert all(BernoulliLoss(1.0).drops(rng) for _ in range(100))


def test_bernoulli_rate():
    rng = np.random.default_rng(1)
    m = BernoulliLoss(0.3)
    drops = sum(m.drops(rng) for _ in range(20000))
    assert abs(drops / 20000 - 0.3) < 0.02


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)
    with pytest.raises(ValueError):
        BernoulliLoss(1.1)


def test_gilbert_elliott_stationary_rate():
    rng = np.random.default_rng(2)
    m = GilbertElliottLoss(p_gb=0.05, p_bg=0.25, p_good=0.0, p_bad=0.6)
    drops = sum(m.drops(rng) for _ in range(100000))
    expected = m.stationary_loss_rate()
    assert abs(drops / 100000 - expected) < 0.02


def test_gilbert_elliott_burstiness():
    """Losses cluster: P(drop | previous drop) > P(drop)."""
    rng = np.random.default_rng(3)
    m = GilbertElliottLoss(p_gb=0.02, p_bg=0.1, p_good=0.0, p_bad=0.9)
    seq = [m.drops(rng) for _ in range(100000)]
    overall = np.mean(seq)
    after_drop = np.mean([seq[i + 1] for i in range(len(seq) - 1) if seq[i]])
    assert after_drop > overall * 2


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_gb=1.5)
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_bad=-0.2)


def test_gilbert_elliott_degenerate_no_transitions():
    m = GilbertElliottLoss(p_gb=0.0, p_bg=0.0, p_good=0.0, p_bad=1.0)
    rng = np.random.default_rng(0)
    assert not any(m.drops(rng) for _ in range(100))   # stuck in good
    assert m.stationary_loss_rate() == 0.0


def test_gilbert_elliott_burst_length_distribution():
    """Bad-state sojourns are geometric with mean 1/p_bg (the classic
    Gilbert model's 1/r mean burst) — measured over a long fixed-seed
    chain via the exposed state."""
    p_bg = 0.2
    m = GilbertElliottLoss(p_gb=0.1, p_bg=p_bg, p_good=0.0, p_bad=1.0)
    rng = np.random.default_rng(7)
    bursts = []
    current = 0
    for _ in range(200_000):
        m.drops(rng)
        if m.in_bad_state:
            current += 1
        elif current:
            bursts.append(current)
            current = 0
    assert len(bursts) > 1000
    mean = float(np.mean(bursts))
    assert abs(mean - m.mean_burst_length()) < 0.05 * m.mean_burst_length()
    assert m.mean_burst_length() == 1.0 / p_bg


def test_gilbert_elliott_mean_burst_length_degenerate():
    assert GilbertElliottLoss(p_bg=0.0).mean_burst_length() == float("inf")


def test_gilbert_elliott_start_bad():
    """start_bad pins the chain in the bad state from the first
    message — the shape a time-windowed burst fault wants."""
    rng = np.random.default_rng(0)
    m = GilbertElliottLoss(p_gb=0.0, p_bg=0.0, p_good=0.0, p_bad=1.0,
                           start_bad=True)
    assert m.in_bad_state
    assert all(m.drops(rng) for _ in range(50))
    assert "start_bad=True" in repr(m)
    assert "start_bad" not in repr(GilbertElliottLoss())


def test_gilbert_elliott_bad_state_gauge_reads_the_chain():
    """A chain started bad reports ``net.loss.in_bad_state`` = 1.0 with
    no transition at all; ``net.loss.drops`` reads the transport's
    count of the drops the model decided."""
    reg = MetricsRegistry()
    m = GilbertElliottLoss(p_gb=0.0, p_bg=0.0, p_bad=0.9, start_bad=True)
    net = Network(Simulator(), Topology.complete(2), loss=m,
                  rng=np.random.default_rng(0))
    for node in (0, 1):
        net.register(node, lambda msg: None)
    net.bind_probe(Probe(reg))
    for _ in range(100):
        net.send(0, 1, "x")
    drops = net.stats.dropped_loss
    assert m.in_bad_state and drops > 50
    assert reg.get("net.loss.drops").value == drops
    gauge = reg.get("net.loss.in_bad_state").value
    assert gauge == 1.0 and isinstance(gauge, float)
    assert reg.get("net.loss.burst_transitions").value == 0

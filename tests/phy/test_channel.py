"""Unit tests for the channel model, estimation and CFO handling."""

import numpy as np
import pytest

from repro.phy.channel import (
    ChannelTracker,
    Link,
    MIMOChannel,
    apply_cfo,
    awgn,
    estimate_cfo,
    estimate_channel,
    noise_power_for_snr,
    rayleigh_channel,
)
from repro.phy.channel.estimation import drift_from
from repro.phy.preamble import preamble_matrix


class TestRayleigh:
    def test_shape_and_gain(self, rng):
        h = rayleigh_channel(3, 2, rng, gain=4.0)
        assert h.shape == (3, 2)
        big = rayleigh_channel(200, 200, rng, gain=4.0)
        assert np.isclose(np.mean(np.abs(big) ** 2), 4.0, rtol=0.1)

    def test_awgn_power(self, rng):
        n = awgn((2, 5000), 0.25, rng)
        assert np.isclose(np.mean(np.abs(n) ** 2), 0.25, rtol=0.1)

    def test_noise_power_for_snr(self):
        assert np.isclose(noise_power_for_snr(20.0, 1.0), 0.01)


class TestCfo:
    def test_rotation_rate(self):
        s = np.ones(100, dtype=complex)
        out = apply_cfo(s, 0.01)
        assert np.isclose(np.angle(out[50] * np.conj(out[49])), 2 * np.pi * 0.01)

    def test_start_offset_coherence(self):
        """Applying CFO in two chunks equals applying it once."""
        s = np.arange(1, 101, dtype=complex)
        whole = apply_cfo(s, 0.003)
        parts = np.concatenate(
            [apply_cfo(s[:40], 0.003, start=0), apply_cfo(s[40:], 0.003, start=40)]
        )
        assert np.allclose(whole, parts)

    def test_magnitude_preserved(self, rng):
        s = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.allclose(np.abs(apply_cfo(s, 0.1)), np.abs(s))


class TestMIMOChannel:
    def test_single_link_exact(self, rng):
        h = rayleigh_channel(2, 2, rng)
        ch = MIMOChannel([Link(h=h)], noise_power=0.0, rng=rng)
        tx = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        assert np.allclose(ch.receive([tx]), h @ tx)

    def test_superposition(self, rng):
        h1, h2 = rayleigh_channel(2, 2, rng), rayleigh_channel(2, 2, rng)
        ch = MIMOChannel([Link(h=h1), Link(h=h2)], noise_power=0.0, rng=rng)
        t1 = rng.standard_normal((2, 30)) + 0j
        t2 = rng.standard_normal((2, 30)) + 0j
        assert np.allclose(ch.receive([t1, t2]), h1 @ t1 + h2 @ t2)

    def test_silent_transmitter(self, rng):
        h1, h2 = rayleigh_channel(2, 2, rng), rayleigh_channel(2, 2, rng)
        ch = MIMOChannel([Link(h=h1), Link(h=h2)], noise_power=0.0, rng=rng)
        t1 = rng.standard_normal((2, 30)) + 0j
        assert np.allclose(ch.receive([t1, None]), h1 @ t1)

    def test_sample_offsets_pad(self, rng):
        h = rayleigh_channel(2, 2, rng)
        ch = MIMOChannel([Link(h=h, sample_offset=10)], noise_power=0.0, rng=rng)
        tx = np.ones((2, 20), dtype=complex)
        out = ch.receive([tx])
        assert out.shape[1] == 30
        assert np.allclose(out[:, :10], 0)

    def test_mixed_lengths(self, rng):
        h1, h2 = rayleigh_channel(2, 2, rng), rayleigh_channel(2, 2, rng)
        ch = MIMOChannel([Link(h=h1), Link(h=h2, sample_offset=5)], noise_power=0.0, rng=rng)
        out = ch.receive([np.ones((2, 10), dtype=complex), np.ones((2, 20), dtype=complex)])
        assert out.shape[1] == 25

    def test_antenna_mismatch_raises(self, rng):
        ch = MIMOChannel([Link(h=rayleigh_channel(2, 2, rng))], rng=rng)
        with pytest.raises(ValueError):
            ch.receive([np.ones((3, 10), dtype=complex)])

    def test_wrong_count_raises(self, rng):
        ch = MIMOChannel([Link(h=rayleigh_channel(2, 2, rng))], rng=rng)
        with pytest.raises(ValueError):
            ch.receive([None, None])

    def test_noise_added(self, rng):
        h = rayleigh_channel(2, 2, rng)
        ch = MIMOChannel([Link(h=h)], noise_power=1.0, rng=rng)
        out = ch.receive([np.zeros((2, 2000), dtype=complex)])
        assert np.isclose(np.mean(np.abs(out) ** 2), 1.0, rtol=0.15)


class TestEstimation:
    def test_noiseless_exact(self, rng):
        p = preamble_matrix(2, 64)
        h = rayleigh_channel(2, 2, rng)
        assert np.allclose(estimate_channel(h @ p, p), h, atol=1e-10)

    def test_noisy_close(self, rng):
        p = preamble_matrix(2, 256)
        h = rayleigh_channel(2, 2, rng)
        y = h @ p + 0.05 * (rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256)))
        err = np.linalg.norm(estimate_channel(y, p) - h) / np.linalg.norm(h)
        assert err < 0.1

    def test_length_mismatch(self, rng):
        p = preamble_matrix(2, 64)
        with pytest.raises(ValueError):
            estimate_channel(np.zeros((2, 32)), p)

    def test_cfo_estimation_accuracy(self, rng):
        p = preamble_matrix(1, 128)[0]
        true_cfo = 3.3e-4
        rx = apply_cfo(0.9 * p, true_cfo)
        rx += 0.02 * (rng.standard_normal(128) + 1j * rng.standard_normal(128))
        est = estimate_cfo(rx[None, :], p[None, :])
        assert abs(est - true_cfo) < 5e-5

    def test_cfo_too_short(self):
        with pytest.raises(ValueError):
            estimate_cfo(np.ones((1, 1)), np.ones((1, 1)))


class TestTracker:
    def test_first_update_reports_drift(self, rng):
        t = ChannelTracker()
        assert t.update("a", rayleigh_channel(2, 2, rng)) is True

    def test_stable_channel_no_drift(self, rng):
        t = ChannelTracker(alpha=0.5, drift_threshold=0.2)
        h = rayleigh_channel(2, 2, rng)
        t.update("a", h)
        assert t.update("a", h) is False
        assert np.allclose(t.get("a"), h)

    def test_large_change_reports_drift(self, rng):
        t = ChannelTracker(alpha=1.0, drift_threshold=0.1)
        t.update("a", rayleigh_channel(2, 2, rng))
        assert t.update("a", 5 * rayleigh_channel(2, 2, rng)) is True

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -0.1]
    )
    def test_bad_drift_threshold_rejected(self, value):
        """A NaN or infinite threshold would silently never report drift."""
        with pytest.raises(ValueError, match="drift_threshold"):
            ChannelTracker(drift_threshold=value)

    def test_contains(self, rng):
        t = ChannelTracker()
        assert "a" not in t
        t.update("a", rayleigh_channel(2, 2, rng))
        assert "a" in t

    def test_every_write_is_counted(self, rng):
        """``writes`` moves on every store, so the fast engine's kept
        tracking mirror can tell that an estimate changed behind it."""
        t = ChannelTracker()
        h = rayleigh_channel(2, 2, rng)
        t.store(["a"], [h])
        t.update("a", 2 * h)
        t.update("b", h)  # first sight of a key: a seed
        t.store(["a", "c"], [3 * h, h])
        t.forget("b")
        assert t.writes == 5
        assert np.array_equal(t.get("a"), 3 * h) and "b" not in t

    def test_estimate_drift_metric(self, rng):
        h = rayleigh_channel(2, 2, rng)
        assert np.isclose(drift_from(1.1 * h, h), 0.1, atol=1e-9)
        assert drift_from(h, np.zeros_like(h)) == float("inf")

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ChannelTracker(alpha=0.0)

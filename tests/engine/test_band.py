"""Equivalence tests for the evaluator on banded (wideband) sources.

The acceptance contract of the wideband layer: the evaluator's one
route, every bin a row of the solver batch, must match the per-bin
scalar reference loop to <= 1e-6 dB SINR across 2-4 antennas, and a
one-bin band must be the flat probe itself.
"""

import numpy as np
import pytest

from repro.core.plans import ChannelSet
from repro.engine import BatchedGroupEvaluator
from repro.engine.evaluator import solver_rows
from repro.phy.channel.selective import MultiTapChannel, exponential_pdp

from reference.evaluator import ScalarGroupEvaluator, StaticChannelSource

APS = (0, 1, 2)
CLIENTS = (100, 101, 102, 103)
GROUP = (100, 101, 102)

#: Satellite acceptance bound: batched vs per-bin reference in dB.
MAX_DB = 1e-6

N_FFT = 64


def banded_channels(seed, n_antennas=2, n_bins=8, delay_spread=2.0, clients=CLIENTS):
    rng = np.random.default_rng(seed)
    bins = np.linspace(1, N_FFT - 1, n_bins, dtype=int)
    pdp = exponential_pdp(6, delay_spread)
    out = {}
    for a in APS:
        for c in clients:
            ch = MultiTapChannel.random(n_antennas, n_antennas, pdp, rng)
            out[(a, c)] = ch.frequency_response(N_FFT)[bins]
    return out


def true_band(channels, group=GROUP):
    """The ``(B, 3, 3, M, M)`` true band of ``group`` (``[b, i, j]``: bin
    ``b`` from AP ``i`` to client ``group[j]``)."""
    return np.ascontiguousarray(
        np.array([[channels[(a, c)] for c in group] for a in APS]).transpose(2, 0, 1, 3, 4)
    )


def make_pair(seed, n_antennas=2, alignment="per_subcarrier", n_bins=8):
    source = StaticChannelSource(
        banded_channels(seed, n_antennas, n_bins=n_bins), APS
    )
    return (
        ScalarGroupEvaluator(source, APS, alignment=alignment),
        BatchedGroupEvaluator(source, APS, alignment=alignment),
    )


def db(x):
    return 10 * np.log10(x)


class TestBandSolverEquivalence:
    @pytest.mark.parametrize("n_antennas", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rate_matches_per_bin_reference(self, seed, n_antennas):
        scalar, batched = make_pair(seed, n_antennas)
        assert np.isclose(
            batched.evaluate(GROUP), scalar.evaluate(GROUP), rtol=1e-9
        )

    @pytest.mark.parametrize("n_antennas", [2, 3, 4])
    def test_transmit_sinrs_within_acceptance_bound(self, n_antennas):
        """Per-bin per-packet SINRs agree to <= 1e-6 dB (satellite)."""
        scalar, batched = make_pair(7, n_antennas)
        true = true_band(banded_channels(17, n_antennas, clients=GROUP))
        actual_s, ideal_s = scalar.transmit_sinrs(GROUP, true)
        actual_b, ideal_b = batched.transmit_sinrs(GROUP, true)
        assert actual_s.shape == (8, 3)
        assert np.max(np.abs(db(actual_s) - db(actual_b))) <= MAX_DB
        assert np.max(np.abs(db(ideal_s) - db(ideal_b))) <= MAX_DB

    @pytest.mark.parametrize("n_antennas", [2, 3])
    def test_flat_anchor_mode_matches_reference(self, n_antennas):
        scalar, batched = make_pair(3, n_antennas, alignment="flat_anchor")
        assert np.isclose(
            batched.evaluate(GROUP), scalar.evaluate(GROUP), rtol=1e-9
        )
        true = true_band(banded_channels(23, n_antennas, clients=GROUP))
        actual_s, _ = scalar.transmit_sinrs(GROUP, true)
        actual_b, _ = batched.transmit_sinrs(GROUP, true)
        assert np.max(np.abs(db(actual_s) - db(actual_b))) <= MAX_DB

    def test_per_subcarrier_beats_anchor_under_dispersion(self):
        """The §6c claim at engine level: independent per-bin alignment
        outscores one band-wide anchor solution on selective channels."""
        per_bin = make_pair(5, alignment="per_subcarrier")[1]
        anchor = make_pair(5, alignment="flat_anchor")[1]
        assert per_bin.evaluate(GROUP) > anchor.evaluate(GROUP)

    def test_modes_coincide_on_flat_band(self):
        """Zero delay spread: every bin is the anchor bin."""
        per_bin = make_pair(9, alignment="per_subcarrier")[1]
        anchor = make_pair(9, alignment="flat_anchor")[1]
        # Rebuild with flat (spread 0) channels.
        src = StaticChannelSource(banded_channels(9, delay_spread=0.0), APS)
        per_bin = BatchedGroupEvaluator(src, APS, alignment="per_subcarrier")
        anchor = BatchedGroupEvaluator(src, APS, alignment="flat_anchor")
        assert np.isclose(per_bin.evaluate(GROUP), anchor.evaluate(GROUP), rtol=1e-9)


class TestFlatRoutePreserved:
    def test_one_bin_rows_are_a_view_in_the_flat_layout(self):
        """B = 1: the solver gets the client-major gather as a view, with
        the strides of the flat probe's ``swapaxes(1, 2)`` view."""
        rng = np.random.default_rng(4)
        bel = rng.standard_normal((5, 3, 1, 3, 2, 2)) + 1j * rng.standard_normal(
            (5, 3, 1, 3, 2, 2)
        )
        h = solver_rows(bel)
        flat = np.swapaxes(bel[:, :, 0], 1, 2)
        assert np.shares_memory(h, bel)
        assert h.shape == flat.shape and h.strides == flat.strides
        assert np.array_equal(h, flat)

    def test_one_bin_source_is_the_flat_source(self):
        """A one-bin banded source and the flat matrices it holds give
        byte-identical rates and cache entries."""
        band = banded_channels(2, n_bins=1)
        flat = ChannelSet({pair: h[0] for pair, h in band.items()})
        entries = []
        for channels in (band, flat):
            batched = BatchedGroupEvaluator(StaticChannelSource(channels, APS), APS)
            entries.append((batched.evaluate(GROUP), batched._cache[GROUP]))
        (rate_b, entry_b), (rate_f, entry_f) = entries
        assert rate_b == rate_f
        assert entry_f.encodings.shape == (1, 3, 2)
        for name in ("encodings", "sinrs", "w_bel"):
            assert np.array_equal(getattr(entry_b, name), getattr(entry_f, name))


class TestBandedInterface:
    def test_memoisation_still_keyed_on_versions(self):
        _, batched = make_pair(0)
        batched.evaluate(GROUP)
        batched.evaluate(GROUP)
        assert batched.cache_info() == {"hits": 1, "misses": 1, "entries": 1}

    def test_unknown_alignment_rejected(self):
        src = StaticChannelSource(banded_channels(0), APS)
        with pytest.raises(ValueError):
            BatchedGroupEvaluator(src, APS, alignment="oracle")

    def test_flat_anchor_entry_holds_the_anchor_on_every_bin(self):
        src = StaticChannelSource(banded_channels(6), APS)
        batched = BatchedGroupEvaluator(src, APS, alignment="flat_anchor")
        batched.evaluate(GROUP)
        entry = batched._cache[GROUP]
        assert entry.encodings.shape == (8, 3, 2)
        assert entry.sinrs.shape == (8, 3)
        assert entry.w_bel.shape == (8, 3, 2)
        assert (entry.encodings == entry.encodings[4]).all()

"""Signal-level IAC sessions: the sample-accurate pipeline.

This module is the reproduction of the paper's GNU-Radio prototype.  It
runs an :class:`~repro.core.plans.AlignmentSolution` end to end at the
sample level:

1. each packet's bits are FEC-encoded, modulated, and prefixed with a
   packet-specific pseudo-noise preamble;
2. each transmitter superimposes its packets' streams through their
   encoding vectors (power split across its packets);
3. the channel mixes all transmitters at each receiver, applying per-pair
   carrier frequency offsets, optional per-transmitter timing offsets
   (no symbol synchronisation, §6c), and AWGN;
4. receivers follow the decode schedule: project onto the decoding vector,
   locate the preamble, estimate and remove residual CFO and gain, track
   phase, demodulate, FEC-decode and CRC-check;
5. decoded packets travel over the (simulated) Ethernet to later stages,
   which reconstruct and subtract them before decoding their own packets.

Every measured quantity the paper reports -- per-packet SNR, achievable
rate, Ethernet bytes -- is collected in the returned
:class:`SessionReport`.

The pipeline has two engines, selected by :attr:`SignalConfig.engine`:

* ``"fast"`` (default) -- the vectorized signal path: block phase tracking
  (:class:`_BlockPhaseTracker`), batched Viterbi across a decode stage's
  same-length packets (:meth:`ConvolutionalCode.decode_many`), the
  table-driven byte-stepped FEC encoder and the tiled scrambler keystream;
* ``"reference"`` -- the original scalar path (per-symbol PLL, per-packet
  Viterbi, per-bit encoder, stepped LFSR), kept as the readable
  specification the fast engine is equivalence-tested and benchmarked
  against (the ``signal`` case of ``repro bench`` records the speedup in
  ``BENCH.json``).

Both engines produce bit-identical decoded payloads; measured SNRs agree
to floating-point noise (the block tracker iterates its chunked recurrence
to the same decision fixed point the scalar PLL walks to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.cancellation import Reconstruction, subtract_refined
from repro.core.decoder import max_sinr_vector
from repro.core.plans import AlignmentSolution, ChannelSet
from repro.phy.bits import Scrambler
from repro.phy.channel.estimation import estimate_cfo, estimate_channel
from repro.phy.channel.model import Link, MIMOChannel, apply_cfo
from repro.phy.fec import ConvolutionalCode, Hamming74
from repro.phy.modulation import Modulator, get_modulator
from repro.phy.modulation.ofdm import OFDM
from repro.phy.packet import Packet
from repro.phy.preamble import detect_preamble, pn_sequence, preamble_matrix
from repro.utils.rng import default_rng


@dataclass
class SignalConfig:
    """Knobs of the sample-level pipeline.

    Attributes
    ----------
    modulation:
        Scheme name (see :func:`repro.phy.modulation.get_modulator`).
    fec:
        ``None`` (uncoded), ``"conv"`` (802.11 rate-1/2 Viterbi) or
        ``"hamming"``.
    noise_power:
        Receiver AWGN power per antenna.
    cfo_spread:
        Per-node oscillator offset drawn uniformly in ``+/- cfo_spread``
        (normalised to the sample rate).  Pair CFO is the difference of the
        two nodes' offsets.
    max_timing_offset:
        Per-transmitter start-time offset in samples, drawn uniformly in
        ``[0, max_timing_offset]`` -- transmitters are *not* symbol
        synchronised (§6c).
    estimate_channels:
        When True, receivers work from noisy least-squares channel estimates
        obtained in a training phase (each transmitter sounds the channel
        alone); when False they use genie channel knowledge.
    engine:
        ``"fast"`` (default) for the vectorized pipeline (block phase
        tracking, batched Viterbi, table-driven encoder), ``"reference"``
        for the scalar path the fast engine is validated against.
    """

    modulation: str = "bpsk"
    fec: Optional[str] = None
    noise_power: float = 1e-3
    cfo_spread: float = 0.0
    max_timing_offset: int = 0
    estimate_channels: bool = False
    engine: str = "fast"

    def modulator(self) -> Modulator:
        return get_modulator(self.modulation)

    def make_fec(self):
        """Return the configured FEC code (shared across sessions).

        Codes are immutable after construction (their trellis/byte tables
        are precomputed once), so instances are cached module-wide instead
        of rebuilt for every session.
        """
        if self.fec is None:
            return None
        fec = _FEC_CACHE.get(self.fec)
        if fec is None:
            if self.fec not in FEC_CODES:
                raise ValueError(
                    f"unknown fec {self.fec!r}; use None or one of {', '.join(FEC_CODES)}"
                )
            fec = _FEC_CACHE[self.fec] = FEC_CODES[self.fec]()
        return fec


#: Every :attr:`SignalConfig.fec` name besides ``None``, with its code.
FEC_CODES: Dict[str, type] = {"conv": ConvolutionalCode, "hamming": Hamming74}

#: Every value :attr:`SignalConfig.engine` accepts.
SIGNAL_ENGINES = ("fast", "reference")

#: fec name -> shared stateless code instance (see SignalConfig.make_fec).
_FEC_CACHE: Dict[str, object] = {}

#: Per-packet synchronisation preamble length in samples.
PREAMBLE_LENGTH = 64
#: Preamble length of the training phase's channel sounding.
TRAINING_PREAMBLE_LENGTH = 128


@dataclass
class PacketOutcome:
    """Result of decoding one packet at signal level."""

    packet_id: int
    rx: int
    delivered: bool
    snr_db: float
    bit_errors_precrc: int = 0
    cancelled: int = 0


@dataclass
class SessionReport:
    """Aggregate outcome of one signal-level IAC round."""

    outcomes: List[PacketOutcome] = field(default_factory=list)
    ethernet_bytes: int = 0
    decoded: Dict[int, Packet] = field(default_factory=dict)

    @property
    def all_delivered(self) -> bool:
        return all(o.delivered for o in self.outcomes)

    @property
    def delivery_count(self) -> int:
        return sum(1 for o in self.outcomes if o.delivered)

    def snr_db_of(self, packet_id: int) -> float:
        for o in self.outcomes:
            if o.packet_id == packet_id:
                return o.snr_db
        raise KeyError(f"packet {packet_id} not in report")

    @property
    def total_rate(self) -> float:
        """Achievable rate (Eq. 9) from the measured per-packet SNRs."""
        snrs = [10 ** (o.snr_db / 10.0) for o in self.outcomes if o.delivered]
        return float(np.sum(np.log2(1.0 + np.asarray(snrs)))) if snrs else 0.0


def _packet_preamble(packet_id: int, length: int) -> np.ndarray:
    """Per-packet PN preamble (distinct seeds keep cross-correlation low)."""
    return pn_sequence(length, seed=0xACED + 0x9E37 * (packet_id + 1))


class _PhaseTracker:
    """Second-order decision-directed PLL over constellation symbols.

    Tracks both phase and residual frequency so that imperfect preamble CFO
    estimates (inevitable for weak packets) do not accumulate into phase
    run-away over long payloads.
    """

    def __init__(self, modulator: Modulator, bandwidth: float = 0.06, freq_gain: float = 0.002):
        self._mod = modulator
        self._alpha = bandwidth
        self._beta = freq_gain
        self._phase = 0.0
        self._freq = 0.0

    def track(self, symbols: np.ndarray) -> np.ndarray:
        out = np.empty_like(symbols)
        for i, raw in enumerate(symbols):
            corrected = raw * np.exp(-1j * self._phase)
            decision_bits = self._mod.demodulate(np.array([corrected]))
            decision = self._mod.modulate(decision_bits)[0]
            if abs(decision) > 1e-12 and abs(corrected) > 1e-12:
                error = float(np.angle(corrected * np.conj(decision)))
                self._phase += self._alpha * error
                self._freq += self._beta * error
            self._phase += self._freq
            out[i] = corrected
        return out


class _BlockPhaseTracker:
    """Chunked-recurrence equivalent of :class:`_PhaseTracker`.

    Same second-order decision-directed loop, restructured for speed: a
    whole block of symbols is corrected along the predicted phase
    trajectory, the block's decisions come from two vectorised modulator
    calls (instead of two per symbol), and the scalar PLL recurrence then
    runs over the precomputed decision angles in plain float arithmetic.
    Each block is re-checked at the phases the recurrence produced and
    re-solved until the decisions are a fixed point (almost always the
    second pass), at which point the update sequence is exactly the scalar
    tracker's and the output matches it to floating-point noise.  A block
    whose decisions keep churning (deep in the low-SNR regime where the
    loop is decision-starved anyway) falls back to the exact per-symbol
    walk, so equivalence holds unconditionally.  The scalar tracker stays
    as the reference implementation; the two are equivalence-tested on
    CFO-impaired payloads.
    """

    def __init__(
        self,
        modulator: Modulator,
        bandwidth: float = 0.06,
        freq_gain: float = 0.002,
        block_size: int = 64,
        max_passes: int = 6,
    ):
        self._mod = modulator
        self._alpha = bandwidth
        self._beta = freq_gain
        self._block = block_size
        self._max_passes = max_passes
        self._phase = 0.0
        self._freq = 0.0

    def track(self, symbols: np.ndarray) -> np.ndarray:
        out = np.empty_like(symbols)
        two_pi = 2.0 * np.pi
        pi = np.pi
        alpha, beta = self._alpha, self._beta
        phase, freq = self._phase, self._freq
        mod = self._mod
        for begin in range(0, symbols.size, self._block):
            blk = symbols[begin : begin + self._block]
            n = blk.size
            valid = (np.abs(blk) > 1e-12).tolist()
            pred = phase + freq * np.arange(n)
            ph, fr = phase, freq
            prev_decisions = None
            converged = False
            for _ in range(self._max_passes):
                decisions = mod.modulate(mod.demodulate(blk * np.exp(-1j * pred)))
                if prev_decisions is not None and np.array_equal(
                    decisions, prev_decisions
                ):
                    converged = True  # phases and decisions are consistent
                    break
                prev_decisions = decisions
                psi = np.angle(blk * np.conj(decisions)).tolist()
                dec_ok = (np.abs(decisions) > 1e-12).tolist()
                phases = [0.0] * n
                ph, fr = phase, freq
                for i in range(n):
                    phases[i] = ph
                    if valid[i] and dec_ok[i]:
                        error = (psi[i] - ph + pi) % two_pi - pi
                        ph += alpha * error
                        fr += beta * error
                    ph += fr
                pred = np.asarray(phases)
            if converged:
                out[begin : begin + n] = blk * np.exp(-1j * pred)
            else:
                # Decision churn (low SNR): exact per-symbol walk instead.
                ph, fr = phase, freq
                for i in range(n):
                    corrected = blk[i] * np.exp(-1j * ph)
                    decision = mod.modulate(mod.demodulate(np.array([corrected])))[0]
                    if abs(decision) > 1e-12 and abs(corrected) > 1e-12:
                        error = float(np.angle(corrected * np.conj(decision)))
                        ph += alpha * error
                        fr += beta * error
                    ph += fr
                    out[begin + i] = corrected
            phase, freq = ph, fr
        self._phase, self._freq = phase, freq
        return out


def _make_phase_tracker(modulator: Modulator, engine: str):
    if engine == "reference":
        return _PhaseTracker(modulator)
    return _BlockPhaseTracker(modulator)


def _packet_scrambler(packet_id: int) -> "Scrambler":
    """Per-packet scrambler seed (as 802.11 randomises per frame).

    Scrambling decorrelates concurrent packets' on-air bit streams --
    frame headers and padding would otherwise correlate same-length
    packets, which biases the cancellation refit and leaves residual
    interference.
    """
    seed = ((0x5B * (packet_id + 1)) & 0x7F) or 0x1F
    return Scrambler(seed=seed)


def _apply_scrambler(bits: np.ndarray, packet_id: int, engine: str) -> np.ndarray:
    """(De)scramble with the packet's keystream (an XOR, so its own inverse).

    The reference engine steps the LFSR bit by bit; the fast engine tiles
    the cached keystream period.  Both produce identical bits.
    """
    scrambler = _packet_scrambler(packet_id)
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if engine == "reference":
        return bits ^ scrambler._keystream_reference(bits.size)
    return bits ^ scrambler._keystream(bits.size)


def _encode_bits(packet: Packet, fec, packet_id: int, engine: str = "fast") -> np.ndarray:
    bits = packet.to_bits()
    if fec is None:
        coded = bits
    elif engine == "reference" and hasattr(fec, "encode_reference"):
        coded = fec.encode_reference(bits)
    else:
        coded = fec.encode(bits)
    return _apply_scrambler(coded, packet_id, engine)


def _fec_decode_stage(
    streams: Dict[int, np.ndarray],
    frame_bits: Dict[int, np.ndarray],
    fec,
    engine: str,
) -> Dict[int, Optional[np.ndarray]]:
    """Descramble and FEC-decode one decode stage's recovered bit streams.

    With the fast engine and a convolutional code, same-length streams are
    stacked and run through one batched Viterbi pass
    (:meth:`ConvolutionalCode.decode_many`, bit-identical to per-packet
    ``decode``); everything else decodes per packet.  A stream too short
    for its frame maps to ``None`` (delivery failure).
    """
    decoded: Dict[int, Optional[np.ndarray]] = {}
    batch: List[tuple] = []  # (pid, descrambled, n_frame_bits)
    for pid, bits in streams.items():
        n_bits = frame_bits[pid].size
        n_coded = n_bits if fec is None else fec.encoded_length(n_bits)
        if bits.size < n_coded:
            decoded[pid] = None
            continue
        descrambled = _apply_scrambler(bits[:n_coded], pid, engine)
        if fec is None:
            decoded[pid] = descrambled
        elif engine == "fast" and isinstance(fec, ConvolutionalCode):
            batch.append((pid, descrambled, n_bits))
        else:
            try:
                decoded[pid] = fec.decode(descrambled)[:n_bits]
            except (ValueError, IndexError):
                decoded[pid] = None
    by_length: Dict[int, List[tuple]] = {}
    for item in batch:
        by_length.setdefault(item[1].size, []).append(item)
    for group in by_length.values():
        rows = fec.decode_many(np.stack([stream for _, stream, _ in group]))
        for (pid, _, n_bits), row in zip(group, rows):
            decoded[pid] = row[:n_bits]
    return decoded


def run_session(
    solution: AlignmentSolution,
    channels: ChannelSet,
    payloads: Dict[int, Packet],
    config: SignalConfig,
    rng=None,
) -> SessionReport:
    """Run one IAC transmission group through the sample-level pipeline.

    Parameters
    ----------
    solution:
        Encoding vectors and decode schedule (uplink or downlink).
    channels:
        True channels between every transmitter and receiver involved.
    payloads:
        ``packet_id -> Packet`` for every packet in the solution.
    config:
        Pipeline knobs (modulation, FEC, noise, CFO, offsets, ...).
    rng:
        Seed or generator for noise/CFO/offset draws.
    """
    rng = default_rng(rng)
    if config.engine not in SIGNAL_ENGINES:
        raise ValueError(
            f"unknown engine {config.engine!r}; use one of {', '.join(SIGNAL_ENGINES)}"
        )
    modulator = config.modulator()
    fec = config.make_fec()

    missing = {p.packet_id for p in solution.packets} - set(payloads)
    if missing:
        raise ValueError(f"missing payloads for packets {sorted(missing)}")

    tx_nodes = sorted({p.tx for p in solution.packets})
    rx_nodes = sorted({stage.rx for stage in solution.schedule})

    # Per-node oscillator offsets; pair CFO is the difference (so that one
    # transmitter has a *consistent* offset to every receiver, which the
    # cancellation step relies on).
    osc: Dict[int, float] = {}
    for node in set(tx_nodes) | set(rx_nodes):
        osc[node] = float(rng.uniform(-config.cfo_spread, config.cfo_spread)) if config.cfo_spread else 0.0
    timing: Dict[int, int] = {
        tx: int(rng.integers(0, config.max_timing_offset + 1)) if config.max_timing_offset else 0
        for tx in tx_nodes
    }

    # ------------------------------------------------------------------ #
    # Build per-packet sample streams and per-transmitter antenna blocks.
    # ------------------------------------------------------------------ #
    frame_bits: Dict[int, np.ndarray] = {}
    packet_samples: Dict[int, np.ndarray] = {}
    for p in solution.packets:
        pkt = payloads[p.packet_id]
        bits = _encode_bits(pkt, fec, p.packet_id, config.engine)
        frame_bits[p.packet_id] = pkt.to_bits()
        symbols = modulator.modulate(bits)
        preamble = _packet_preamble(p.packet_id, PREAMBLE_LENGTH)
        packet_samples[p.packet_id] = np.concatenate([preamble, symbols])

    n_longest = max(s.size for s in packet_samples.values())
    tx_blocks: Dict[int, np.ndarray] = {}
    amplitudes: Dict[int, float] = {}
    for tx in tx_nodes:
        n_ant = channels.tx_antennas(tx)
        block = np.zeros((n_ant, n_longest), dtype=complex)
        for pid in solution.packets_of_tx(tx):
            amp = solution.tx_amplitude(pid)
            amplitudes[pid] = amp
            v = solution.encoding[pid]
            s = packet_samples[pid]
            block[:, : s.size] += amp * np.outer(v, s)
        tx_blocks[tx] = block

    # ------------------------------------------------------------------ #
    # Channel: every receiver hears every transmitter.
    # ------------------------------------------------------------------ #
    received: Dict[int, np.ndarray] = {}
    for rx in rx_nodes:
        links = [
            Link(h=channels.h(tx, rx), cfo=osc[tx] - osc[rx], sample_offset=timing[tx])
            for tx in tx_nodes
        ]
        medium = MIMOChannel(links, noise_power=config.noise_power, rng=rng)
        received[rx] = medium.receive([tx_blocks[tx] for tx in tx_nodes])

    # ------------------------------------------------------------------ #
    # Training phase: each transmitter sounds the channel alone so each
    # receiver can estimate H and the pair CFO (paper §8a).
    # ------------------------------------------------------------------ #
    believed: Dict[tuple, np.ndarray] = {}
    cfo_est: Dict[tuple, float] = {}
    for tx in tx_nodes:
        n_ant = channels.tx_antennas(tx)
        training = preamble_matrix(n_ant, TRAINING_PREAMBLE_LENGTH, seed=0xBEEF + tx)
        for rx in rx_nodes:
            if config.estimate_channels:
                link = Link(h=channels.h(tx, rx), cfo=osc[tx] - osc[rx])
                medium = MIMOChannel([link], noise_power=config.noise_power, rng=rng)
                heard = medium.receive([training])
                believed[(tx, rx)] = estimate_channel(heard, training)
                # CFO from the first antenna's known sequence.
                cfo_est[(tx, rx)] = estimate_cfo(heard[0:1], (channels.h(tx, rx) @ training)[0:1])
            else:
                believed[(tx, rx)] = channels.h(tx, rx)
                cfo_est[(tx, rx)] = osc[tx] - osc[rx]

    # ------------------------------------------------------------------ #
    # Decode following the schedule.
    # ------------------------------------------------------------------ #
    report = SessionReport()
    all_ids = [p.packet_id for p in solution.packets]
    decoded_sofar: List[int] = []

    for stage in solution.schedule:
        rx = stage.rx
        window = received[rx].copy()
        window_len = window.shape[1]
        cancelled_here: List[int] = []
        if solution.cooperative:
            # Reconstruct and subtract every packet decoded at earlier
            # stages (shipped over the Ethernet as decoded bits).
            for pid in decoded_sofar:
                pkt = report.decoded.get(pid)
                if pkt is None:
                    continue  # earlier stage failed; nothing to cancel
                tx = solution.tx_of(pid)
                recon = Reconstruction(
                    samples=packet_samples[pid],
                    encoding=solution.encoding[pid],
                    amplitude=amplitudes[pid],
                    channel=believed[(tx, rx)],
                    cfo=cfo_est[(tx, rx)],
                    sample_offset=timing[tx],
                )
                window = subtract_refined(window, recon)
                report.ethernet_bytes += pkt.nbytes
                cancelled_here.append(pid)

        live = [pid for pid in all_ids if pid not in cancelled_here] if solution.cooperative else list(all_ids)

        # Project, synchronise, equalise and demodulate every packet of the
        # stage, then FEC-decode the recovered streams together (the fast
        # engine stacks the stage's same-length packets into one batched
        # Viterbi pass).
        stage_streams: Dict[int, np.ndarray] = {}
        stage_snr: Dict[int, float] = {}
        for pid in stage.packet_ids:
            tx = solution.tx_of(pid)
            desired = amplitudes[pid] * believed[(tx, rx)] @ solution.encoding[pid]
            interference = [
                amplitudes[o] * believed[(solution.tx_of(o), rx)] @ solution.encoding[o]
                for o in live
                if o != pid
            ]
            w = max_sinr_vector(desired, interference, config.noise_power)
            projected = np.conj(w) @ window
            recovered = _recover_stream(
                projected=projected,
                pid=pid,
                tx_timing=timing[tx],
                packet_samples=packet_samples[pid],
                modulator=modulator,
                config=config,
            )
            if recovered is not None:
                stage_streams[pid], stage_snr[pid] = recovered

        decoded_bits = _fec_decode_stage(stage_streams, frame_bits, fec, config.engine)
        for pid in stage.packet_ids:
            if pid not in stage_streams:
                outcome = PacketOutcome(
                    pid, rx, False, snr_db=float("-inf"), cancelled=len(cancelled_here)
                )
            else:
                outcome = _judge_packet(
                    pid=pid,
                    rx=rx,
                    decoded=decoded_bits.get(pid),
                    expected=frame_bits[pid],
                    snr_db=stage_snr[pid],
                    cancelled=len(cancelled_here),
                )
            report.outcomes.append(outcome)
            if outcome.delivered:
                report.decoded[pid] = payloads[pid]
        decoded_sofar.extend(stage.packet_ids)
    return report


def _recover_stream(
    projected: np.ndarray,
    pid: int,
    tx_timing: int,
    packet_samples: np.ndarray,
    modulator: Modulator,
    config: SignalConfig,
) -> Optional[tuple]:
    """Synchronise, equalise, phase-track and demodulate one projected stream.

    Returns ``(hard bits, measured SNR in dB)``, or ``None`` when the packet
    cannot be located or equalised (FEC decoding happens stage-wide
    afterwards, see :func:`_fec_decode_stage`).
    """
    preamble = _packet_preamble(pid, PREAMBLE_LENGTH)
    n_total = packet_samples.size

    # Locate the packet (transmitters are not time synchronised).
    if config.max_timing_offset > 0:
        start = detect_preamble(projected, preamble, threshold=0.35)
        if start < 0:
            return None
    else:
        start = tx_timing
    segment = projected[start : start + n_total]
    if segment.size < n_total:
        return None

    # Residual CFO and complex gain from the known preamble.
    rx_preamble = segment[:PREAMBLE_LENGTH]
    cfo = estimate_cfo(rx_preamble[None, :], preamble[None, :])
    derotated = apply_cfo(segment, -cfo, start=0)
    gain = np.vdot(preamble, derotated[:PREAMBLE_LENGTH]) / float(
        np.vdot(preamble, preamble).real
    )
    if abs(gain) < 1e-12:
        return None
    equalized = derotated / gain

    symbols = equalized[PREAMBLE_LENGTH:]
    # The decision-directed PLL assumes memoryless constellation symbols;
    # OFDM samples are time-domain mixtures, so tracking is skipped there
    # (per-subcarrier equalisation handles phase for OFDM instead).
    if not isinstance(modulator, OFDM):
        symbols = _make_phase_tracker(modulator, config.engine).track(symbols)

    # Measured SNR: error-vector magnitude against the known transmitted
    # symbols (the experiment harness has ground truth, as in the paper's
    # testbed measurements).
    reference = packet_samples[PREAMBLE_LENGTH:]
    err = symbols - reference
    sig_power = float(np.mean(np.abs(reference) ** 2))
    err_power = float(np.mean(np.abs(err) ** 2))
    snr_db = 10 * np.log10(sig_power / err_power) if err_power > 0 else np.inf

    return modulator.demodulate(symbols), float(snr_db)


def _judge_packet(
    pid: int,
    rx: int,
    decoded: Optional[np.ndarray],
    expected: np.ndarray,
    snr_db: float,
    cancelled: int,
) -> PacketOutcome:
    """Frame-validate one decoded bit stream into a PacketOutcome."""
    try:
        if decoded is None:
            raise ValueError("stream could not be decoded")
        pre_crc_errors = int(np.count_nonzero(decoded != expected))
        Packet.from_bits(decoded)
        delivered = pre_crc_errors == 0
    except (ValueError, IndexError):
        pre_crc_errors = -1
        delivered = False
    return PacketOutcome(
        packet_id=pid,
        rx=rx,
        delivered=delivered,
        snr_db=snr_db,
        bit_errors_precrc=pre_crc_errors,
        cancelled=cancelled,
    )

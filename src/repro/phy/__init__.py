"""Physical-layer substrate: everything below interference alignment.

Subpackages
-----------
``modulation``
    BPSK through 64-QAM and OFDM; pluggable into the IAC pipeline.
``fec``
    Convolutional (Viterbi) and Hamming codes.
``channel``
    Flat-fading MIMO channel model, estimation, reciprocity calibration.
``mimo``
    Max-SINR detection, encoding-vector normalisation, eigenmode
    baseline, rates.

Modules
-------
``bits``, ``crc``, ``packet``, ``preamble``
    Bit plumbing, framing, and synchronisation sequences.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "packet": ("DecodedPacket", "Packet"),
})

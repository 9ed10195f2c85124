"""Forward error correction.

IAC subtracts interference *before* the signal reaches modulation/FEC, so
any code drops in unchanged (paper §1).  Provided codes:

* :class:`~repro.phy.fec.convolutional.ConvolutionalCode` -- 802.11-style
  rate-1/2 K=7 with hard-decision Viterbi decoding.
* :class:`~repro.phy.fec.hamming.Hamming74` -- light single-error-correcting
  block code.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "convolutional": ("ConvolutionalCode",),
    "hamming": ("Hamming74",),
})

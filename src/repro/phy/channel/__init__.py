"""Wireless channel substrate.

Replaces the paper's USRP testbed with a flat-fading MIMO channel model
(:mod:`~repro.phy.channel.model`), least-squares channel estimation
(:mod:`~repro.phy.channel.estimation`) and reciprocity-based downlink
inference with hardware calibration (:mod:`~repro.phy.channel.reciprocity`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "estimation": ("ChannelTracker", "estimate_cfo", "estimate_channel"),
    "model": ("Link", "MIMOChannel", "apply_cfo", "awgn", "noise_power_for_snr", "rayleigh_channel"),
    "provider": ("ChannelProvider", "WidebandFadingNetwork", "evaluation_bins"),
    "selective": ("MultiTapChannel", "exponential_pdp"),
    "timevarying": ("FadingNetwork", "GaussMarkovFading"),
    "reciprocity": (
        "RadioHardware",
        "ReciprocityCalibrator",
        "fractional_error",
        "observed_downlink",
        "observed_uplink",
        "predict_downlink",
        "solve_calibration",
    ),
})

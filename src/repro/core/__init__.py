"""IAC core: the paper's primary contribution.

* :mod:`~repro.core.plans` -- packets, channels, solutions, schedules.
* :mod:`~repro.core.alignment` -- closed-form alignment solvers for the
  paper's 2-antenna constructions (Eqs. 2-7).
* :mod:`~repro.core.general` -- general-M alignment via minimum-leakage
  alternating minimisation (Lemmas 5.1/5.2 constructions).
* :mod:`~repro.core.cancellation` -- reconstruct-and-subtract interference
  cancellation.
* :mod:`~repro.core.decoder` -- fast rate-level decoding (per-packet SINR,
  Eq. 9 rates).
* :mod:`~repro.core.session` -- sample-accurate signal-level pipeline.
* :mod:`~repro.core.dof` -- multiplexing-gain lemmas and feasibility counts.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "alignment": (
        "solve_downlink_three_packets",
        "solve_downlink_two_clients",
        "solve_uplink_four_packets",
        "solve_uplink_three_packets",
    ),
    "decoder": ("DecodeReport", "PacketResult", "decode_rate_level"),
    "dof": ("downlink_aps_needed", "downlink_max_packets", "uplink_aps_needed", "uplink_max_packets"),
    "general": ("GeneralAlignmentProblem", "SubspaceConstraint", "solve_downlink_general", "solve_uplink_general"),
    "plans": ("AlignmentSolution", "ChannelSet", "DecodeStage", "PacketSpec"),
    "session": ("SessionReport", "SignalConfig", "run_session"),
})

"""repro: a reproduction of *Interference Alignment and Cancellation*
(Gollakota, Perli, Katabi -- SIGCOMM 2009).

IAC lets Ethernet-connected MIMO access points decode more concurrent
packets than any one AP has antennas, by combining transmitter-side
interference alignment with wired-backplane interference cancellation.

Package layout
--------------
``repro.core``
    The IAC algorithms: alignment solvers, cancellation, decode schedules,
    the sample-level pipeline and the DoF lemmas.
``repro.phy``
    The PHY substrate: modulation, FEC, packets, the flat-fading MIMO
    channel model, channel estimation and reciprocity calibration.
``repro.mac``
    The PCF-based MAC with the three concurrency algorithms.
``repro.net``
    Nodes and the Ethernet hub backplane.
``repro.baselines``
    802.11-MIMO (eigenmode + best AP) and the TDMA comparison discipline.
``repro.sim``
    The synthetic 20-node testbed, per-figure experiment runners, the
    integrated WLAN simulation and its dynamic workloads
    (``repro.sim.traffic``: arrival processes, churn, mobility).
``repro.engine``
    The batched, memoised group-evaluation engine behind the WLAN
    simulation's hot path (``python -m repro bench`` times it).
``repro.experiments``
    The unified scenario/experiment API: the scenario registry, the
    parallel ``ExperimentRunner``, structured JSON-serialisable results
    and the resumable parameter-sweep engine behind
    ``python -m repro sweep``.

Quickstart
----------
Reproduce any paper figure through the scenario registry — trials run in
parallel (``workers=N``) with bit-identical results for any worker
count, and every result serialises to JSON:

>>> from repro import run_experiment
>>> result = run_experiment("fig13a", n_trials=4, workers=2)
>>> result.mean_gain > 1.0  # paper: ~1.8x for the 3x3 uplink
True
>>> restored = type(result).from_json(result.to_json())
>>> restored == result
True

``python -m repro list`` enumerates the scenarios (see
``EXPERIMENTS.md``); the same algorithms are importable directly for
bespoke setups:

>>> import numpy as np
>>> from repro.core import ChannelSet, solve_uplink_three_packets, decode_rate_level
>>> from repro.phy.channel import rayleigh_channel
>>> rng = np.random.default_rng(0)
>>> channels = ChannelSet({(c, a): rayleigh_channel(2, 2, rng)
...                        for c in (0, 1) for a in (0, 1)})
>>> solution = solve_uplink_three_packets(channels, rng=rng)
>>> report = decode_rate_level(solution, channels, noise_power=1e-3)
>>> report.total_rate > 0
True
"""

__version__ = "1.0.0"

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": (
        "AlignmentSolution",
        "ChannelSet",
        "DecodeStage",
        "PacketSpec",
        "SignalConfig",
        "decode_rate_level",
        "run_session",
        "solve_downlink_general",
        "solve_downlink_three_packets",
        "solve_uplink_four_packets",
        "solve_uplink_general",
        "solve_uplink_three_packets",
    ),
    "experiments": (
        "ExperimentResult",
        "ExperimentRunner",
        "Scenario",
        "SweepResult",
        "TrialRecord",
        "get_scenario",
        "list_scenarios",
        "register_scenario",
        "run_experiment",
        "run_sweep",
    ),
    "phy.packet": ("Packet",),
})
__all__ += ["__version__"]

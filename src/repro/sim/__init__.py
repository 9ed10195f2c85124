"""Experiment harness: testbed generation, runners, metrics."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "clustered": ("ClusteredConfig", "ClusteredNetwork"),
    "geometry": (
        "contiguous_labels",
        "disk_positions",
        "grid_centers",
        "nearest_center",
        "pairwise_distances",
        "path_gain_db",
        "two_level_gain_db",
    ),
    "multicell": (
        "CellPartition",
        "CellSummary",
        "MultiCellConfig",
        "MultiCellSimulation",
        "MultiCellStats",
        "build_partition",
        "cell_sim_seed",
        "elect_cell_leaders",
    ),
    "experiment": (
        "GroupRateCache",
        "diversity_trial",
        "downlink_3x3_trial",
        "large_network_experiment",
        "uplink_2x2_trial",
        "uplink_3x3_trial",
    ),
    "metrics": ("GainCDF", "RatePair", "ScatterResult", "format_cdf_table"),
    "plotting": ("ascii_bars", "ascii_cdf", "ascii_scatter"),
    "traffic": (
        "BurstyTraffic",
        "ClientChurn",
        "HeterogeneousTraffic",
        "MobilityModel",
        "PoissonTraffic",
        "SaturatedTraffic",
        "TrafficModel",
        "make_traffic",
    ),
    "wlan": ("WLANConfig", "WLANEvent", "WLANSimulation", "WLANStats"),
    "testbed": ("Testbed", "TestbedConfig"),
})

"""Wall-clock benchmarks: one case table, one runner, one ``BENCH.json``.

``python -m repro bench [CASE ...]`` checks that each fast path of this
reproduction gives its reference's output and records how much faster
it is.  Every entry of :data:`CASES` is one frozen :class:`Case`:

* its parameters at full size and the ``--quick`` overrides;
* its points: one point, the ``loads`` of the event-kernel curve plus a
  saturated bracket, or the scenario ``names``;
* its named variants (``reference``/``fast``, ``reference``/``batched``
  or ``workers=1/2/4``);
* one function that runs a variant at a point and returns a comparable
  output — a stats digest, or an array of dB values;
* an optional floor on the ratio at its first point.

:func:`run_case` runs every variant ``repeats`` times on fresh state at
each point, records every repeat's seconds with their median, minimum
and interquartile range, reports
``ratio`` = median of the first variant / median of the last, and
applies one gate: every run of every variant at a point gives the same
output.  Digests must be equal; dB arrays must have equal lengths, the
same infinities and differ by at most :data:`TOLERANCE_DB`.  Because
repeats are included, the gate is also a same-seed rerun check.

:func:`run_bench` collects the cases into one schema-v2 document (see
``EXPERIMENTS.md``); this module is the only place the library reads a
wall clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

BENCH_SCHEMA_VERSION = 2

#: Largest per-value difference, in dB, between two agreeing dB arrays.
TOLERANCE_DB = 1e-6

#: A case's comparable output: a digest, or an array of dB values.
Output = Union[str, np.ndarray]


class Clock:
    """Adds up the wall seconds spent inside ``with clock:`` blocks.

    A case function builds its state outside the block and times only
    the work under test, so setup never counts toward a variant.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Clock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._start


@dataclass(frozen=True)
class Case:
    """One row of the bench table (see the module docstring)."""

    name: str
    #: Full-size parameters; every case has ``seed`` and ``repeats``.
    params: Mapping[str, Any]
    #: ``--quick`` overrides, merged over :attr:`params`.
    quick: Mapping[str, Any]
    variants: Tuple[str, ...]
    #: ``run(params, variant, point, clock) -> Output``.
    run: Callable[[Mapping[str, Any], str, Any, Clock], Output]
    #: The parameter listing the points; ``None`` means one point.
    points: Optional[str] = None
    #: The ratio at the first point must be above this.
    floor: Optional[float] = None


def _workers(variant: str) -> int:
    return int(variant.split("=", 1)[1])


def _wlan(p, variant, point, clock) -> str:
    """Saturated cell: every slot schedules a group, nothing to skip."""
    from repro.sim.wlan import WLANConfig, WLANSimulation  # deferred: keep import light

    sim = WLANSimulation(WLANConfig(
        n_clients=p["n_clients"], n_antennas=p["n_antennas"], rho=p["rho"],
        algorithm=p["algorithm"], seed=p["seed"], engine=variant,
    ))
    with clock:
        stats = sim.run(p["n_slots"])
    return stats.digest()


def _events(p, variant, point, clock) -> str:
    """A dense, sounding-dominated cell at one offered load.

    The load is the Poisson arrival rate as a share of the cell's
    capacity of ``n_aps`` packets per slot
    (``rate_per_client = load * n_aps / n_clients``), so ``0.1`` keeps
    the cell about 90% idle; ``"saturated"`` is the bracket where the
    event kernel has nothing to skip.
    """
    from repro.sim.wlan import WLANConfig, WLANSimulation  # deferred: keep import light

    traffic = {}
    if point != "saturated":
        traffic = {
            "traffic": "poisson",
            "traffic_params": {"rate_per_client": point * p["n_aps"] / p["n_clients"]},
        }
    sim = WLANSimulation(WLANConfig(
        n_aps=p["n_aps"], n_clients=p["n_clients"], n_antennas=2, rho=p["rho"],
        mean_gain_db=15.0, algorithm="best2", ack_period=1, seed=p["seed"],
        engine=variant, **traffic,
    ))
    with clock:
        stats = sim.run(p["n_slots"])
    return stats.digest()


def _signal(p, variant, point, clock) -> np.ndarray:
    """Per-packet measured SNRs of ``n_sessions`` decodes of one scene.

    One fixed 2-client/2-AP uplink scene (3 concurrent packets, CFO and
    timing offsets on) is decoded once per session seed.
    """
    from repro.core import ChannelSet, SignalConfig, run_session, solve_uplink_three_packets
    from repro.phy.channel.model import rayleigh_channel
    from repro.phy.packet import Packet
    from repro.utils.rng import default_rng

    rng = default_rng(p["seed"])
    channels = ChannelSet(
        {(c, a): rayleigh_channel(2, 2, rng) for c in (0, 1) for a in (0, 1)}
    )
    solution = solve_uplink_three_packets(channels, rng=rng)
    payloads = {i: Packet.random(rng, p["payload_bytes"], src=i, seq=i) for i in range(3)}
    config = SignalConfig(
        modulation=p["modulation"], fec=p["fec"], noise_power=1e-3,
        cfo_spread=5e-5, max_timing_offset=16, engine=variant,
    )
    # Build the shared FEC tables before the clock starts.
    config.make_fec()
    snrs: List[float] = []
    with clock:
        for session in range(p["n_sessions"]):
            report = run_session(solution, channels, payloads, config, rng=default_rng(session))
            snrs.extend(o.snr_db for o in report.outcomes)
    return np.array(snrs)


def _ofdm(p, variant, point, clock) -> np.ndarray:
    """Per-packet SINRs (dB) of ``n_groups`` downlink groups x ``n_bins``.

    ``batched`` solves the whole (group, bin) grid in one stacked pass;
    ``reference`` runs the scalar solve and rate-level decode per bin.
    At 64 bins every subcarrier of the 64-point grid is solved.
    """
    from repro.core.alignment import solve_downlink_three_packets
    from repro.core.decoder import decode_rate_level
    from repro.core.plans import ChannelSet
    from repro.engine.batched import solve_downlink_three_batch
    from repro.phy.channel.provider import evaluation_bins
    from repro.phy.channel.selective import MultiTapChannel, exponential_pdp

    n_fft, n_groups, n_bins, m = 64, p["n_groups"], p["n_bins"], p["n_antennas"]
    if not 1 <= n_bins <= n_fft:
        raise ValueError(f"n_bins must be in [1, {n_fft}]")
    rng = np.random.default_rng(p["seed"])
    pdp = exponential_pdp(p["n_taps"], p["delay_spread"])
    bins = np.arange(n_fft) if n_bins == n_fft else evaluation_bins(n_fft, n_bins)
    # h[g, :, i, j]: the band from AP i to client j of candidate group g.
    h = np.empty((n_groups, n_bins, 3, 3, m, m), dtype=complex)
    for g in range(n_groups):
        for i in range(3):
            for j in range(3):
                h[g, :, i, j] = MultiTapChannel.random(m, m, pdp, rng).frequency_response(n_fft)[bins]
    with clock:
        if variant == "batched":
            sinrs = solve_downlink_three_batch(
                h.reshape((n_groups * n_bins,) + h.shape[2:]), noise_power=1.0
            )[2].reshape(n_groups, n_bins, 3)
        else:
            sinrs = np.empty((n_groups, n_bins, 3))
            for g in range(n_groups):
                for b in range(n_bins):
                    chans = ChannelSet(
                        {(i, 100 + j): h[g, b, i, j] for i in range(3) for j in range(3)}
                    )
                    solution = solve_downlink_three_packets(
                        chans, aps=(0, 1, 2), clients=(100, 101, 102), noise_power=1.0
                    )
                    report = decode_rate_level(solution, chans, noise_power=1.0)
                    sinrs[g, b] = [r.sinr for r in report.results]
    return 10 * np.log10(sinrs).ravel()


def _city(p, variant, point, clock) -> str:
    """The sharded multi-cell city; with ``fault_params``, every cell
    also runs the fault cocktail and a mid-run leader crash."""
    from repro.sim.multicell import MultiCellConfig, MultiCellSimulation  # deferred

    faults = p.get("fault_params")
    if faults is not None:
        faults = {**faults, "leader_crash_slot": p["n_slots"] // 2}
    sim = MultiCellSimulation(MultiCellConfig(
        n_cells=p["n_cells"], aps_per_cell=p["aps_per_cell"],
        clients_per_cell=p["clients_per_cell"], barrier_slots=p["barrier_slots"],
        fault_params=faults, seed=p["seed"],
    ))
    with clock:
        stats = sim.run(p["n_slots"], workers=_workers(variant))
    return stats.digest()


def _scenario(p, variant, point, clock) -> str:
    """One registered scenario end to end through the experiment runner."""
    from repro.experiments import ExperimentRunner  # deferred: keep import light

    runner = ExperimentRunner(workers=_workers(variant))
    runner.testbed  # built here, not on the clock
    with clock:
        result = runner.run(point, n_trials=p["n_trials"], seed=p["seed"])
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


WORKERS = ("workers=1", "workers=2", "workers=4")

#: The bench table, in run order.
CASES: Dict[str, Case] = {case.name: case for case in (
    Case(
        "wlan",
        params={"n_slots": 200, "n_clients": 12, "n_antennas": 2, "rho": 0.99,
                "algorithm": "best2", "seed": 7, "repeats": 3},
        quick={"n_slots": 40},
        variants=("reference", "fast"), run=_wlan, floor=1.2,
    ),
    Case(
        "events",
        params={"n_slots": 3000, "n_clients": 48, "n_aps": 3, "rho": 0.9995,
                "loads": (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
                          0.3, 0.6, "saturated"),
                "seed": 7, "repeats": 3},
        quick={"n_slots": 1500, "loads": (0.001, 0.01, 0.1, "saturated"), "repeats": 2},
        variants=("reference", "fast"), run=_events, points="loads", floor=3.0,
    ),
    Case(
        "signal",
        params={"n_sessions": 20, "payload_bytes": 200, "modulation": "bpsk",
                "fec": "conv", "seed": 7, "repeats": 3},
        quick={"n_sessions": 4, "repeats": 1},
        variants=("reference", "fast"), run=_signal, floor=1.0,
    ),
    Case(
        "ofdm",
        params={"n_groups": 16, "n_bins": 64, "n_antennas": 2, "n_taps": 8,
                "delay_spread": 2.0, "seed": 7, "repeats": 3},
        quick={"n_groups": 8, "repeats": 1},
        variants=("reference", "batched"), run=_ofdm, floor=3.0,
    ),
    Case(
        "city",
        params={"n_cells": 64, "aps_per_cell": 3, "clients_per_cell": 16,
                "n_slots": 60, "barrier_slots": 20, "seed": 7, "repeats": 1},
        quick={"n_cells": 9, "n_slots": 20},
        variants=WORKERS, run=_city,
    ),
    Case(
        "faults",
        params={"n_cells": 4, "aps_per_cell": 4, "clients_per_cell": 8,
                "n_slots": 40, "barrier_slots": 10,
                "fault_params": {"backplane_loss_rate": 0.1, "burst_enter": 0.02,
                                 "burst_exit": 0.3, "backplane_delay_rate": 0.1,
                                 "backplane_delay_max": 3, "csi_corrupt_rate": 0.05,
                                 "csi_stale_rate": 0.05},
                # Two repeats even in --quick: the gate is also the
                # same-seed rerun check of the faulted city.
                "seed": 7, "repeats": 2},
        quick={"n_cells": 2, "n_slots": 20},
        variants=WORKERS, run=_city,
    ),
    Case(
        "scenarios",
        params={"names": ("fig12", "fig13a", "fig13b", "fig14"), "n_trials": 8,
                "seed": 7, "repeats": 1},
        quick={"n_trials": 2},
        variants=WORKERS, run=_scenario, points="names",
    ),
)}


def _compare(outputs: Sequence[Output]) -> Dict[str, Any]:
    """The gate: do all of one point's outputs agree?"""
    first = outputs[0]
    if isinstance(first, str):
        return {"digest": first, "agree": all(o == first for o in outputs)}
    worst = 0.0
    for other in outputs[1:]:
        if other.shape != first.shape:
            return {"max_diff_db": None, "agree": False}
        inf = np.isinf(first) | np.isinf(other)
        if not np.array_equal(first[inf], other[inf]):
            return {"max_diff_db": None, "agree": False}
        # NaN propagates through the max and fails the tolerance check.
        worst = float(np.max(np.abs(first[~inf] - other[~inf]), initial=worst))
    return {"max_diff_db": worst, "agree": worst <= TOLERANCE_DB}


def _iqr(seconds: Sequence[float]) -> float:
    """Interquartile range of one variant's repeats (0 for one repeat).

    Quartiles interpolate between the repeats themselves ("inclusive"),
    so with three repeats the range is half the spread of the extremes.
    """
    if len(seconds) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return q3 - q1


def run_case(case: Case, *, quick: bool = False, seed: Optional[int] = None) -> dict:
    """Run one case at every point; see the module docstring."""
    params = {**case.params, **(case.quick if quick else {})}
    if seed is not None:
        params["seed"] = seed
    points = params[case.points] if case.points else (None,)
    results = []
    for point in points:
        seconds: Dict[str, List[float]] = {v: [] for v in case.variants}
        outputs = []
        # Repeats interleave the variants, so a host slowing down mid-run
        # does not land on one variant only.
        for _ in range(max(1, params["repeats"])):
            for variant in case.variants:
                clock = Clock()
                outputs.append(case.run(params, variant, point, clock))
                seconds[variant].append(clock.seconds)
        median = {v: statistics.median(s) for v, s in seconds.items()}
        results.append({
            "point": point,
            "seconds": seconds,
            "median_s": median,
            "min_s": {v: min(s) for v, s in seconds.items()},
            "iqr_s": {v: _iqr(s) for v, s in seconds.items()},
            "ratio": median[case.variants[0]] / median[case.variants[-1]],
            **_compare(outputs),
        })
    where = [case.name if r["point"] is None else f"{case.name} @ {r['point']}" for r in results]
    failures = [
        f"{at}: the variants' outputs differ" for at, r in zip(where, results) if not r["agree"]
    ]
    if case.floor is not None and not results[0]["ratio"] > case.floor:
        failures.append(
            f"{where[0]}: ratio {results[0]['ratio']:.2f}x is not above the {case.floor}x floor"
        )
    # Through JSON once, so tuples in ``params`` come back as lists and the
    # document equals what ``write_bench`` round-trips.
    return json.loads(json.dumps({
        "params": params,
        "variants": list(case.variants),
        "floor": case.floor,
        "points": results,
        "failures": failures,
    }))


def run_bench(
    names: Sequence[str] = (), *, quick: bool = False, seed: Optional[int] = None
) -> dict:
    """Run the named cases (all of :data:`CASES` if none): the ``BENCH.json`` document."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "cases": {
            name: run_case(CASES[name], quick=quick, seed=seed)
            for name in (names or CASES)
        },
    }


def failures(doc: dict) -> List[str]:
    """Every gate or floor failure in a bench document."""
    return [f for case in doc["cases"].values() for f in case["failures"]]


def write_bench(doc: dict, path: str) -> None:
    """Write a bench document as deterministic, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def format_bench(doc: dict) -> str:
    """Human-readable summary: one line per case and point."""
    host = doc["host"]
    lines = [
        f"repro bench (schema v{doc['schema_version']}"
        f"{', quick' if doc['quick'] else ''}): python {host['python']}, "
        f"numpy {host['numpy']}, {host['cpu_count']} CPU(s)"
    ]
    for name, case in doc["cases"].items():
        floor = f", floor {case['floor']}x" if case["floor"] is not None else ""
        lines.append(
            f"{name}: {' vs '.join(case['variants'])}, median (min, IQR) of "
            f"{case['params']['repeats']}{floor}"
        )
        for p in case["points"]:
            times = "  ".join(
                f"{v} {p['median_s'][v] * 1e3:9.1f} ms (min {p['min_s'][v] * 1e3:.1f}, "
                f"IQR {p['iqr_s'][v] * 1e3:.1f})"
                for v in case["variants"]
            )
            if "digest" in p:
                check = "digest"
            elif p["max_diff_db"] is None:
                check = "shape/infinities"
            else:
                check = f"max diff {p['max_diff_db']:.1e} dB"
            label = "-" if p["point"] is None else str(p["point"])
            lines.append(
                f"  {label:>10s}  {times}  ratio {p['ratio']:7.2f}x  "
                f"{check} {'ok' if p['agree'] else 'MISMATCH'}"
            )
        lines.extend(f"  FAIL {failure}" for failure in case["failures"])
    return "\n".join(lines)

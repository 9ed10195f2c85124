"""Tests for the command-line interface."""

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def quick_bench(tmp_path_factory):
    """One ``repro bench --quick wlan scenarios faults`` run the bench
    tests share: (exit code, stdout, the written BENCH.json)."""
    import contextlib
    import io

    out = tmp_path_factory.mktemp("bench") / "BENCH.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bench", "--quick", "wlan", "scenarios", "faults", "--out", str(out)])
    return code, stdout.getvalue(), json.loads(out.read_text())


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scatter_defaults(self):
        args = build_parser().parse_args(["run", "fig12"])
        assert args.trials is None and args.seed == 0  # the scenario's count

    def test_fig15_options(self):
        args = build_parser().parse_args(
            ["run", "fig15", "--param", "n_slots=50", "--param", "direction=uplink"]
        )
        assert args.param == ["n_slots=50", "direction=uplink"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])
        with pytest.raises(SystemExit):  # the retired figure aliases
            build_parser().parse_args(["fig12"])
        with pytest.raises(SystemExit):  # now the lemmas/overhead scenarios
            build_parser().parse_args(["lemmas"])


class TestCommands:
    def test_lemmas(self, capsys):
        assert main(["run", "lemmas", "--param", "m=3"]) == 0
        out = capsys.readouterr().out
        assert "uplink (2M)" in out
        assert " 3             6          4" in out  # M=3 row
        assert "constructed uplink M=3" in out and "6 packets (lemma 6)" in out

    def test_overhead(self, capsys):
        assert main(["run", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "1440-byte payloads" in out
        assert "(paper: 1-2% at 1440 bytes)" in out

    def test_fig12_small(self, capsys):
        assert main(["run", "fig12", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "mean gain" in out and "paper: 1.5x" in out

    def test_fig14_small(self, capsys):
        assert main(["run", "fig14", "--trials", "4"]) == 0
        assert "1.2x" in capsys.readouterr().out

    def test_fig16(self, capsys):
        assert main(["run", "fig16"]) == 0
        assert "fractional error" in capsys.readouterr().out

    def test_fig17_small(self, capsys):
        assert main(["run", "fig17", "--trials", "2"]) == 0
        assert "gain" in capsys.readouterr().out

    def test_fig15_small(self, capsys):
        assert main(["run", "fig15", "--param", "n_slots=30",
                     "--param", "direction=downlink"]) == 0
        out = capsys.readouterr().out
        assert "downlink/best2" in out and "CDF of client gains" in out


class TestRegistryCLI:
    """The registry-driven surface: list / run / --version / --quiet."""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_list_enumerates_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16", "fig17"):
            assert name in out

    def test_list_tag_filter(self, capsys):
        assert main(["list", "--tag", "scatter"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "fig17" not in out
        assert main(["list", "--tag", "bogus"]) == 1

    def test_run_json_stdout_is_pure_json(self, capsys):
        assert main(["run", "fig12", "--trials", "2", "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "fig12" and len(data["records"]) == 2
        assert data["mean_gain"] > 0

    def test_run_json_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["run", "fig17", "--trials", "2", "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["scenario"] == "fig17"
        assert str(target) in capsys.readouterr().out

    def test_run_param_override(self, capsys):
        assert main(["run", "fig15", "--param", "n_slots=20",
                     "--param", "n_clients=5", "--param", "algorithm=fifo",
                     "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["params"]["n_slots"] == 20
        assert data["params"]["algorithm"] == "fifo"

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["fig15_dynamic", "load_latency"])
    @pytest.mark.parametrize("n_slots", [0, -5])
    def test_run_rejects_slotless_run(self, capsys, scenario, n_slots):
        assert main(["run", scenario, "--trials", "1",
                     "--param", f"n_slots={n_slots}"]) == 1
        assert "n_slots" in capsys.readouterr().err

    @pytest.mark.parametrize("spread", ["nan", "inf", "-1"])
    def test_run_rejects_a_non_finite_delay_spread(self, capsys, spread):
        # ``nan`` used to die with a ZeroDivisionError in the gain ratio,
        # ``inf`` to run a uniform power-delay profile.
        assert main(["run", "fig_ofdm_dynamic", "--trials", "1", "--quiet",
                     "--param", f"delay_spread={spread}"]) == 1
        assert "delay_spread" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, extra", [
        ("ofdm_subcarrier", []),
        ("fig_ofdm_dynamic", ["--param", "n_slots=5"]),
    ])
    def test_run_rejects_fractional_taps(self, capsys, scenario, extra):
        # Both scenarios used to truncate ``n_taps=2.5`` to two taps.
        assert main(["run", scenario, "--trials", "1", "--quiet",
                     "--param", "n_taps=2.5", *extra]) == 1
        assert "n_taps must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, param, error", [
        ("load_latency", "n_slots=40.7", "n_slots must be an integer"),
        ("backplane_loss_sweep", "n_aps=3.5", "n_aps must be an integer"),
        ("fault_resilience", "leader_crash_slot=5.5",
         "leader_crash_slot must be an integer"),
        ("load_latency", "churn=no", "churn must be true or false"),
    ])
    def test_run_rejects_a_value_of_the_wrong_type(self, capsys, scenario, param, error):
        # Each used to run truncated (or, for churn=no, with churn on).
        assert main(["run", scenario, "--trials", "1", "--param", param]) == 1
        assert error in capsys.readouterr().err

    def test_sweep_rejects_a_bad_grid_value_before_any_file(self, capsys, tmp_path):
        store = tmp_path / "c.json"
        assert main(["sweep", "load_latency", "--grid", "n_slots=40,40.7",
                     "--cache", str(store)]) == 1
        assert "n_slots must be an integer" in capsys.readouterr().err
        assert not store.exists()

    def test_sweep_rejects_an_unknown_name_before_any_file(self, capsys, tmp_path):
        # The saturated cell used to run and be cached before fractal failed.
        store = tmp_path / "dom.json"
        assert main(["sweep", "fig15_dynamic", "--grid", "traffic=saturated,fractal",
                     "--param", "n_slots=10", "--param", "n_clients=6",
                     "--trials", "1", "--cache", str(store)]) == 1
        assert "traffic must be one of" in capsys.readouterr().err
        assert not store.exists()

    def test_sweep_rejects_a_second_spelling_of_a_selector(self, capsys, tmp_path):
        # best-of-two used to run as a second best2 row with its own seed
        # noise, read as an algorithm effect.
        store = tmp_path / "a.json"
        assert main(["sweep", "fig15_dynamic", "--grid", "algorithm=best2,best-of-two",
                     "--param", "n_slots=20", "--param", "n_clients=6",
                     "--trials", "1", "--cache", str(store)]) == 1
        assert "algorithm must be one of" in capsys.readouterr().err
        assert not store.exists()

    def test_bad_param_syntax_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig12", "--trials", "1", "--param", "oops"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.cases == [] and not args.quick
        assert args.seed is None and args.out == "BENCH.json"

    def test_bench_quick_writes_artifacts(self, quick_bench):
        code, out, doc = quick_bench
        assert code == 0 and "ratio" in out
        assert doc["schema_version"] == 2 and doc["quick"] is True
        assert set(doc["cases"]) == {"wlan", "scenarios", "faults"}
        (point,) = doc["cases"]["wlan"]["points"]
        assert point["agree"] and point["ratio"] > 0

    def test_bench_scenarios_artifact(self, quick_bench):
        case = quick_bench[2]["cases"]["scenarios"]
        assert [p["point"] for p in case["points"]] == ["fig12", "fig13a", "fig13b", "fig14"]
        assert case["params"]["n_trials"] == 2
        assert all(p["agree"] for p in case["points"])

    def test_bench_faults_artifact(self, quick_bench):
        """Every worker count, and the same-seed rerun, give one digest."""
        case = quick_bench[2]["cases"]["faults"]
        assert case["params"]["repeats"] >= 2
        (point,) = case["points"]
        assert point["agree"] and case["failures"] == []
        assert all(len(s) == case["params"]["repeats"] for s in point["seconds"].values())

    def test_quiet_suppresses_plots(self, capsys):
        assert main(["run", "fig12", "--trials", "3"]) == 0
        full = capsys.readouterr().out
        assert main(["run", "fig12", "--trials", "3", "--quiet"]) == 0
        quiet = capsys.readouterr().out
        assert "gain lines" in full  # the ascii scatter header
        assert "gain lines" not in quiet
        assert "mean gain" in quiet  # summary survives

"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import ExperimentScale

FAST = ["--llc-lines", "256", "--accesses", "4096"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "mcf"])
        assert args.policy == "rwp"
        assert args.llc_lines == 2048


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "rwp" in out
        assert "mix01_all_sensitive" in out

    def test_run(self, capsys):
        assert main(["run", "micro_fit", "-p", "lru", *FAST]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out
        assert "LRUPolicy" in out

    def test_run_reports_policy_state(self, capsys):
        assert main(["run", "micro_fit", "-p", "rwp", *FAST]) == 0
        assert "target_clean" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "micro_fit", "-p", "lru,rwp", *FAST]) == 0
        out = capsys.readouterr().out
        assert "vs lru" in out
        assert "rwp" in out

    def test_mix(self, capsys):
        assert main(["mix", "mix09_light", "-p", "lru", *FAST]) == 0
        assert "weighted_speedup" in capsys.readouterr().out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        assert "RWP / RRP state ratio" in capsys.readouterr().out

    def test_motivation_single(self, capsys):
        assert main(["motivation", "micro_dead_writes", *FAST]) == 0
        assert "dead_line_frac" in capsys.readouterr().out

    def test_motivation_sensitive_group(self, capsys):
        assert main(["motivation", "sensitive", *FAST]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "soplex" in out

    def test_unknown_benchmark_is_error(self):
        assert main(["run", "quake3", *FAST]) == 2


class TestErrorExitCodes:
    def test_unknown_policy_exits_2(self, capsys):
        assert main(["run", "micro_fit", "-p", "nosuch", *FAST]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_policy_in_compare_exits_2(self, capsys):
        assert main(["compare", "micro_fit", "-p", "lru,nosuch", *FAST]) == 2
        assert "error:" in capsys.readouterr().err

    def test_store_pointing_at_file_exits_2(self, capsys, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        args = ["run", "micro_fit", "-p", "lru", *FAST, "--store", str(bogus)]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_unknown_policy_exits_2(self, capsys):
        args = ["verify", "--fuzz", "2", "--policies", "lru,nosuch",
                "--no-store", "--skip-golden", "-q"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "no oracle" in err and "nosuch" in err


class TestScaleValidation:
    """Trace lengths are validated, never silently clamped."""

    @pytest.mark.parametrize("command", ("run", "compare", "motivation"))
    @pytest.mark.parametrize("accesses", ("0", "-5"))
    def test_nonpositive_accesses_is_argparse_error(
        self, command, accesses, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "micro_fit", "--accesses", accesses])
        assert exit_info.value.code == 2
        assert "--accesses" in capsys.readouterr().err

    def test_nonpositive_llc_lines_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "micro_fit", "--llc-lines", "0"])
        assert exit_info.value.code == 2
        assert "--llc-lines" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("run", "compare"))
    def test_short_trace_names_the_minimum(self, command, capsys):
        args = [command, "micro_fit", "--accesses", "1000", "--no-store"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "4096" in err and "--accesses 1000" in err

    def test_minimum_trace_runs(self, capsys):
        args = ["run", "micro_fit", "-p", "lru", "--llc-lines", "256",
                "--accesses", "512", "--no-store"]
        assert main(args) == 0
        assert "ipc" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field,value",
        (
            ("llc_lines", 0),
            ("llc_lines", -1),
            ("ways", 0),
            ("measure_factor", 0),
            ("warmup_factor", -1),
        ),
    )
    def test_experiment_scale_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentScale(**{field: value})

    def test_experiment_scale_allows_zero_warmup(self):
        assert ExperimentScale(warmup_factor=0).warmup == 0


class TestSweepCommand:
    SWEEP = [
        "sweep",
        "--benchmarks",
        "micro_fit,micro_stream",
        "--policies",
        "lru,rwp",
        "--quiet",
        *FAST,
    ]

    def test_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "GEOMEAN" in cold
        assert "simulated: 4" in cold and "cache_hits: 0" in cold

        # Warm rerun: every job served from the store, zero simulations.
        assert main([*self.SWEEP, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "simulated: 0" in warm and "cache_hits: 4" in warm

    def test_no_store_runs_fresh(self, capsys):
        assert main([*self.SWEEP, "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "cache_hits: 0" in out

    def test_parallel_jobs(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP, "--store", store, "--jobs", "2"]) == 0
        assert "failed: 0" in capsys.readouterr().out

    def test_csv_export(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        csv_path = tmp_path / "grid.csv"
        assert main([*self.SWEEP, "--store", store, "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "benchmark" in csv_path.read_text().splitlines()[0]

    def test_run_accepts_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = ["run", "micro_fit", "-p", "lru", *FAST, "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_run_accepts_policyspec_string(self, capsys):
        args = ["run", "micro_fit", "-p", "rwp:epoch=2048", *FAST,
                "--no-store"]
        assert main(args) == 0
        assert "RWPPolicy" in capsys.readouterr().out


class TestMulticoreSweep:
    SWEEP = [
        "sweep",
        "--mode",
        "multicore",
        "--mixes",
        "mix2c01_sens_pair",
        "--policies",
        "lru,rwp-core",
        "--quiet",
        *FAST,
    ]

    def test_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "GEOMEAN" in cold
        assert "mix2c01_sens_pair (2c)" in cold
        assert "simulated: 2" in cold and "cache_hits: 0" in cold

        assert main([*self.SWEEP, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "simulated: 0" in warm and "cache_hits: 2" in warm

    def test_core_count_filter(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = [
            "sweep", "--mode", "multicore", "--cores", "2",
            "--policies", "lru", "--quiet", *FAST, "--store", store,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(2c)" in out
        assert "(4c)" not in out

    def test_unknown_mix_is_error(self, capsys):
        args = [
            "sweep", "--mode", "multicore", "--mixes", "mix99",
            "--policies", "lru", "--quiet", *FAST, "--no-store",
        ]
        assert main(args) == 2
        assert "unknown mix" in capsys.readouterr().err


class TestWorkloadCli:
    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        stress_lines = [
            line for line in out.splitlines() if "stress:" in line
        ]
        assert len(stress_lines) >= 200

    def test_run_workload_flag(self, capsys):
        args = ["run", "--workload", "stress:chase,ws=1k,rw=0.3,depth=4",
                "-p", "rwp", *FAST, "--no-store"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "stress:chase,depth=4,rw=0.3,ws=1k" in out
        assert "ipc" in out

    def test_run_positional_and_flag_conflict(self, capsys):
        args = ["run", "mcf", "--workload", "mcf", *FAST]
        assert main(args) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_without_workload_exits_2(self, capsys):
        assert main(["run", *FAST]) == 2
        assert "no workload given" in capsys.readouterr().err

    def test_bad_workload_spec_exits_2(self, capsys):
        args = ["run", "--workload", "stress:zigzag,ws=1k", *FAST]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_workloads_with_glob(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = [
            "sweep", "--workloads", "model:micro_f*",
            "stress:chase,depth=4,rw=0.3,ws=1k",
            "--policies", "lru", "--quiet", *FAST, "--store", store,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "micro_fit" in out
        assert "stress:chase,depth=4,rw=0.3,ws=1k" in out

        # Resumable: warm rerun serves every job from the store.
        assert main(args) == 0
        assert "simulated: 0" in capsys.readouterr().out

    def test_ingest_round_trip(self, capsys, tmp_path):
        log = tmp_path / "capture.txt"
        log.write_text(
            "0x4000 0x10000 LD\n"
            "mangled row\n"
            "0x4004 0x10040 ST\n"
        )
        out_path = tmp_path / "capture.npz"
        assert main(["ingest", str(log), "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out_path.exists()
        assert "records   : 2" in out
        assert "skipped   : 1" in out
        assert f"interchange:{out_path}" in out

    def test_ingest_strict_exits_2(self, capsys, tmp_path):
        log = tmp_path / "capture.txt"
        log.write_text("0x4000 0x10000 LD\nmangled row\n")
        assert main(["ingest", str(log), "--strict"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_store_list_still_works(self, capsys, tmp_path,
                                               monkeypatch):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        monkeypatch.setenv("REPRO_STORE", str(bogus))
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "is unreadable" in out
        assert "mcf" in out

"""End-to-end tests for the command-line surface: option resolution and
precedence, output-file headers, dataset layout, exit codes, and the
interrupted-run marker."""

import json

import pytest

from isochron import (
    ModelParams,
    __version__,
    ir4_projection_contains,
    jump,
    region_spec,
    region_volume,
    s_embed,
)
from isochron import cli
from isochron.cli import FAILED_MARKER, THREADS_ENV, main
from isochron.engine import Engine

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

#: Pinned wall-clock stamp: outputs carrying it must be byte-reproducible.
TS = "2026-01-01T00:00:00+00:00"

GENERIC_SIGMA = (0.30, 0.10, 0.40)


def state_flag(sigma=GENERIC_SIGMA) -> str:
    state = s_embed(P, "IR4", sigma)
    return json.dumps(
        {"phases": list(state.phases), "ftds": [list(r) for r in state.ftds]}
    )


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"isochron {__version__}"

    def test_unknown_kind_is_a_config_error(self, capsys):
        assert main(["region", "exists", "--kind", "irx"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_engine_failure_has_its_own_exit_code(self, capsys, tmp_path):
        # At zero delay this coupling makes the same-timestamp cascade stall.
        # Each declared output is left as its header and the error's first
        # line, as an interrupt leaves it.
        csv, out_json = tmp_path / "a.csv", tmp_path / "a.json"
        argv = ["scan", "phases", "--tau", "0", "--eps", "1.6", "--step", "0.5"]
        argv += ["--out-csv", str(csv), "--out-json", str(out_json), "--timestamp", TS]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "cascade exceeded" in err
        failed = "# FAILED: " + err.removeprefix("error: ").splitlines()[0]
        for path in (csv, out_json):
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# isochron ")
            assert lines[-2:] == [f"# timestamp: {TS}", failed]

    def test_missing_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region"])
        assert exc.value.code == 2


class TestConfigResolution:
    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.10}))
        assert main(["region", "exists", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "false"
        assert (
            main(["region", "exists", "--config", str(cfg), "--tau", "0.58"]) == 0
        )
        assert capsys.readouterr().out.strip() == "true"

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["region", "exists", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_config_rejects_bad_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["region", "exists", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_config_missing_file(self, capsys, tmp_path):
        assert (
            main(["region", "exists", "--config", str(tmp_path / "absent.json")])
            == 2
        )
        assert capsys.readouterr().err.startswith("error:")

    def test_header_records_resolved_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 3, "seed": 5}))
        out = tmp_path / "points.csv"
        assert (
            main(
                [
                    "region",
                    "sample",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert lines[1].startswith("# config: ")
        resolved = json.loads(lines[1][len("# config: ") :])
        assert resolved["command"] == "region sample"
        assert resolved["samples"] == 3
        assert resolved["seed"] == 5
        assert resolved["tau"] == 0.58
        assert lines[2] == "# seed: 5"
        assert lines[3] == f"# timestamp: {TS}"
        assert lines[4] == "sigma1,sigma2,sigma3"
        assert len(lines) == 5 + 3

    @pytest.mark.parametrize(
        "argv, config, option",
        [
            (["region", "exists"], {"eps": [1]}, "--eps"),
            (["scan", "params", "--out-csv", "{out}"], {"grid": 5}, "--grid"),
            (
                ["scan", "params", "--grid", "2x2", "--out-csv", "{out}"],
                {"volume_kinds": ["ir3"]},
                "--volume-kinds",
            ),
            (["region", "member"], {"sigma": 5}, "--sigma"),
            (
                ["scan", "phases", "--step", "0.5", "--out-csv", "{out}"],
                {"threads": [2]},
                "--threads",
            ),
            (
                ["simulate", "--state", '{"phases": 5, "ftds": []}', "--out-text", "{out}"],
                {},
                "--state",
            ),
        ],
    )
    def test_value_of_a_wrong_json_type_is_a_config_error(
        self, capsys, tmp_path, argv, config, option
    ):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(config))
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option}: ")
        assert not out.exists()

    def test_state_center_accepted_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"center": "ir4"}))
        assert main(["poincare", "--config", str(cfg)]) == 0
        assert "section period 1" in capsys.readouterr().out

    def test_state_object_accepted_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": json.loads(state_flag())}))
        assert main(["poincare", "--config", str(cfg)]) == 0
        assert "section period 4" in capsys.readouterr().out


class TestSimulate:
    def test_center_default_horizon(self, capsys):
        assert main(["simulate", "--center", "ir4", "--timestamp", TS]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"# isochron {__version__}"
        assert f"simulated {cli._fmt(3 * P.tau)} time units: 24 events" in out

    def test_trace_files(self, capsys, tmp_path):
        text = tmp_path / "trace.txt"
        jsonl = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--center",
                    "ir4",
                    "--out-text",
                    str(text),
                    "--out-jsonl",
                    str(jsonl),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        tlines = text.read_text().splitlines()
        assert tlines[0] == f"# isochron {__version__}"
        assert tlines[1].startswith("# config: ")
        assert tlines[2] == f"# timestamp: {TS}"
        jlines = jsonl.read_text().splitlines()
        meta = json.loads(jlines[0])
        assert meta["version"] == __version__
        assert meta["timestamp"] == TS
        assert meta["config"]["command"] == "simulate"
        events = [json.loads(line) for line in jlines[1:]]
        assert len(events) == 24

    def test_state_flag_runs(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--state",
                    state_flag(),
                    "--horizon",
                    "0.58",
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        assert "events" in capsys.readouterr().out

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_rejected(self, capsys, monkeypatch, horizon):
        # Engine.simulate rejects the horizon before it processes any event.
        def no_event(*args, **kwargs):
            raise AssertionError("an event was processed for a non-finite horizon")

        monkeypatch.setattr(Engine, "_advance", no_event)
        assert main(["simulate", "--center", "ir4", "--horizon", horizon]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"horizon must be finite, got {horizon}" in err

    def test_invalid_state_rejected(self, capsys):
        bad = json.dumps({"phases": [1.5, 0.2, 0.0], "ftds": [[], [], [0.0]]})
        assert main(["simulate", "--state", bad]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_state_needs_exact_keys(self, capsys):
        assert main(["simulate", "--state", '{"phases": [0.1, 0.2, 0.0]}']) == 2
        assert "ftds" in capsys.readouterr().err

    def test_state_and_center_conflict(self, capsys):
        assert (
            main(["simulate", "--state", state_flag(), "--center", "ir4"]) == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err

    def test_state_required(self, capsys):
        assert main(["simulate"]) == 2
        assert "initial state" in capsys.readouterr().err


class TestPoincare:
    def test_center_is_a_fixed_point(self, capsys):
        assert main(["poincare", "--center", "ir4"]) == 0
        line = capsys.readouterr().out.strip()
        assert line == (
            "periodic: section period 1, orbit period "
            f"{cli._fmt(3 * P.tau / 4)}, transient 0"
        )

    def test_generic_period4_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert (
            main(
                [
                    "poincare",
                    "--state",
                    state_flag(),
                    "--out",
                    str(out),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["version"] == __version__
        assert payload["timestamp"] == TS
        assert payload["periodic"] is True
        assert payload["result"]["poincare_period"] == 4
        assert payload["signature"] is not None

    def test_budget_exhaustion_reported(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert (
            main(
                [
                    "poincare",
                    "--state",
                    state_flag(),
                    "--max-iter",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "not periodic within 1 section returns" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["periodic"] is False
        assert payload["signature"] is None
        assert payload["result"]["iterations"] == 1


class TestRegionQueries:
    def test_exists_true_and_false(self, capsys):
        assert main(["region", "exists"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["region", "exists", "--tau", "0.10"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_member_true_and_false(self, capsys):
        assert main(["region", "member", "--sigma", "0.30,0.10,0.40"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["region", "member", "--sigma", "0.10,0.30,0.40"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    @pytest.mark.parametrize("sigma", ["nan,nan,nan", "0.30,0.10,nan", "inf,0.10,0.40"])
    def test_member_of_a_nonfinite_point_is_false(self, capsys, sigma):
        assert main(["region", "member", "--sigma", sigma]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_member_dimension_checked(self, capsys):
        assert main(["region", "member", "--sigma", "0.30,0.10"]) == 2
        err = capsys.readouterr().err
        assert "3 coordinates" in err and "sigma1" in err

    def test_member_requires_sigma(self, capsys):
        assert main(["region", "member"]) == 2
        assert "--sigma" in capsys.readouterr().err


class TestRegionVolume:
    def test_exact_matches_library(self, capsys):
        assert main(["region", "volume", "--kind", "ir4"]) == 0
        line = capsys.readouterr().out.strip()
        expected = region_volume(region_spec(P, "IR4"), method="exact").volume
        assert line == f"exact: {cli._fmt(expected)}"

    def test_both_cross_checks(self, capsys, tmp_path):
        out = tmp_path / "volume.json"
        assert (
            main(
                [
                    "region",
                    "volume",
                    "--method",
                    "both",
                    "--samples",
                    "20000",
                    "--out",
                    str(out),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        assert "check: PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert set(payload["reports"]) == {"exact", "montecarlo"}

    def test_mismatch_fails(self, capsys, monkeypatch):
        class Fake:
            def __init__(self, volume, stderr=0.0):
                self.volume = volume
                self.stderr = stderr

            def to_json_dict(self):
                return {"volume": self.volume}

        def fake_volume(spec, method, **kwargs):
            return Fake(0.5) if method == "exact" else Fake(0.1, stderr=1e-6)

        monkeypatch.setattr(cli, "region_volume", fake_volume)
        assert main(["region", "volume", "--method", "both"]) == 1
        assert "check: FAIL" in capsys.readouterr().out

    def test_unknown_method_rejected(self, capsys):
        assert main(["region", "volume", "--method", "quadrature"]) == 2
        assert "method" in capsys.readouterr().err


class TestRegionSample:
    def test_stdout_layout(self, capsys):
        assert main(["region", "sample", "--samples", "2", "--timestamp", TS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert lines[2] == "# seed: 0"
        assert lines[4] == "sigma1,sigma2,sigma3"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[5:7]]
        assert all(len(r) == 3 for r in rows)
        assert lines[7] == "sampled 2 interior points of IR4"

    def test_file_output_is_reproducible(self, capsys, tmp_path):
        # The output path is part of the recorded config, so reproduction
        # means rerunning the identical command, not writing a sibling file.
        path = tmp_path / "points.csv"
        argv = [
            "region",
            "sample",
            "--kind",
            "ir3",
            "--samples",
            "4",
            "--out",
            str(path),
            "--timestamp",
            TS,
        ]
        assert main(argv) == 0
        first = path.read_bytes()
        assert main(argv) == 0
        assert path.read_bytes() == first
        assert path.read_text().splitlines()[4] == "sigma1,sigma3"

    def test_zero_samples_writes_header_and_columns_only(self, capsys, tmp_path):
        path = tmp_path / "none.csv"
        argv = ["region", "sample", "--samples", "0", "--out", str(path), "--timestamp", TS]
        assert main(argv) == 0
        lines = path.read_text().splitlines()
        assert all(ln.startswith("# ") for ln in lines[:-1])
        assert lines[-1] == "sigma1,sigma2,sigma3"

    def test_empty_region_exits_3(self, capsys):
        argv = ["region", "sample", "--kind", "ir4", "--b", "1.5", "--eps", "0.7",
                "--tau", "0.8", "--samples", "10"]
        assert main(argv) == 3
        assert "IR4 is empty at (eps=0.7, tau=0.8)" in capsys.readouterr().err


class TestRegionProject:
    def test_analytic_rows_are_inside_the_image(self, capsys):
        assert (
            main(["region", "project", "--samples", "5", "--timestamp", TS]) == 0
        )
        lines = capsys.readouterr().out.splitlines()
        data = [ln for ln in lines if ln.startswith("analytic,")]
        assert len(data) == 5
        for row in data:
            _, theta1, theta2 = row.split(",")
            assert ir4_projection_contains(P, float(theta1), float(theta2))

    def test_compare_overlay(self, capsys, tmp_path):
        csv = tmp_path / "overlay.csv"
        js = tmp_path / "overlay.json"
        plot = tmp_path / "overlay.gp"
        assert (
            main(
                [
                    "region",
                    "project",
                    "--compare",
                    "--samples",
                    "10",
                    "--step",
                    "0.25",
                    "--out-csv",
                    str(csv),
                    "--out-json",
                    str(js),
                    "--plot-script",
                    str(plot),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "containment: PASS" in out
        payload = json.loads(js.read_text())
        assert payload["contained"] is True
        assert payload["seeded_orbit_count"] == 10
        assert str(csv) in plot.read_text()

    def test_compare_with_zero_samples(self, capsys):
        argv = ["region", "project", "--compare", "--samples", "0", "--step", "0.5",
                "--timestamp", TS]
        assert main(argv) == 0
        assert "seeded orbits: 0" in capsys.readouterr().out


class TestScanPhases:
    def test_small_grid_census(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        plot = tmp_path / "scan.gp"
        assert (
            main(
                [
                    "scan",
                    "phases",
                    "--step",
                    "0.25",
                    "--out-csv",
                    str(csv),
                    "--plot-script",
                    str(plot),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        assert (
            "16 cells; section periods {1: 7, 3: 9}" in capsys.readouterr().out
        )
        lines = csv.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert str(csv) in plot.read_text()

    def test_env_thread_count_is_recorded_and_neutral(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "volume.json"
        base = [
            "region",
            "volume",
            "--method",
            "montecarlo",
            "--samples",
            "20000",
            "--out",
            str(out),
            "--timestamp",
            TS,
        ]
        assert main(base + ["--threads", "3"]) == 0
        via_flag = out.read_bytes()
        assert json.loads(via_flag)["config"]["threads"] == 3
        monkeypatch.setenv(THREADS_ENV, "3")
        assert main(base) == 0
        assert out.read_bytes() == via_flag

    def test_nonpositive_threads_rejected(self, capsys):
        assert main(["scan", "phases", "--step", "0.25", "--threads", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_bad_step_rejected(self, capsys):
        assert main(["scan", "phases", "--step", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestScanParams:
    def test_small_grid_counts(self, capsys, tmp_path):
        csv = tmp_path / "params.csv"
        assert (
            main(
                [
                    "scan",
                    "params",
                    "--grid",
                    "3x3",
                    "--out-csv",
                    str(csv),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        assert (
            "9 cells; nonempty: IR3: 5, IR4: 2, IR5: 4"
            in capsys.readouterr().out
        )
        rows = [
            ln for ln in csv.read_text().splitlines() if not ln.startswith("#")
        ][1:]
        eps_values = sorted({float(r.split(",")[0]) for r in rows})
        assert eps_values == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_bad_grid_rejected(self, capsys):
        assert main(["scan", "params", "--grid", "1x5"]) == 2
        assert main(["scan", "params", "--grid", "fine"]) == 2


class TestVerify:
    def test_period4_suite_passes(self, capsys):
        assert main(["verify", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        for name in (
            "PASS ir4-existence",
            "PASS intertwining",
            "PASS return-map-algebra",
            "PASS stability",
            "PASS ir4-oracle",
        ):
            assert name in out
        assert "verify: PASS (5 checks)" in out

    def test_all_suites_report(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        assert (
            main(
                [
                    "verify",
                    "--suite",
                    "all",
                    "--samples",
                    "3",
                    "--out",
                    str(out),
                    "--timestamp",
                    TS,
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert len(payload["checks"]) == 9
        assert all(c["ok"] for c in payload["checks"])

    def test_zero_samples_rejected_before_any_output(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--samples", "0", "--out", str(out)]) == 2
        assert "--samples must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_region_fails_with_exit_1(self, capsys):
        assert main(["verify", "--tau", "0.10", "--samples", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL ir4-existence" in out
        assert "verify: FAIL (1 checks)" in out


class TestInterrupt:
    def test_marker_written_for_missing_output(self, capsys, tmp_path, monkeypatch):
        csv = tmp_path / "scan.csv"

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "phase_scan", boom)
        rc = main(
            [
                "scan",
                "phases",
                "--step",
                "0.25",
                "--out-csv",
                str(csv),
                "--timestamp",
                TS,
            ]
        )
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err
        lines = csv.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert lines[-1] == FAILED_MARKER

    def test_marker_appended_to_partial_output(self, capsys, tmp_path, monkeypatch):
        csv = tmp_path / "scan.csv"
        csv.write_text("partial\n")

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "phase_scan", boom)
        assert (
            main(["scan", "phases", "--out-csv", str(csv), "--timestamp", TS])
            == 130
        )
        assert csv.read_text() == f"partial\n{FAILED_MARKER}\n"

    @pytest.mark.parametrize(
        "argv, patched",
        [
            (["verify", "--samples", "3"], "region_exists"),
            (["region", "volume", "--method", "both", "--samples", "100"], "region_volume"),
        ],
        ids=["verify", "region-volume"],
    )
    def test_marker_written_for_json_output(self, capsys, tmp_path, monkeypatch, argv, patched):
        out = tmp_path / "out.json"

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, patched, boom)
        assert main([*argv, "--out", str(out), "--timestamp", TS]) == 130
        assert "interrupted" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert lines[-2:] == [f"# timestamp: {TS}", FAILED_MARKER]


#: Every file-writing command: its argv, the computation an interrupt is
#: raised from, and each of its output flags with a file name.
WRITERS = {
    "simulate": (["simulate", "--center", "ir4"], "init_engine",
                 {"--out-text": "trace.txt", "--out-jsonl": "trace.jsonl"}),
    "poincare": (["poincare", "--center", "ir4"], "detect_periodicity",
                 {"--out": "report.json"}),
    "region-volume": (["region", "volume", "--samples", "100"], "region_volume",
                      {"--out": "volume.json"}),
    "region-sample": (["region", "sample", "--samples", "5"], "sample_interior",
                      {"--out": "points.csv"}),
    "region-project": (["region", "project", "--samples", "5"], "sample_interior",
                       {"--out-csv": "project.csv", "--plot-script": "project.gp"}),
    "region-project-compare": (
        ["region", "project", "--compare", "--samples", "5", "--step", "0.5"],
        "projection_compare",
        {"--out-csv": "project.csv", "--out-json": "project.json",
         "--plot-script": "project.gp"},
    ),
    "scan-phases": (["scan", "phases", "--step", "0.5"], "phase_scan",
                    {"--out-csv": "phases.csv", "--out-json": "phases.json",
                     "--plot-script": "phases.gp"}),
    "scan-params": (["scan", "params", "--grid", "2x2"], "param_scan",
                    {"--out-csv": "params.csv", "--out-json": "params.json",
                     "--plot-script": "params.gp"}),
    "verify": (["verify", "--samples", "3"], "region_exists", {"--out": "verify.json"}),
}


class TestOutputPath:
    """Every output a command is asked for is written, or on interrupt left
    as its header plus the FAILED marker; an output the command would drop
    is refused before it computes."""

    @pytest.mark.parametrize("interrupted", [False, True], ids=["run", "interrupt"])
    @pytest.mark.parametrize("case", sorted(WRITERS))
    def test_every_requested_file(self, capsys, tmp_path, monkeypatch, case, interrupted):
        argv, computation, outputs = WRITERS[case]
        for flag, name in outputs.items():
            argv = [*argv, flag, str(tmp_path / name)]
        if interrupted:

            def boom(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, computation, boom)
        assert main([*argv, "--timestamp", TS]) == (130 if interrupted else 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs.values())
        for name in outputs.values():
            lines = (tmp_path / name).read_text().splitlines()
            if interrupted:
                assert lines[0] == f"# isochron {__version__}"
                assert lines[-2:] == [f"# timestamp: {TS}", FAILED_MARKER]
            else:
                assert lines and FAILED_MARKER not in lines

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["scan", "phases", "--step", "0.5", "--plot-script"], "needs --out-csv"),
            (["scan", "params", "--grid", "2x2", "--plot-script"], "needs --out-csv"),
            (["region", "project", "--samples", "5", "--plot-script"], "needs --out-csv"),
            (["region", "project", "--samples", "5", "--out-json"], "needs --compare"),
            (["scan", "phases", "--step", "0.5", "--out-csv", "SAME", "--out-json"],
             "--out-csv and --out-json name the same file"),
            (["scan", "params", "--grid", "2x2", "--out-csv", "SAME", "--plot-script"],
             "--out-csv and --plot-script name the same file"),
        ],
        ids=["scan-phases-plot", "scan-params-plot", "region-project-plot",
             "region-project-json", "scan-phases-same-path", "scan-params-same-script"],
    )
    def test_dropped_output_rejected(self, capsys, tmp_path, argv, error):
        # "SAME" stands for a second spelling of the output path given last.
        argv = [f"{tmp_path}/./out" if a == "SAME" else a for a in argv]
        assert main([*argv, str(tmp_path / "out")]) == 2
        assert error in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSeed:
    """Every seeded command rejects a negative seed, from a flag or from
    --config, before it computes or creates a file."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "volume", "--method", "both", "--samples", "10", "--out"],
            ["region", "sample", "--samples", "5", "--out"],
            ["region", "project", "--samples", "5", "--out-csv"],
            ["scan", "params", "--grid", "2x2", "--volume-kinds", "ir4",
             "--volume-method", "montecarlo", "--volume-samples", "10", "--out-csv"],
            ["verify", "--samples", "3", "--out"],
        ],
        ids=["region-volume", "region-sample", "region-project", "scan-params", "verify"],
    )
    def test_negative_seed_rejected(self, capsys, tmp_path, argv, source):
        out = tmp_path / "out"
        if source == "flag":
            argv = [*argv, str(out), "--seed", "-1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"seed": -1}))
            argv = [*argv, str(out), "--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--seed must be non-negative, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestTol:
    """Every command with --tol rejects a NaN, infinite or negative
    tolerance, from a flag or from --config, before it computes or creates
    a file."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0], ids=str)
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["poincare", "--center", "ir4", "--out"], "tol must be positive and finite"),
            (["scan", "phases", "--step", "0.5", "--out-csv"], "tol must be positive and finite"),
            (["region", "project", "--compare", "--samples", "5", "--out-csv"],
             "--tol must be finite and non-negative"),
            (["verify", "--samples", "3", "--out"], "--tol must be finite and non-negative"),
        ],
        ids=["poincare", "scan-phases", "region-project", "verify"],
    )
    def test_bad_tol_rejected(self, capsys, tmp_path, argv, message, source, value):
        out = tmp_path / "out"
        if source == "flag":
            argv = [*argv, str(out), "--tol", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"tol": value}))
            argv = [*argv, str(out), "--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{message}, got {value}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestMaxIter:
    """poincare and scan phases reject a section-return budget below 1,
    from a flag or from --config, naming --max-iter, before they compute or
    create a file."""

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["poincare", "--center", "ir4", "--out"],
            ["scan", "phases", "--step", "0.5", "--out-csv"],
        ],
        ids=["poincare", "scan-phases"],
    )
    def test_bad_max_iter_rejected(self, capsys, tmp_path, argv, source, value):
        out = tmp_path / "out"
        if source == "flag":
            argv = [*argv, str(out), "--max-iter", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"max_iter": value}))
            argv = [*argv, str(out), "--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: --max-iter must be >= 1, got {value}" in captured.err
        assert captured.out == ""
        assert not out.exists()

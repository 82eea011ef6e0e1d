"""End-to-end tests for the command-line surface: option resolution and
precedence, output-file headers, dataset layout, exit codes, and the
interrupted-run marker."""

import json
import math

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
from isochron import cli, regions, sweep
from isochron.cli import FAILED_MARKER, THREADS_ENV, main
from isochron.engine import Engine

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

#: Pinned wall-clock stamp: outputs carrying it must be byte-reproducible.
TS = "2026-01-01T00:00:00+00:00"

GENERIC_SIGMA = (0.30, 0.10, 0.40)
#: region project with an output, and --compare left to the config file.
PROJECT_COMPARE = ["region", "project", "--samples", "5", "--out-csv", "{out}"]
# A state of the right shape with an FTD entry that is no number.
BAD_STATE = '{"phases": [0.1, 0.2, 0.0], "ftds": [[], [], ["a"]]}'


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
            (PROJECT_COMPARE, {"compare": "false"}, "--compare"),
            (PROJECT_COMPARE, {"compare": 1}, "--compare"),
            (PROJECT_COMPARE, {"compare": []}, "--compare"),
            (
                ["region", "sample", "--samples", "3", "--out", "{out}"],
                {"timestamp": [1]},
                "--timestamp",
            ),
            (
                ["scan", "phases", "--step", "0.5", "--out-csv", "{out}"],
                {"timestamp": 5},
                "--timestamp",
            ),
            (["scan", "params", "--out-csv", "{out}"], {"grid": ["a", "b"]}, "--grid"),
            (["scan", "params", "--out-csv", "{out}"], {"grid": [2.5, 3]}, "--grid"),
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

    @pytest.mark.parametrize(
        "argv, config, option, default",
        [
            (["region", "sample", "--out", "{out}"], {"samples": None}, "samples", 100),
            (
                ["region", "project", "--samples", "5", "--out-csv", "{out}"],
                {"step": None, "compare": True},
                "step",
                0.05,
            ),
        ],
    )
    def test_null_in_a_config_file_is_the_default(
        self, capsys, tmp_path, argv, config, option, default
    ):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(config))
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        assert main(argv + ["--config", str(cfg), "--timestamp", TS]) == 0
        resolved = json.loads(out.read_text().splitlines()[1][len("# config: ") :])
        assert resolved[option] == default

    @pytest.mark.parametrize(
        "config, option, message",
        [
            ({"samples": 2.5}, "--samples", "expected an integer"),
            ({"samples": True}, "--samples", "expected an integer"),
            ({"samples": "abc"}, "--samples", "expected an integer"),
            ({"eps": "x"}, "--eps", "expected a number"),
            ({"eps": False}, "--eps", "expected a number"),
            ({"eps": 10**400}, "--eps", "out of the double range"),
        ],
        ids=["samples-float", "samples-bool", "samples-text", "eps-text", "eps-bool", "eps-huge"],
    )
    def test_number_of_the_wrong_json_type_is_refused(
        self, capsys, tmp_path, config, option, message
    ):
        """An integer option takes a JSON integer and a float option a JSON
        number, neither a boolean; before, 2.5 and true were cast to 2 and 1
        samples and a string was refused without the option's name."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "points.csv"
        cfg.write_text(json.dumps(config))
        assert main(["region", "sample", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {option}: ")
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, option, flag, config",
        [
            (["simulate", "--out-text", "{out}"], "state", BAD_STATE, json.loads(BAD_STATE)),
            (["poincare", "--out", "{out}"], "state", BAD_STATE, json.loads(BAD_STATE)),
            (["region", "member"], "sigma", "a,b,c", ["a", "b", "c"]),
        ],
        ids=["simulate", "poincare", "region-member"],
    )
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_a_value_that_reads_no_floats_names_its_option(
        self, capsys, tmp_path, argv, option, flag, config, form
    ):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        if form == "flag":
            argv += [f"--{option}", flag]
        else:
            cfg.write_text(json.dumps({option: config}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --{option}: cannot read ")
        assert captured.out == ""
        assert not out.exists()

    def test_integral_number_for_a_float_option(self, capsys, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "points.csv"
        cfg.write_text(json.dumps({"b": 3, "samples": 2}))
        argv = ["region", "sample", "--config", str(cfg), "--out", str(out), "--timestamp", TS]
        assert main(argv) == 0
        resolved = json.loads(out.read_text().splitlines()[1][len("# config: ") :])
        assert (resolved["b"], resolved["samples"]) == (3.0, 2)
        assert type(resolved["b"]) is float

    def test_compare_false_in_a_config_file_runs_no_comparison(self, capsys, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"compare": False}))
        argv = PROJECT_COMPARE + ["--config", str(cfg), "--timestamp", TS]
        assert main([arg.replace("{out}", str(out)) for arg in argv]) == 0
        assert capsys.readouterr().out == "projected 5 family points to the phase plane\n"
        assert out.read_text().splitlines()[-6] == "set,theta1,theta2"

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


#: simulate and poincare, each writing one output file at {out}.
STATE_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["simulate", "--out-text", "{out}"], ["poincare", "--out", "{out}"]],
    ids=["simulate", "poincare"],
)


class TestStateOption:
    """A --state object, from the flag or from --config, is refused with
    exit 2 and the option's name before any output is written."""

    def run_state(self, capsys, tmp_path, argv, state, form):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        if form == "flag":
            argv += ["--state", json.dumps(state)]
        else:
            cfg.write_text(json.dumps({"state": state}))
            argv += ["--config", str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        return code, captured.err

    @STATE_COMMANDS
    @pytest.mark.parametrize(
        "state",
        [
            {"phases": ["0.1", 0.2, 0.0], "ftds": [[], [], [0.0]]},
            {"phases": [0.1, False, 0.0], "ftds": [[], [], [0.0]]},
            {"phases": [0.1, 0.2, 0.0], "ftds": [[], [], ["0"]]},
            {"phases": [0.1, 0.2, 0.0], "ftds": [[], [], [False]]},
        ],
        ids=["phase-text", "phase-bool", "ftd-text", "ftd-bool"],
    )
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_entries_must_be_json_numbers(self, capsys, tmp_path, argv, state, form):
        """Before, each entry was read with float(), so "0.1" and false ran
        as 0.1 and 0.0."""
        code, err = self.run_state(capsys, tmp_path, argv, state, form)
        assert code == 2
        assert err.startswith("error: --state: cannot read ")
        assert err.endswith(": expected a number\n")

    @STATE_COMMANDS
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_a_broken_invariant_names_the_option(self, capsys, tmp_path, argv, form):
        state = {"phases": [0.1, 0.2, 0.0], "ftds": [[], [], [0.7]]}
        code, err = self.run_state(capsys, tmp_path, argv, state, form)
        assert code == 2
        assert err == (
            "error: --state: firing-time distance 0.7 of oscillator 3 outside [0, tau=0.58]\n"
        )

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_poincare_names_the_option_of_an_off_section_start(self, capsys, tmp_path, form):
        state = {"phases": [0.1, 0.2, 0.3], "ftds": [[], [], []]}
        argv = ["poincare", "--out", "{out}"]
        code, err = self.run_state(capsys, tmp_path, argv, state, form)
        assert code == 2
        assert err == (
            "error: --state: expected phase 0 and a zero firing-time distance for oscillator 3\n"
        )


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

    @pytest.mark.parametrize("method", ["exact", "montecarlo", "both"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_sample_count_rejected_before_any_output(self, capsys, tmp_path, method, samples):
        # The exact volume draws no sample, but a count below 1 is refused
        # all the same, before the exact line is printed or a report declared.
        out = tmp_path / "volume.json"
        argv = ["region", "volume", "--method", method, "--samples", samples, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [["region", "sample", "--out"], ["region", "project", "--out-csv"]],
        ids=["sample", "project"],
    )
    def test_negative_sample_count_names_the_option(self, capsys, tmp_path, argv, source):
        # Zero points are a valid request here; a negative count is refused
        # naming --samples, flag or config entry, before any output is declared.
        out = tmp_path / "out.csv"
        argv = [*argv, str(out)]
        if source == "flag":
            argv += ["--samples", "-3"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"samples": -3}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples must be at least 0, got -3\n"
        assert not out.exists()

    def test_empty_region_exits_2(self, capsys):
        argv = ["region", "sample", "--kind", "ir4", "--b", "1.5", "--eps", "0.7",
                "--tau", "0.8", "--samples", "10"]
        assert main(argv) == 2
        assert "IR4 is empty at (eps=0.7, tau=0.8)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "sample", "--kind", "ir4", "--out"],
            ["region", "project", "--out-csv"],
            ["region", "project", "--compare", "--out-csv"],
        ],
        ids=["sample", "project", "compare"],
    )
    def test_empty_family_is_one_configuration_error(self, capsys, tmp_path, argv):
        # Every command that needs the period-4 family refuses an empty one
        # the same way, before it writes anything.
        out = tmp_path / "out.csv"
        assert main([*argv, str(out), "--eps", "0.7", "--tau", "0.6"]) == 2
        assert capsys.readouterr().err == "error: IR4 is empty at (eps=0.7, tau=0.6)\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("option", ["step", "tol"])
    def test_step_and_tol_need_compare(self, capsys, tmp_path, option, source):
        # Only the overlay scans a grid and checks containment, so a step
        # or a tolerance without it is refused before any output is
        # declared.
        out = tmp_path / "out.csv"
        argv = ["region", "project", "--samples", "5", "--out-csv", str(out)]
        if source == "flag":
            argv += [f"--{option}", "7"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({option: 7}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"--{option} needs --compare" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_header_records_no_overlay_options_without_compare(self, capsys):
        assert main(["region", "project", "--samples", "2", "--timestamp", TS]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        resolved = json.loads(header[len("# config: ") :])
        assert resolved["command"] == "region project"
        assert "step" not in resolved and "tol" not in resolved


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

    def test_builds_no_scan_records(self, capsys, tmp_path, monkeypatch):
        # The summary and all three outputs read the scan's columns; only a
        # library caller that asks for records builds them.
        built = []
        init = sweep.ScanRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sweep.ScanRecord, "__init__", counting)
        outputs = ["--out-csv", "--out-json", "--plot-script"]
        argv = ["scan", "phases", "--step", "0.1", "--timestamp", TS]
        argv += [item for i, flag in enumerate(outputs) for item in (flag, str(tmp_path / f"{i}"))]
        assert main(argv) == 0
        assert "100 cells" in capsys.readouterr().out
        assert built == []
        assert len(sweep.phase_scan(sweep.ModelParams(3.0, 0.58, 3, 0.58), step=0.5).records) == 4
        assert len(built) == 4

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

    def test_threads_variable_not_an_integer_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "abc")
        assert main(["scan", "phases", "--step", "0.25"]) == 2
        assert capsys.readouterr().err == f"error: {THREADS_ENV} must be an integer, got 'abc'\n"

    def test_nonpositive_threads_rejected(self, capsys):
        assert main(["scan", "phases", "--step", "0.25", "--threads", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_bad_step_rejected(self, capsys):
        assert main(["scan", "phases", "--step", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGridBounds:
    """A scan grid's size is checked before any of its values is made: a
    step too fine or a grid too large exits 2 naming its option, before
    any output is declared."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        # A refused grid never reaches a scan, which would build its values
        # for minutes.
        def ran(*args, **kwargs):
            raise AssertionError("the scan ran")

        for name in ("phase_scan", "projection_compare", "param_scan"):
            monkeypatch.setattr(cli, name, ran)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 3e-4])
    @pytest.mark.parametrize(
        "command", [["scan", "phases"], ["region", "project", "--compare"]], ids=["scan", "compare"]
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_too_fine_step_names_the_option(self, capsys, tmp_path, step, command, source):
        out = tmp_path / "out.csv"
        argv = [*command, "--out-csv", str(out)]
        if source == "flag":
            argv += ["--step", repr(step)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"step": step}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --step {step!r} is too fine: a scan grid holds at most 3162 values"
            " per axis (10000000 cells)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["3163x3162", [3162, 3163]])
    def test_too_large_grid_names_the_option(self, capsys, tmp_path, grid):
        out = tmp_path / "params.csv"
        argv = ["scan", "params", "--out-csv", str(out)]
        if isinstance(grid, str):
            argv += ["--grid", grid]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"grid": grid}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid: ")
        assert captured.err.endswith(": a scan grid holds at most 10000000 cells\n")
        assert not out.exists()

    def test_grid_counts_are_checked_before_any_value_is_made(self):
        # 10^16 cells, refused from the two counts alone.
        with pytest.raises(ValueError, match="at most 10000000 cells"):
            cli._parse_grid("100000000x100000000")
        assert cli._parse_grid("3162x3162") == (3162, 3162)


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

    @pytest.mark.parametrize("grid", ["1x5", "fine", [1, 2, 3], [1, 5]])
    def test_bad_grid_rejected(self, capsys, tmp_path, grid):
        # A grid from a config file obeys the flag's KxM rule: two counts,
        # each at least 2.
        argv = ["scan", "params"]
        if isinstance(grid, str):
            argv += ["--grid", grid]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"grid": grid}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --grid: ")

    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_bad_volume_sample_count_rejected(self, capsys, tmp_path, method, samples, via_config):
        # Refused before the scan, whichever volume method runs, so no
        # dataset header carries the count.
        csv = tmp_path / "params.csv"
        argv = ["scan", "params", "--grid", "2x2", "--volume-kinds", "ir4",
                "--volume-method", method, "--out-csv", str(csv)]
        if via_config:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"volume_samples": samples}))
            argv += ["--config", str(config)]
        else:
            argv += ["--volume-samples", str(samples)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --volume-samples must be at least 1, got {samples}\n"
        assert not csv.exists()


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

    def test_a_failing_oracle_fails_the_suite_with_exit_1(self, capsys, monkeypatch):
        # Every cycle of the oracle's table reports a transient of one
        # return, which no on-orbit family state needs.
        table = regions._cycle_table

        def transient(*args):
            cycles = table(*args)
            return cycles._replace(transients=cycles.transients + 1)

        monkeypatch.setattr(regions, "_cycle_table", transient)
        assert main(["verify", "--samples", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL ir4-oracle: section periods {4: 3}, 3 failures" in out
        assert "verify: FAIL (5 checks)" in out

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


    @pytest.mark.parametrize("value", ["a\nb.csv", "a\rb.csv"], ids=["lf", "cr"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "phases", "--step", "0.5"],
            ["scan", "params", "--grid", "2x2"],
            ["region", "project", "--samples", "5"],
        ],
        ids=["scan-phases", "scan-params", "region-project"],
    )
    def test_plotted_csv_path_with_a_line_break_rejected(
        self, capsys, tmp_path, argv, source, value
    ):
        # The plot script names the CSV in a gnuplot string, which cannot
        # hold a line break: refused before any output is declared.
        csv_path, script = str(tmp_path / value), tmp_path / "plot.gp"
        argv = [*argv, "--plot-script", str(script)]
        if source == "flag":
            argv = [*argv, "--out-csv", csv_path]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"out_csv": csv_path}))
            argv = [*argv, "--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: --out-csv must be one line to be plotted, got {csv_path!r}" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if source == "config" else [])


class TestModelOptions:
    """A model parameter outside its domain, from a flag or from --config,
    is refused with the rule it breaks before any output is declared; so is
    a network size other than 3 where the starts are three-oscillator
    states."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, option, value, message",
        [
            (["scan", "phases", "--step", "0.5", "--out-csv"], "tau", math.inf,
             "delay tau must be finite and non-negative, got inf"),
            (["scan", "phases", "--step", "0.5", "--out-csv"], "b", math.inf,
             "rise steepness b must be positive and finite, got inf"),
            (["verify", "--samples", "3", "--out"], "eps", math.inf,
             "coupling eps must be finite and non-negative, got inf"),
            (["scan", "phases", "--step", "0.5", "--out-csv"], "n", 4,
             "--n must be 3: scan phases runs three oscillators, got 4"),
            (["verify", "--samples", "3", "--out"], "n", 4,
             "--n must be 3: verify runs three oscillators, got 4"),
        ],
        ids=["scan-phases-tau", "scan-phases-b", "verify-eps", "scan-phases-n", "verify-n"],
    )
    def test_bad_value_rejected(self, capsys, tmp_path, argv, option, value, message, source):
        out = tmp_path / "out"
        if source == "flag":
            argv = [*argv, str(out), f"--{option}", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({option: value}))
            argv = [*argv, str(out), "--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_steepness_past_the_double_range_rejected(self, capsys, tmp_path, source):
        """expm1(b) overflows past b = ln(DBL_MAX); before, b = 800 ended
        in an OverflowError traceback."""
        argv = ["region", "exists", "--eps", "0.5", "--tau", "0.3"]
        if source == "flag":
            argv += ["--b", "800"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"b": 800}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: rise steepness b must be at most 709.78" in captured.err
        assert "got 800.0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("eps", ["300", "1e308"])
    def test_coupling_past_the_exponent_range_runs(self, capsys, eps):
        """b * m * eps_hat past ln(DBL_MAX) overflowed exp; such a reception
        fires from any phase.  Before, each command ended in an
        OverflowError traceback."""
        common = ["--eps", eps, "--tau", "0.3"]
        assert main(["scan", "phases", "--step", "0.5", *common]) == 0
        assert "4 cells; section periods {1: 4}" in capsys.readouterr().out
        assert main(["region", "exists", *common]) == 0
        assert capsys.readouterr().out.strip() == "false"
        assert main(["region", "volume", *common]) == 0
        assert capsys.readouterr().out.strip() == "exact: 0"


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


class TestTimestamp:
    """A timestamp holding a line break, from a flag or from --config, is
    rejected before any output is declared: it would end the header's
    comment line."""

    @pytest.mark.parametrize("value", ["2000\ntheta1,x", "2000\r"], ids=["lf", "cr"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "phases", "--step", "0.5", "--out-csv"],
            ["region", "sample", "--samples", "3", "--out"],
            ["verify", "--samples", "3", "--out"],
        ],
        ids=["scan-phases", "region-sample", "verify"],
    )
    def test_line_break_rejected(self, capsys, tmp_path, argv, source, value):
        out = tmp_path / "out"
        if source == "flag":
            argv = [*argv, str(out), "--timestamp", value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"timestamp": value}))
            argv = [*argv, str(out), "--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: --timestamp must be one line, got {value!r}" in captured.err
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

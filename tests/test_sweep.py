"""Tests for the dataset pipelines: phase-grid scans, parameter-plane
existence maps, the analytic/numeric projection overlay, stability probes,
the boundary-escape demonstration, and the reproducible dataset writers."""

import functools
import json
import re

import pytest

from isochron import (
    DEFAULT_SCAN_MAX_ITER,
    DEFAULT_SCAN_STEP,
    DomainError,
    ModelParams,
    PeriodicityResult,
    __version__,
    boundary_escape_demo,
    dataset_header,
    detect_periodicity,
    emit_param_scan_plot,
    emit_phase_scan_plot,
    emit_projection_plot,
    eq_init_state,
    format_trace_text,
    init_engine,
    ir4_projection_contains,
    network_state,
    param_scan,
    phase_scan,
    projection_compare,
    pulse_equivalent,
    region_center,
    region_exists,
    region_spec,
    region_volume,
    s_embed,
    stability_probe,
    validate_state,
    write_param_scan_csv,
    write_param_scan_json,
    write_phase_scan_csv,
    write_phase_scan_json,
    write_projection_csv,
    write_projection_json,
)
from isochron import sweep
from isochron.engine import EngineStallError

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)
# Period-4 family exists here, but a step-0.05 phase grid finds none of
# its orbits; seeding from family points recovers them.
P_SPARSE = ModelParams(b=3.0, eps=0.45, n=3, tau=0.45)
# No isochronous family of any size exists here.
P_OUTSIDE = ModelParams(b=3.0, eps=0.30, n=3, tau=0.30)


PARAM_GRID = (0.2, 0.45, 0.7)


@functools.lru_cache(maxsize=None)
def scan05():
    """Reference-parameter phase scan on the step-0.05 grid, shared
    across tests."""
    return phase_scan(P, step=0.05)


@functools.lru_cache(maxsize=None)
def scan25():
    """Tiny reference-parameter scan for writer tests."""
    return phase_scan(P, step=0.25)


@functools.lru_cache(maxsize=None)
def param_grid_scan():
    """Existence/volume map over the shared 3x3 parameter grid."""
    return param_scan(PARAM_GRID, PARAM_GRID, volume_kinds=("IR4",))


@functools.lru_cache(maxsize=None)
def reference_overlay():
    """Projection overlay at the reference parameters."""
    return projection_compare(P, n_samples=50, seed=0, step=0.05)


class TestEqInitState:
    def test_memory_present_within_delay_window(self):
        state = eq_init_state(P, 0.2, 0.4)
        assert state.phases == (0.2, 0.4, 0.0)
        assert state.ftds == ((0.2,), (0.4,), (0.0,))

    def test_boundary_value_keeps_memory(self):
        state = eq_init_state(P, P.tau, 0.1)
        assert state.ftds[0] == (P.tau,)

    def test_memory_absent_beyond_delay_window(self):
        state = eq_init_state(P, 0.9, 0.59)
        assert state.ftds[0] == ()
        assert state.ftds[1] == ()
        assert state.phases == (0.9, 0.59, 0.0)

    def test_origin_is_synchronous_state(self):
        state = eq_init_state(P, 0.0, 0.0)
        assert state.phases == (0.0, 0.0, 0.0)
        assert state.ftds == ((0.0,), (0.0,), (0.0,))

    def test_all_grid_states_are_valid(self):
        for i in range(10):
            for j in range(10):
                validate_state(P, eq_init_state(P, i * 0.1, j * 0.1))


class TestPhaseScanGrid:
    @pytest.mark.parametrize(
        "step,expected",
        [(0.5, 2), (0.25, 4), (0.2, 5), (0.1, 10)],
    )
    def test_grid_size_excludes_upper_endpoint(self, step, expected):
        result = phase_scan(P, step=step, max_iter=200)
        assert len(result.records) == expected * expected
        values = sorted({r.theta1 for r in result.records})
        assert values == pytest.approx([i * step for i in range(expected)])
        assert max(values) < 1.0

    def test_records_in_row_major_grid_order(self):
        result = phase_scan(P, step=0.25, max_iter=200)
        cells = [(r.theta1, r.theta2) for r in result.records]
        assert cells == sorted(cells)

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.0, 1.5])
    def test_rejects_degenerate_step(self, step):
        with pytest.raises(DomainError):
            phase_scan(P, step=step)

    def test_defaults_exported(self):
        assert DEFAULT_SCAN_STEP == 0.01
        assert DEFAULT_SCAN_MAX_ITER == 10_000


class TestPhaseScanReference:
    def test_every_cell_is_periodic(self):
        assert scan05().not_periodic_count() == 0
        assert all(r.periodic for r in scan05().records)

    def test_observed_periods(self):
        assert scan05().observed_periods() == {1, 2, 3, 4, 5}

    def test_period_census(self):
        census = {}
        for record in scan05().records:
            census[record.poincare_period] = census.get(record.poincare_period, 0) + 1
        assert census == {1: 167, 2: 54, 3: 169, 4: 4, 5: 6}

    def test_origin_cell_is_synchronous_fixed_point(self):
        origin = scan05().records[0]
        assert (origin.theta1, origin.theta2) == (0.0, 0.0)
        assert origin.transient_iters == 0
        assert origin.poincare_period == 1
        assert origin.orbit_period == pytest.approx(P.tau, abs=1e-12)
        assert origin.projection == ((0.0, 0.0),)

    def test_orbit_periods_are_delay_multiples(self):
        multiple = {1: 1.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 3.0}
        for record in scan05().records:
            expected = multiple[record.poincare_period] * P.tau
            assert record.orbit_period == pytest.approx(expected, abs=1e-9)

    def test_period4_cells_share_one_signature(self):
        tp4 = [r for r in scan05().records if r.poincare_period == 4]
        assert len(tp4) == 4
        assert len({r.signature_id for r in tp4}) == 1

    def test_period3_cells_split_into_three_relabelings(self):
        tp3 = [r for r in scan05().records if r.poincare_period == 3]
        assert len({r.signature_id for r in tp3}) == 3

    def test_signature_table_is_interned(self):
        signatures = scan05().signatures
        assert len(signatures) == 7
        for i, a in enumerate(signatures):
            for b in signatures[i + 1 :]:
                assert not pulse_equivalent(a, b)
        for record in scan05().records:
            assert 0 <= record.signature_id < len(signatures)

    def test_projection_points_lie_in_unit_square(self):
        for record in scan05().records:
            assert len(record.projection) >= 1
            for x, y in record.projection:
                assert 0.0 <= x < 1.0
                assert 0.0 <= y < 1.0

    def test_scan_is_sound_on_spot_checks(self):
        # Re-run the detector from scratch on a systematic sample of cells
        # and require identical classification.
        records = scan05().records[::37]
        for record in records:
            redone = detect_periodicity(
                P, eq_init_state(P, record.theta1, record.theta2)
            )
            assert isinstance(redone, PeriodicityResult)
            assert redone.poincare_period == record.poincare_period
            assert redone.transient_iters == record.transient_iters
            assert redone.orbit_period == pytest.approx(
                record.orbit_period, abs=1e-12
            )

    def test_parallel_scan_matches_serial(self):
        serial = phase_scan(P, step=0.1, workers=1)
        parallel = phase_scan(P, step=0.1, workers=3)
        assert serial.records == parallel.records
        assert serial.signatures == parallel.signatures

    def test_blocks_and_workers_leave_the_bytes_unchanged(self, tmp_path, monkeypatch):
        # One task per grid row, serially and on two workers, against the
        # whole step-0.1 grid in one block.
        written = []
        for block, workers in ((1000, 1), (1, 1), (1, 2)):
            monkeypatch.setattr(sweep, "_SCAN_BLOCK_CELLS", block)
            result = phase_scan(P, step=0.1, workers=workers)
            csv_path = tmp_path / f"{block}-{workers}.csv"
            json_path = tmp_path / f"{block}-{workers}.json"
            write_phase_scan_csv(result, csv_path)
            write_phase_scan_json(result, json_path)
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert written[0] == written[1] == written[2]

    def test_first_failing_cell_in_grid_order_raises(self):
        # At zero delay this coupling stalls the cascade of some cells.
        stall = ModelParams(b=3.0, eps=1.6, n=3, tau=0.0)
        first = None
        for t1 in (0.0, 0.5):
            for t2 in (0.0, 0.5):
                try:
                    detect_periodicity(stall, eq_init_state(stall, t1, t2))
                except EngineStallError as exc:
                    first = first or exc
        assert first is not None
        for workers in (1, 2):
            with pytest.raises(EngineStallError) as exc:
                phase_scan(stall, step=0.5, workers=workers)
            assert str(exc.value) == str(first)

    def test_config_dict_round_trips_through_json(self):
        config = scan05().config_dict()
        assert config["command"] == "phase_scan"
        assert json.loads(json.dumps(config)) == config


class TestParamScan:
    def test_grid_is_eps_major(self):
        cells = [(r.eps, r.tau) for r in param_grid_scan().records]
        assert cells == [(e, t) for e in PARAM_GRID for t in PARAM_GRID]

    def test_existence_flags_match_direct_evaluation(self):
        for record in param_grid_scan().records:
            params = ModelParams(b=3.0, eps=record.eps, n=3, tau=record.tau)
            assert record.exists["IR3"] == region_exists(params, "IR3")
            assert record.exists["IR4"] == region_exists(params, "IR4")
            assert record.exists["IR5"] == region_exists(params, "IR5")

    def test_volume_zero_exactly_where_family_is_empty(self):
        for record in param_grid_scan().records:
            assert record.volumes["IR4"] is not None
            assert (record.volumes["IR4"] > 0.0) == record.exists["IR4"]
            assert record.volumes["IR3"] is None
            assert record.volumes["IR5"] is None

    def test_volumes_match_direct_evaluation(self):
        for record in param_grid_scan().records:
            params = ModelParams(b=3.0, eps=record.eps, n=3, tau=record.tau)
            direct = region_volume(region_spec(params, "IR4")).volume
            assert record.volumes["IR4"] == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_frozen_reference_volume(self):
        by_cell = {(r.eps, r.tau): r for r in param_grid_scan().records}
        assert by_cell[(0.45, 0.45)].volumes["IR4"] == pytest.approx(
            0.003101626636086506, rel=1e-12
        )

    def test_monte_carlo_cells_are_worker_invariant(self):
        kwargs = dict(
            volume_kinds=("IR4",),
            volume_method="montecarlo",
            volume_samples=20_000,
            seed=7,
        )
        serial = param_scan((0.45, 0.7), (0.45, 0.7), workers=1, **kwargs)
        parallel = param_scan((0.45, 0.7), (0.45, 0.7), workers=2, **kwargs)
        assert serial.records == parallel.records
        assert any(r.volumes["IR4"] > 0.0 for r in serial.records)

    @pytest.mark.parametrize(
        "eps_values,tau_values", [((0.5,), (0.4, 0.6)), ((0.4, 0.6), (0.5,))]
    )
    def test_rejects_single_value_axes(self, eps_values, tau_values):
        with pytest.raises(DomainError):
            param_scan(eps_values, tau_values)

    def test_config_dict_round_trips_through_json(self):
        config = param_grid_scan().config_dict()
        assert config["command"] == "param_scan"
        assert json.loads(json.dumps(config)) == config


class TestProjectionCompare:
    def test_scan_attractors_identified_and_contained(self):
        report = reference_overlay()
        assert report.numeric_orbit_count == 4
        assert report.mirror_orbit_count == 2
        assert report.unidentified_period4_count == 0
        assert len(report.numeric_points) == 16
        assert report.contained
        assert report.violations == ()

    def test_analytic_points_pass_membership(self):
        report = reference_overlay()
        assert len(report.analytic_points) == 50
        for x, y in report.analytic_points:
            assert ir4_projection_contains(P, x, y, tol=1e-9)

    def test_numeric_points_pass_membership_individually(self):
        for x, y in reference_overlay().numeric_points:
            assert ir4_projection_contains(P, x, y, tol=1e-6)

    def test_seeding_recovers_every_sampled_orbit(self):
        report = reference_overlay()
        assert report.seeded_orbit_count == 50
        assert len(report.seeded_points) == 4 * 50
        for x, y in report.seeded_points:
            assert ir4_projection_contains(P, x, y, tol=1e-6)

    def test_sparse_parameters_scan_finds_no_family_orbit(self):
        # The family exists here, yet no grid cell converges to it; the
        # overlay is vacuously contained and seeding still recovers orbits.
        report = projection_compare(P_SPARSE, n_samples=20, seed=0, step=0.05)
        assert region_exists(P_SPARSE, "IR4")
        assert report.numeric_orbit_count == 0
        assert report.numeric_points == ()
        assert report.unidentified_period4_count == 0
        assert report.contained
        assert len(report.analytic_points) == 20
        assert report.seeded_orbit_count == 20

    def test_rejects_parameters_without_family(self):
        with pytest.raises(DomainError):
            projection_compare(P_OUTSIDE, n_samples=5)

    def test_json_dict_round_trips(self):
        payload = reference_overlay().to_json_dict()
        assert payload["contained"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestStabilityProbe:
    def test_center_perturbations_converge_in_one_return(self):
        report = stability_probe(P, region_center("IR4", P.tau), n_trials=100, seed=0)
        assert report.ok
        assert report.n_run == 100
        assert report.n_refused == 0
        assert report.failures == ()
        assert report.max_distance <= 1e-12

    def test_wide_perturbations_are_refused_not_failed(self):
        report = stability_probe(
            P, region_center("IR4", P.tau), dsigma_max=0.2, n_trials=100, seed=3
        )
        assert report.n_run + report.n_refused == 100
        assert report.n_refused > 0
        assert report.n_run > 0
        assert report.ok
        assert report.max_distance <= 1e-12

    def test_failures_carry_the_traced_return(self):
        # A negative tolerance fails every trial that runs.
        sigma = region_center("IR4", P.tau)
        report = stability_probe(P, sigma, n_trials=5, seed=2, tol=-1.0)
        assert not report.ok
        assert len(report.failures) == report.n_run > 0
        for failure in report.failures:
            embedded = s_embed(P, "IR4", failure.sigma_perturbed)
            theta1, theta2, theta3 = embedded.phases
            start = network_state(
                (theta1 + failure.dtheta[0], theta2 + failure.dtheta[1], theta3),
                embedded.ftds,
            )
            _, _, events = init_engine(P, start).run_until_section()
            assert failure.trace == format_trace_text(events)
            assert failure.trace.splitlines()[-1].startswith("F 3 t=")

    def test_rejects_non_interior_base_point(self):
        tau = P.tau
        with pytest.raises(DomainError):
            stability_probe(P, (tau / 4, tau / 2, 3 * tau / 4))

    def test_is_deterministic_in_seed(self):
        a = stability_probe(P, region_center("IR4", P.tau), n_trials=20, seed=11)
        b = stability_probe(P, region_center("IR4", P.tau), n_trials=20, seed=11)
        assert a == b

    def test_json_dict_round_trips(self):
        report = stability_probe(P, region_center("IR4", P.tau), n_trials=5, seed=1)
        payload = report.to_json_dict()
        assert payload["ok"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestBoundaryEscapeDemo:
    def test_inside_family_center_is_fixed_point(self):
        report = boundary_escape_demo(P)
        assert report.region_nonempty
        assert report.horizon == pytest.approx(3 * P.tau)
        assert len(report.events) > 0
        assert isinstance(report.result, PeriodicityResult)
        assert report.result.transient_iters == 0
        assert report.result.poincare_period == 1
        assert report.result.orbit_period == pytest.approx(
            3 * P.tau / 4, abs=1e-12
        )

    def test_outside_family_collapses_to_single_return_attractor(self):
        report = boundary_escape_demo(P_OUTSIDE)
        assert not report.region_nonempty
        assert isinstance(report.result, PeriodicityResult)
        assert report.result.poincare_period == 1
        assert report.result.transient_iters <= 1000

    def test_zero_coupling_free_runs_with_unit_period(self):
        params = ModelParams(b=3.0, eps=0.0, n=3, tau=0.58)
        report = boundary_escape_demo(params)
        assert not report.region_nonempty
        assert isinstance(report.result, PeriodicityResult)
        assert report.result.poincare_period == 1
        assert report.result.orbit_period == pytest.approx(1.0, abs=1e-12)

    def test_json_dict_round_trips(self):
        payload = boundary_escape_demo(P).to_json_dict()
        assert payload["region_nonempty"] is True
        assert json.loads(json.dumps(payload)) == payload


class TestDatasetHeader:
    def test_minimal_header(self):
        lines = dataset_header({"command": "x", "b": 3.0})
        assert lines == [
            f"# isochron {__version__}",
            '# config: {"b": 3.0, "command": "x"}',
        ]

    def test_seed_and_timestamp_lines_are_optional(self):
        lines = dataset_header({"command": "x"}, seed=42, timestamp="2024-01-01T00:00:00")
        assert "# seed: 42" in lines
        assert "# timestamp: 2024-01-01T00:00:00" in lines
        bare = dataset_header({"command": "x"})
        assert not any("seed" in line or "timestamp" in line for line in bare)

    def test_config_keys_are_sorted(self):
        lines = dataset_header({"zz": 1, "aa": 2})
        assert lines[1].index('"aa"') < lines[1].index('"zz"')


class TestDatasetWriters:
    def test_phase_scan_csv_is_byte_reproducible(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_phase_scan_csv(scan25(), first)
        write_phase_scan_csv(scan25(), second)
        assert first.read_bytes() == second.read_bytes()

    def test_phase_scan_csv_layout(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_phase_scan_csv(scan25(), path, seed=0)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert lines[1].startswith("# config: ")
        config = json.loads(lines[1].removeprefix("# config: "))
        assert config["command"] == "phase_scan"
        assert config["step"] == 0.25
        assert lines[2] == "# seed: 0"
        assert lines[3] == (
            "theta1,theta2,periodic,transient_iters,poincare_period,"
            "orbit_period,signature_id,projection"
        )
        assert len(lines) == 4 + 16

    def test_phase_scan_csv_floats_use_17_significant_digits(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_phase_scan_csv(scan25(), path)
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        for row, record in zip(rows, scan25().records):
            assert row[0] == format(record.theta1, ".17g")
            assert row[5] == format(record.orbit_period, ".17g")

    def test_phase_scan_csv_projection_cell_format(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_phase_scan_csv(scan25(), path)
        point = r"-?[0-9.e+\-]+ -?[0-9.e+\-]+"
        pattern = re.compile(rf"^{point}(;{point})*$")
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        for row in rows:
            assert pattern.match(row[7])

    def test_timestamp_line_only_when_given(self, tmp_path):
        stamped = tmp_path / "stamped.csv"
        bare = tmp_path / "bare.csv"
        write_phase_scan_csv(
            scan25(), stamped, timestamp="2024-06-01T12:00:00"
        )
        write_phase_scan_csv(scan25(), bare)
        assert "# timestamp: 2024-06-01T12:00:00" in stamped.read_text()
        assert "timestamp" not in bare.read_text()

    def test_phase_scan_json_round_trips(self, tmp_path):
        path = tmp_path / "scan.json"
        write_phase_scan_json(scan25(), path, seed=5)
        payload = json.loads(path.read_text())
        assert payload["version"] == __version__
        assert payload["seed"] == 5
        assert payload["config"]["command"] == "phase_scan"
        assert len(payload["records"]) == 16
        assert len(payload["signatures"]) == len(scan25().signatures)
        write_phase_scan_json(scan25(), tmp_path / "again.json", seed=5)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_param_scan_writers(self, tmp_path):
        result = param_scan((0.45, 0.7), (0.45, 0.7), volume_kinds=("IR4",), seed=9)
        csv_path = tmp_path / "params.csv"
        write_param_scan_csv(result, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == f"# isochron {__version__}"
        assert "# seed: 9" in lines
        assert lines[3] == (
            "eps,tau,exists_ir3,exists_ir4,exists_ir5,"
            "volume_ir3,volume_ir4,volume_ir5"
        )
        first = lines[4].split(",")
        assert first[2:5] == ["1", "1", "0"]
        assert first[5] == "" and first[7] == ""
        json_path = tmp_path / "params.json"
        write_param_scan_json(result, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 9
        assert len(payload["records"]) == 4

    def test_projection_writers(self, tmp_path):
        report = projection_compare(P, n_samples=10, seed=2, step=0.2)
        csv_path = tmp_path / "projection.csv"
        write_projection_csv(report, csv_path)
        lines = [
            line for line in csv_path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "set,theta1,theta2"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert set(labels) <= {"analytic", "scan", "seeded"}
        assert labels.count("analytic") == len(report.analytic_points)
        assert labels.count("scan") == len(report.numeric_points)
        assert labels.count("seeded") == len(report.seeded_points)
        json_path = tmp_path / "projection.json"
        write_projection_json(report, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["contained"] is True
        assert payload["version"] == __version__


class TestPlotEmitters:
    def test_phase_scan_plot_script(self):
        script = emit_phase_scan_plot("scan.csv", "scan.png")
        assert "set datafile separator ','" in script
        assert "'scan.csv'" in script
        assert "set output 'scan.png'" in script
        assert "using 1:2:5" in script

    @pytest.mark.parametrize("kind,column", [("IR3", 3), ("IR4", 4), ("IR5", 5)])
    def test_param_scan_plot_selects_kind_column(self, kind, column):
        script = emit_param_scan_plot("params.csv", kind=kind)
        assert f"using 1:2:{column}" in script

    def test_param_scan_plot_rejects_unknown_kind(self):
        with pytest.raises(KeyError):
            emit_param_scan_plot("params.csv", kind="IR6")

    def test_projection_plot_filters_all_three_sets(self):
        script = emit_projection_plot("projection.csv")
        for label in ("analytic", "scan", "seeded"):
            assert f"strcol(1) eq '{label}'" in script

"""Grid and JSON formats, the analysis report, and lossless round-trips."""
import json
import math

import pytest

from lapsens import (
    BipartiteInstance,
    DegenerateOptimumError,
    InfeasibleError,
    ParseError,
    Perturbation,
    Scenario,
    ShapeError,
    ShapeMismatchError,
    analyze,
    format_matrix,
    format_perturbation,
    format_scenario,
    parse_error_bounds,
    parse_matrix,
    parse_perturbation,
    parse_scenario,
    report_from_json,
    report_to_json,
    run_simulation,
    simlog_records,
)

from conftest import DEMO_COST, DEMO_GRID, DEMO_OPTIMUM


DEMO_TEXT = "91,33,15\n5,86,92\n85,9,42\n"


class TestParseMatrix:
    def test_demo_grid(self):
        inst = parse_matrix(DEMO_TEXT)
        assert inst.num_agents == 3 and inst.num_tasks == 3
        assert inst.weights[(2, 1)] == 9.0

    def test_single_cell(self):
        inst = parse_matrix("5")
        assert inst.num_agents == 1 and inst.num_tasks == 1
        assert inst.weights == {(0, 0): 5.0}

    def test_comments_and_blank_lines_skipped(self):
        inst = parse_matrix("# header\n\n1,2\n# middle\n3,4\n")
        assert inst.num_agents == 2

    def test_missing_edges(self):
        inst = parse_matrix("1,x\nX,4\n")
        assert inst.edges == {(0, 0), (1, 1)}

    def test_whitespace_tolerated(self):
        inst = parse_matrix("  1 , 2 \n 3 ,4\n")
        assert inst.weights[(0, 1)] == 2.0

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_matrix("1,2\n3,oops\n")
        assert info.value.line == 2 and info.value.column == 2

    def test_nonfinite_token_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1,inf\n3,4\n")

    def test_ragged_rows(self):
        with pytest.raises(ShapeError) as info:
            parse_matrix("1,2\n3\n")
        assert info.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix("# only a comment\n")

    def test_empty_column_infeasible(self):
        with pytest.raises(InfeasibleError):
            parse_matrix("1,x\n2,x\n")

    def test_round_trip(self):
        inst = parse_matrix("1.5,x\nx,-2.25\n0.1,7\n")
        assert parse_matrix(format_matrix(inst)) == inst


class TestParsePerturbation:
    def test_aligned_grid(self):
        inst = parse_matrix("1,x\nx,4\n")
        pert = parse_perturbation("0.5,x\nx,-1\n", inst)
        assert pert.deltas == {(0, 0): 0.5, (1, 1): -1.0}

    def test_shape_mismatch(self):
        inst = parse_matrix(DEMO_TEXT)
        with pytest.raises(ShapeMismatchError):
            parse_perturbation("1,2\n3,4\n", inst)

    def test_edge_pattern_mismatch(self):
        inst = parse_matrix("1,x\nx,4\n")
        with pytest.raises(ShapeMismatchError):
            parse_perturbation("0.5,0.5\nx,-1\n", inst)
        with pytest.raises(ShapeMismatchError):
            parse_perturbation("x,x\nx,-1\n", inst)

    def test_round_trip(self):
        inst = parse_matrix("1,x\nx,4\n")
        pert = Perturbation({(0, 0): 1.25, (1, 1): -0.75})
        assert parse_perturbation(format_perturbation(inst, pert), inst) == pert

    def test_error_bounds_must_be_nonnegative(self):
        inst = parse_matrix("1,2\n3,4\n")
        with pytest.raises(ValueError):
            parse_error_bounds("1,1\n1,-1\n", inst)
        bounds = parse_error_bounds("1,1\n1,0.5\n", inst)
        assert bounds.bounds[(1, 1)] == 0.5


MINIMAL_SCENARIO = (
    '{"agent_positions":[[0,0]],"target_positions":[[1,1]],"speed":1,"noise_bound":0}'
)


class TestParseScenario:
    def test_full_round_trip(self):
        sc = Scenario(((0.0, 0.0), (1.0, 0.0)), ((1.0, 10.0), (0.0, 10.0)), 0.25, 0.08, 3, 200)
        assert parse_scenario(format_scenario(sc)) == sc

    def test_defaults(self):
        sc = parse_scenario(MINIMAL_SCENARIO)
        assert sc.seed == 0 and sc.max_steps == 500

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_scenario("{not json")
        assert info.value.line == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(
                '{"agent_positions":[[0,0]],"target_positions":[[1,1]],'
                '"speed":1,"noise_bound":0,"nois":1}'
            )

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario('{"agent_positions":[[0,0]],"speed":1,"noise_bound":0}')

    def test_malformed_positions_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(
                '{"agent_positions":[[0,0,0]],"target_positions":[[1,1]],'
                '"speed":1,"noise_bound":0}'
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("speed", "fast"),
            ("speed", True),
            ("noise_bound", None),
            ("noise_bound", [0.1]),
            ("seed", 2.5),
            ("seed", "3"),
            ("max_steps", False),
            ("max_steps", 100.0),
            ("agent_positions", [[0, None]]),
            ("target_positions", [["1", 1]]),
        ],
    )
    def test_wrong_value_types_rejected(self, key, value):
        text = json.dumps({**json.loads(MINIMAL_SCENARIO), key: value})
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_accepted_values_stay_unconverted(self):
        # A Scenario's repr feeds the golden digests: 1 must not become 1.0.
        sc = parse_scenario(
            '{"agent_positions":[[0,0]],"target_positions":[[1,1]],"speed":1,'
            '"noise_bound":0,"seed":7,"max_steps":20}'
        )
        assert (repr(sc.speed), repr(sc.noise_bound), sc.seed, sc.max_steps) == ("1", "0", 7, 20)


class TestAnalysisReport:
    def test_demo_fields(self):
        report = analyze(parse_matrix(DEMO_TEXT))
        assert report.assignment.task_map() == DEMO_OPTIMUM
        assert report.cost == DEMO_COST
        assert report.unique
        assert report.critical_converged
        assert report.divided.deltas[(1, 0)] == 157 / 6
        assert report.intervals.intervals[(1, 0)][0] == -math.inf

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateOptimumError):
            analyze(parse_matrix("1,1\n1,1\n"))

    def test_json_round_trip_exact(self):
        report = analyze(parse_matrix(DEMO_TEXT))
        assert report_from_json(report_to_json(report)) == report

    def test_json_round_trip_with_infinities(self):
        # a lone cell has unbounded sensitivity: saturated deltas, inf residual
        report = analyze(parse_matrix("5"), max_iters=2)
        assert not report.critical_converged
        assert report.critical_residual == math.inf
        assert report.sensitivities.values[(0, 0)] == math.inf
        assert report_from_json(report_to_json(report)) == report

    def test_json_is_single_line_and_parseable(self):
        text = report_to_json(analyze(parse_matrix(DEMO_TEXT)))
        assert "\n" not in text
        payload = json.loads(text)
        assert payload["cost"] == 29.0
        assert payload["num_agents"] == 3


class TestSimlogRecords:
    def test_step_records_and_summary(self):
        sc = Scenario(((0.0, 0.0), (1.0, 0.0)), ((1.0, 10.0), (0.0, 10.0)), 0.25, 0.08, 3, 200)
        log = run_simulation(sc, "certified")
        records = simlog_records(log)
        assert len(records) == len(log.steps) + 1
        first = records[0]
        assert first["step"] == 0 and first["seed"] == 3
        assert first["assignment"] == [[0, 1], [1, 0]]
        assert len(first["weights"]) == 2 and len(first["weights"][0]) == 2
        summary = records[-1]["summary"]
        assert summary["policy"] == "certified"
        assert summary["steps"] == len(log.steps)
        assert summary["certification_step"] == log.certification_step
        assert all(json.dumps(r) for r in records)

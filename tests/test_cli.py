"""End-to-end CLI behavior: outputs, formats, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapsens
from lapsens.cli import main

from conftest import DEMO_SENSITIVITIES

DEMO_TEXT = "91,33,15\n5,86,92\n85,9,42\n"
SCENARIO_TEXT = (
    '{"agent_positions":[[0,0],[1,0]],"target_positions":[[1,10],[0,10]],'
    '"speed":0.25,"noise_bound":0.08,"seed":3,"max_steps":200}'
)
# Agents 1.27e308 apart: squared distances overflow, and so does the
# certification of seed 1.
OVERFLOW_SCENARIO_TEXT = (
    '{"agent_positions":[[0,0],[1.27e308,0]],'
    '"target_positions":[[0,8e307],[1.27e308,8e307]],'
    '"speed":1e300,"noise_bound":1e307,"seed":0,"max_steps":3}'
)


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(DEMO_TEXT)
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_table(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "solve", "--input", demo_file)
        assert code == 0
        assert out.splitlines() == [
            "task 0 -> agent 1",
            "task 1 -> agent 2",
            "task 2 -> agent 0",
            "cost 29.0",
            "unique true",
        ]

    def test_json(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "solve", "--input", demo_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["assignment"] == [[0, 1], [1, 2], [2, 0]]
        assert payload["cost"] == 29.0
        assert payload["unique"] is True


class TestSensitivity:
    def test_table_grid(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "sensitivity", "--input", demo_file)
        assert code == 0
        assert out.splitlines() == [
            "-163.0,-51.0,51.0",
            "157.0,-157.0,-163.0",
            "-157.0,51.0,-51.0",
        ]

    def test_json_matches_known_values(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "sensitivity", "--input", demo_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert {(a, b): v for a, b, v in payload["sensitivities"]} == DEMO_SENSITIVITIES

    def test_degenerate_exits_one(self, capsys, tmp_path):
        path = tmp_path / "tie.csv"
        path.write_text("1,1\n1,1\n")
        code, _, err = run_cli(capsys, "sensitivity", "--input", str(path))
        assert code == 1
        assert "error" in err


class TestBoundAndCritical:
    def test_bound_values(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "bound", "--input", demo_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        deltas = {(a, b): v for a, b, v in payload["deltas"]}
        assert deltas == {e: v / 6 for e, v in DEMO_SENSITIVITIES.items()}
        assert payload["saturated"] == []

    def test_critical_converges(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "critical", "--input", demo_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["iterations"] > 0
        assert payload["residual"] <= 1e-6 * 163

    def test_critical_iteration_cap_still_succeeds(self, capsys, demo_file):
        code, out, _ = run_cli(
            capsys, "critical", "--input", demo_file, "--max-iters", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is False and payload["iterations"] == 1

    def test_saturated_edge_reported(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("5\n")
        code, out, _ = run_cli(capsys, "bound", "--input", str(path))
        assert code == 0
        assert "saturated 0,0" in out


class TestIntervals:
    def test_zero_perturbation_sign_pattern(self, capsys, demo_file):
        code, out, _ = run_cli(
            capsys, "intervals", "--input", demo_file, "--perturbation", "zero"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "agent,task,lower,upper"
        table = {}
        for line in lines[1:]:
            a, b, lo, hi = line.split(",")
            table[(int(a), int(b))] = (lo, hi)
        assigned = {(1, 0), (2, 1), (0, 2)}
        for edge, (lo, hi) in table.items():
            if edge in assigned:
                assert (lo, hi) == ("-inf", "0.0")
            else:
                assert (lo, hi) == ("0.0", "inf")

    def test_defaults_to_critical_perturbation(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "intervals", "--input", demo_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = {(a, b): (lo, hi) for a, b, lo, hi in payload["intervals"]}
        # assigned edge upper bound sits near its critical delta, well above zero
        assert rows[(1, 0)][0] == "-inf"
        assert rows[(1, 0)][1] > 40


class TestVerifyAndCertify:
    def test_verify_zero_true(self, capsys, demo_file):
        code, out, _ = run_cli(
            capsys, "verify", "--input", demo_file, "--perturbation", "zero"
        )
        assert code == 0
        assert out.strip() == "allowable true"

    def test_verify_false_exits_three(self, capsys, demo_file, tmp_path):
        pert = tmp_path / "pert.csv"
        pert.write_text("0,0,0\n158,0,0\n0,0,0\n")
        code, out, _ = run_cli(
            capsys, "verify", "--input", demo_file, "--perturbation", str(pert)
        )
        assert code == 3
        assert out.strip() == "allowable false"

    @pytest.mark.parametrize("tol", ["0", "1e-12"])
    def test_verify_tol_below_default_is_kept(self, capsys, tmp_path, tol):
        # The optimum loses by 5e-10 + tol under this perturbation. The tie
        # tolerance comes from the perturbed weights (1e-12 * 2 tasks * 5e-10),
        # far below the loss, so verify keeps it and reports the loss.
        grid, pert = tmp_path / "swap.csv", tmp_path / "pert.csv"
        grid.write_text("0,10\n10,0\n")
        pert.write_text(f"5e-10,-10\n-10,{tol}\n")
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(grid), "--perturbation", str(pert)
        )
        assert (code, out) == (3, "allowable false\n")

    def test_certify_with_uniform_eps(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "certify", "--input", demo_file, "--eps", "8.5")
        assert code == 0
        assert out.strip() == "certified true"

    def test_certify_false_exits_three(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "certify", "--input", demo_file, "--eps", "13")
        assert code == 3
        assert out.strip() == "certified false"

    def test_certify_eps_file(self, capsys, demo_file, tmp_path):
        eps = tmp_path / "eps.csv"
        eps.write_text("1,1,1\n1,1,1\n1,1,1\n")
        code, out, _ = run_cli(
            capsys, "certify", "--input", demo_file, "--eps", str(eps)
        )
        assert code == 0
        assert out.strip() == "certified true"


class TestCertifyExact:
    @pytest.mark.parametrize(
        "eps, exact_code, paper_code",
        [("8.5", 0, 0), ("12.75", 0, 3), ("13", 3, 3)],
    )
    def test_table_agrees_or_is_more_permissive(
        self, capsys, demo_file, eps, exact_code, paper_code
    ):
        # 12.75 is the exact radius; the critical search stops just short of it.
        tokens = {0: "certified true", 3: "certified false"}
        code, out, _ = run_cli(capsys, "certify", "--input", demo_file, "--eps", eps, "--exact")
        assert (code, out) == (exact_code, tokens[exact_code] + "\n")
        code, out, _ = run_cli(capsys, "certify", "--input", demo_file, "--eps", eps)
        assert (code, out) == (paper_code, tokens[paper_code] + "\n")

    def test_json_and_eps_file(self, capsys, demo_file, tmp_path):
        eps = tmp_path / "eps.csv"
        eps.write_text("1,1,1\n1,1,1\n1,1,60\n")
        code, out, _ = run_cli(
            capsys, "certify", "--input", demo_file, "--eps", str(eps), "--exact",
            "--format", "json",
        )
        assert code == 3
        assert out == '{"certified":false}\n'
        code, out, _ = run_cli(
            capsys, "certify", "--input", demo_file, "--eps", "8.5", "--exact",
            "--format", "json",
        )
        assert (code, out) == (0, '{"certified":true}\n')

    def test_runs_no_critical_search(self, capsys, demo_file, monkeypatch):
        import lapsens.cli

        def forbidden(*args, **kwargs):
            raise AssertionError("critical search ran")

        monkeypatch.setattr(lapsens.cli, "critical_search", forbidden)
        code, out, _ = run_cli(capsys, "certify", "--input", demo_file, "--eps", "8.5", "--exact")
        assert (code, out) == (0, "certified true\n")

    def test_exact_with_perturbation_is_usage_error(self, capsys, demo_file):
        code, out, err = run_cli(
            capsys, "certify", "--input", demo_file, "--eps", "1", "--exact",
            "--perturbation", "zero",
        )
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("option", [("--max-iters", "5")], ids=["max-iters"])
    def test_exact_with_search_option_is_usage_error(self, capsys, demo_file, option):
        code, out, err = run_cli(
            capsys, "certify", "--input", demo_file, "--eps", "1", "--exact", *option
        )
        assert code == 2
        assert out == ""
        assert "--exact runs no critical search" in err


class TestSimulate:
    def test_json_lines(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--format", "json"
        )
        assert code == 0
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["seed"] == 3 for r in records)
        assert "summary" in records[-1]
        assert records[-1]["summary"]["policy"] == "certified"
        assert records[0]["step"] == 0

    def test_policy_flag(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--policy", "naive",
            "--format", "json",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["policy"] == "naive"
        assert summary["certification_step"] is None

    def test_byte_identical_reruns(self, capsys, scenario_file):
        _, first, _ = run_cli(capsys, "simulate", "--input", scenario_file, "--format", "json")
        _, second, _ = run_cli(capsys, "simulate", "--input", scenario_file, "--format", "json")
        assert first == second

    def test_seed_override(self, capsys, scenario_file):
        _, a, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seed", "5", "--format", "json"
        )
        _, b, _ = run_cli(capsys, "simulate", "--input", scenario_file, "--format", "json")
        assert a != b
        assert json.loads(a.splitlines()[0])["seed"] == 5

    def test_seed_sweep_ordered(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seeds", "4..6",
            "--format", "json",
        )
        assert code == 0
        seeds = [json.loads(line)["seed"] for line in out.splitlines()]
        assert seeds == sorted(seeds)
        assert set(seeds) == {4, 5, 6}
        summaries = [
            json.loads(line) for line in out.splitlines() if "summary" in json.loads(line)
        ]
        assert [s["seed"] for s in summaries] == [4, 5, 6]

    def test_sweep_matches_single_runs(self, capsys, scenario_file):
        _, sweep, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seeds", "4..5",
            "--format", "json",
        )
        _, single4, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seed", "4", "--format", "json"
        )
        _, single5, _ = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seed", "5", "--format", "json"
        )
        assert sweep == single4 + single5

    @pytest.mark.parametrize(
        "fmt, policy", [("table", "naive"), ("json", "certified"), ("table", "certified")]
    )
    def test_sweep_matches_single_runs_in_other_modes(self, capsys, scenario_file, fmt, policy):
        args = ("simulate", "--input", scenario_file, "--format", fmt, "--policy", policy)
        _, sweep, _ = run_cli(capsys, *args, "--seeds", "4..8")
        singles = [run_cli(capsys, *args, "--seed", str(seed))[1] for seed in range(4, 9)]
        assert sweep == "".join(singles)

    @pytest.mark.parametrize(
        "agents, message",
        [
            ("[[NaN,0],[1,0]]", "coordinates must be finite"),
            ("[[0,0],[1,Infinity]]", "coordinates must be finite"),
            # More than the largest float from the targets, even measured with `np.hypot`.
            (
                "[[-1.5e308,-1.5e308],[1,0]]",
                "measured weight for edge (0, 0) must be finite, got inf",
            ),
        ],
    )
    def test_non_finite_coordinates_are_usage_errors(self, capsys, tmp_path, agents, message):
        path = tmp_path / "scenario.json"
        path.write_text(SCENARIO_TEXT.replace("[[0,0],[1,0]]", agents))
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert (code, out) == (2, "")
        assert message in err

    def test_overflowing_certification_prints_the_seeds_before_it(self, capsys, tmp_path):
        # Seed 0 locks on step 0; seed 1's worst case overflows every matching's cost.
        path = tmp_path / "scenario.json"
        path.write_text(OVERFLOW_SCENARIO_TEXT)
        args = ("simulate", "--input", str(path), "--policy", "certified")
        _, seed0, _ = run_cli(capsys, *args, "--seed", "0")
        code, out, err = run_cli(capsys, *args, "--seeds", "0..1")
        assert (code, out) == (2, seed0)
        assert "certification_step 0" in seed0
        assert err == "error: optimal cost of the perturbed weights must be finite, got inf\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("policy", ["naive", "certified"])
    def test_overflows_the_simulation_handles_print_no_warning(self, capsys, tmp_path, policy):
        path = tmp_path / "scenario.json"
        path.write_text(OVERFLOW_SCENARIO_TEXT)
        code, _, err = run_cli(capsys, "simulate", "--input", str(path), "--policy", policy)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "field, value",
        [('"speed":0.25', '"speed":"fast"'), ('"noise_bound":0.08', '"noise_bound":null')],
    )
    def test_wrong_value_types_are_parse_errors(self, capsys, tmp_path, field, value):
        path = tmp_path / "scenario.json"
        path.write_text(SCENARIO_TEXT.replace(field, value))
        code, out, err = run_cli(capsys, "simulate", "--input", str(path))
        assert (code, out) == (2, "")
        assert "must be a number" in err
        assert "Traceback" not in err

    def test_seed_and_seeds_together_are_a_usage_error(self, capsys, scenario_file):
        code, out, err = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seed", "5", "--seeds", "1..1"
        )
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_bad_seed_range(self, capsys, scenario_file):
        code, _, err = run_cli(
            capsys, "simulate", "--input", scenario_file, "--seeds", "9..3"
        )
        assert code == 2
        assert "error" in err


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve")
        assert code == 2

    def test_tol_is_an_unknown_option(self, capsys, demo_file):
        # Every tolerance comes from the weights; none is settable.
        commands = [("critical",), ("intervals",), ("verify",), ("certify", "--eps", "1")]
        for command, *required in commands:
            code, out, err = run_cli(capsys, command, "--input", demo_file, *required, "--tol", "1")
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --tol 1" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "nonsense")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--input", "/nonexistent/file.csv")
        assert code == 2
        assert "error" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,oops\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 2
        assert "line 1" in err

    def test_infeasible_instance(self, capsys, tmp_path):
        path = tmp_path / "infeasible.csv"
        path.write_text("1,x\n2,x\n")
        code, _, _ = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1

    def test_table_and_json_agree(self, capsys, demo_file):
        _, table, _ = run_cli(capsys, "solve", "--input", demo_file)
        _, js, _ = run_cli(capsys, "solve", "--input", demo_file, "--format", "json")
        payload = json.loads(js)
        assert f"cost {payload['cost']}" in table
        for t, a in payload["assignment"]:
            assert f"task {t} -> agent {a}" in table


# Weights near 1e8 with a unique optimum whose nearest rival costs 1.39e7
# more. Rounding in sums of such weights is far above an absolute 1e-9, so
# ties and optimality must be decided on the weights' own scale.
LARGE_GRID_TEXT = (
    "27739919.174747564,16797900.134764176,71155036.25286601,46691910.79359699\n"
    "95973901.89787047,50005800.91015241,79312346.71202621,69326906.10738766\n"
    "36208440.094774574,36762304.262607805,2395971.0409734324,60870313.82525389\n"
    "41678836.3200741,15375043.508243114,6405368.195189009,94283086.48294008\n"
)


class TestLargeWeights:
    @pytest.fixture()
    def large_file(self, tmp_path):
        path = tmp_path / "large.csv"
        path.write_text(LARGE_GRID_TEXT)
        return str(path)

    def test_solve_reports_a_unique_optimum(self, capsys, large_file):
        code, out, _ = run_cli(capsys, "solve", "--input", large_file)
        assert code == 0
        assert out.splitlines()[-1] == "unique true"

    @pytest.mark.parametrize("command", ["critical", "sensitivity", "bound"])
    def test_analysis_accepts_the_optimum(self, capsys, large_file, command):
        code, _, err = run_cli(capsys, command, "--input", large_file)
        assert (code, err) == (0, "")

    def test_exact_certificate_accepts_a_small_bound(self, capsys, large_file):
        code, out, _ = run_cli(
            capsys, "certify", "--input", large_file, "--eps", "1000", "--exact"
        )
        assert (code, out) == (0, "certified true\n")


class TestOneParserPerProcess:
    def test_repeated_calls_print_what_fresh_processes_print(
        self, capsys, monkeypatch, demo_file, scenario_file
    ):
        # `main` builds its parser once per process and reuses it, across a
        # usage error too. Help and usage text wrap at $COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["solve", "--input", demo_file],
            ["simulate", "--seed", "4"],
            ["simulate", "--input", scenario_file, "--seeds", "1..2", "--format", "json"],
            ["certify", "--help"],
            ["solve", "--input", demo_file, "--format", "json"],
        ]
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(lapsens.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "lapsens.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

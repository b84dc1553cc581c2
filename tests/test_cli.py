"""CLI contract: deterministic reports, provenance-tagged metrics,
recomputable ratios, and the documented exit codes.
"""

import json

import pytest

from stochprobe import cli
from stochprobe.acceptance import CriterionResult
from stochprobe.constraints import UniformMatroid
from stochprobe.greedy import exact_greedy_value
from stochprobe.instance import make_instance
from stochprobe.io import emit_instance, read_instance
from stochprobe.lp import solve_probing_lp

WEIGHTED = "data/small_weighted.json"
DEADLINE = "data/small_deadline.json"
AUCTION = "data/spm_uniform_k1.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_greedy_reports_exact_value(capsys):
    code, out = run_cli(capsys, "greedy", "--instance", WEIGHTED)
    assert code == 0
    doc = json.loads(out)
    entry = doc["metrics"]["greedy_value"]
    assert entry["provenance"] == "exact"
    assert entry["value"] == exact_greedy_value(read_instance(WEIGHTED))
    assert doc["command"][0] == "greedy"


def test_reports_are_byte_identical(capsys):
    argv = ("round", "--instance", WEIGHTED, "--trials", "500")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    argv = argv + ("--format", "text")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_seed_changes_monte_carlo_metrics(capsys):
    _, base = run_cli(capsys, "simulate", "--instance", WEIGHTED, "--trials", "200")
    _, other = run_cli(
        capsys, "simulate", "--instance", WEIGHTED, "--trials", "200", "--seed", "9"
    )
    base, other = json.loads(base), json.loads(other)
    assert base["metrics"]["greedy_value"] != other["metrics"]["greedy_value"]
    assert base["metrics"]["greedy_value"]["provenance"] == "monte_carlo(200)"


def test_round_ratios_recompute_from_raw_metrics(capsys):
    code, out = run_cli(capsys, "round", "--instance", WEIGHTED, "--trials", "500")
    assert code == 0
    doc = json.loads(out)
    metrics = {name: entry["value"] for name, entry in doc["metrics"].items()}
    assert metrics["guaranteed_value"] == metrics["guarantee_factor"] * metrics[
        "lp_objective"
    ]
    recomputed = metrics["simulated_value"] >= metrics["guaranteed_value"] - (
        cli.THREE_SIGMA_RADII * metrics["simulated_radius"]
    )
    assert doc["flags"]["bound_met"] == recomputed


def test_lp_cut_rounds_counts_solves(capsys, tmp_path):
    # nothing binds: one solve, no cuts
    instance = make_instance(
        [1, 2], [0.5, 0.5], UniformMatroid(2, 2), UniformMatroid(2, 2)
    )
    path = tmp_path / "free.json"
    path.write_text(emit_instance(instance))
    code, out = run_cli(capsys, "lp", "--instance", str(path))
    assert code == 0
    assert json.loads(out)["metrics"]["cut_rounds"]["value"] == 1
    assert solve_probing_lp(instance).cuts == ()


def test_certify_reports_per_path_verdicts(capsys):
    code, out = run_cli(capsys, "certify", "--instance", WEIGHTED)
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["per_path_feasible"]
    assert doc["flags"]["mixture_bounded"]
    assert len(doc["paths"]) == doc["metrics"]["path_count"]["value"]
    for row in doc["paths"]:
        assert row["value"] <= row["cap"] + 1e-9


def test_certify_truncates_the_paths_table_past_256_paths(capsys, tmp_path):
    # free systems and p = 0.5: all nine elements are probed, 2^9 paths
    instance = make_instance(
        [1.0] * 9, [0.5] * 9, UniformMatroid(9, 9), UniformMatroid(9, 9)
    )
    path = tmp_path / "free9.json"
    path.write_text(emit_instance(instance))
    code, out = run_cli(capsys, "certify", "--instance", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["path_count"]["value"] == 512
    assert doc["flags"]["paths_truncated"] is True
    assert doc["flags"]["per_path_feasible"]
    assert "paths" not in doc


def test_verify_cr_covers_both_sides(capsys):
    code, out = run_cli(
        capsys, "verify-cr", "--instance", WEIGHTED, "--trials", "500"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["outer_satisfied"]
    assert doc["flags"]["inner_satisfied"]
    assert doc["metrics"]["inner_target_c"]["provenance"] == "exact"


def test_spm_bound_recomputes(capsys):
    code, out = run_cli(capsys, "spm", "--instance", AUCTION, "--best-of", "4")
    assert code == 0
    doc = json.loads(out)
    metrics = {name: entry["value"] for name, entry in doc["metrics"].items()}
    k = doc["config"]["k"]
    assert metrics["revenue_bound"] == metrics["lp_mechanism"] / (4 * k + 2)
    assert metrics["lp_probing"] >= metrics["lp_mechanism"] - 1e-6
    assert len(doc["best_offers"]) >= 1


def test_deadline_instance_routes_to_deadline_policy(capsys):
    code, out = run_cli(capsys, "simulate", "--instance", DEADLINE, "--trials", "200")
    assert code == 0
    assert "greedy_deadline_value" in json.loads(out)["metrics"]


def test_greedy_deadline_rejects_plain_instances(capsys):
    code, _ = run_cli(capsys, "greedy-deadline", "--instance", WEIGHTED)
    assert code == 2


def test_oracle_with_some_deadlines_exits_2(capsys, tmp_path):
    doc = json.loads(open(WEIGHTED).read())
    doc["elements"][0]["deadline"] = 2
    path = tmp_path / "some_deadlines.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["oracle", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "all elements need deadlines" in captured.err


def test_oracle_provenance(capsys):
    code, out = run_cli(capsys, "oracle", "--instance", WEIGHTED)
    assert code == 0
    assert json.loads(out)["metrics"]["optimal_adaptive"]["provenance"] == "oracle"


@pytest.mark.parametrize(
    "argv",
    [
        ("greedy", "--instance", "data/no_such_file.json"),
        ("round", "--instance", WEIGHTED, "--b", "2.0"),
        ("acceptance",),
        ("no-such-command",),
        ("round", "--instance", WEIGHTED, "--outer-scheme", "bogus"),
        # the inner scheme is fixed to the ordered scheme; there is no flag
        ("round", "--instance", WEIGHTED, "--inner-scheme", "ordered_ksystem"),
        ("verify-cr", "--instance", WEIGHTED, "--inner-scheme", "ordered_ksystem"),
    ],
)
def test_input_errors_exit_2(capsys, argv):
    assert cli.main(list(argv)) == 2


@pytest.mark.parametrize("best_of", ["0", "-3"])
def test_spm_without_draws_exits_2(capsys, best_of):
    assert cli.main(["spm", "--instance", AUCTION, "--best-of", best_of]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--best-of must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("round", "--instance", WEIGHTED, "--seed", "-1"),
        ("simulate", "--instance", WEIGHTED, "--seed", "-1"),
        ("spm", "--instance", AUCTION, "--seed", "-2"),
        ("acceptance", "--seed", "-1"),
    ],
)
def test_negative_seed_exits_2(capsys, argv):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be non-negative\n"


def test_spm_document_with_nan_mass_exits_2(capsys, tmp_path):
    doc = json.loads(open(AUCTION).read())
    doc["agents"][0]["masses"][0] = float("nan")
    path = tmp_path / "nan_mass.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    assert cli.main(["spm", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "agent 0 has a non-finite mass" in captured.err


def _fake_results(failing):
    results = []
    for number in (1, 2):
        results.append(
            CriterionResult(
                number=number,
                name=f"check {number}",
                passed=number not in failing,
                details="stub",
                elapsed=1.25,
            )
        )
    return results


def test_acceptance_exit_codes_and_elapsed_free_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda seed: _fake_results(failing=()))
    code, out = run_cli(capsys, "acceptance", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["all_passed"]
    assert "1.25" not in out  # reports carry no wall-clock state

    monkeypatch.setattr(cli, "run_all", lambda seed: _fake_results(failing=(2,)))
    code, out = run_cli(capsys, "acceptance", "--seed", "0")
    assert code == 1
    doc = json.loads(out)
    assert not doc["flags"]["all_passed"]
    assert doc["metrics"]["criteria_passed"]["value"] == 1


def test_text_format_carries_same_metrics(capsys):
    _, as_json = run_cli(capsys, "lp", "--instance", WEIGHTED)
    _, as_text = run_cli(capsys, "lp", "--instance", WEIGHTED, "--format", "text")
    doc = json.loads(as_json)
    value = doc["metrics"]["lp_objective"]["value"]
    assert f"lp_objective = {value:.17g} (exact)" in as_text

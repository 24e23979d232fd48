"""Command-line interface: output formats, exit codes, determinism.

Most tests drive main() in-process; one subprocess test confirms the
installed console script is wired to the same entry point.
"""

import json
import re
import subprocess
import sys

import pytest

from lambdacoal import build_rate_table, parse_measure, solve
from lambdacoal.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main

# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rates_plain_kingman(capsys):
    assert main(["rates", "--measure", "delta:0", "--nmax", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "b=2   1  | total 1" in out
    assert "b=4   1  0  0  | total 6" in out


def test_rates_csv(capsys):
    assert (
        main(["rates", "--measure", "delta:0", "--nmax", "3", "--format", "csv"])
        == EXIT_OK
    )
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "b,k,rate,total"
    assert lines[1] == "2,2,1.0,1.0"
    assert lines[2] == "3,2,1.0,3.0"
    assert lines[3] == "3,3,0.0,3.0"


def test_rates_json_lebesgue(capsys):
    assert (
        main(["rates", "--measure", "beta:1,1,1", "--nmax", "4", "--format", "json"])
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["nMax"] == 4
    assert payload["rates"]["4"]["3"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    table = build_rate_table(parse_measure("beta:1,1,1"), 4)
    assert payload["totals"]["4"] == pytest.approx(table.total(4), rel=1e-15)


def test_rates_bad_measure_is_usage_error(capsys):
    assert main(["rates", "--measure", "bogus", "--nmax", "4"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_rates_nmax_too_small(capsys):
    assert main(["rates", "--measure", "delta:0", "--nmax", "1"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_json_matches_library(capsys):
    assert (
        main(
            [
                "exact",
                "--measure",
                "poly3x2",
                "--mu",
                "0.75",
                "--n",
                "4",
                "--format",
                "json",
            ]
        )
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    dist = solve(build_rate_table(parse_measure("poly3x2"), 4), 0.75, 4)
    for pv, p in dist.items_ordered():
        assert payload["probabilities"][pv.to_text()] == pytest.approx(p, rel=1e-15)


def test_exact_plain_has_sum_line(capsys):
    assert (
        main(["exact", "--measure", "delta:0", "--mu", "0.5", "--n", "3"]) == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "(sum)" in out
    assert re.search(r"\(sum\)\s+1\b", out)


def test_exact_csv_quotes_partitions(capsys):
    assert (
        main(
            [
                "exact",
                "--measure",
                "delta:0",
                "--mu",
                "1",
                "--n",
                "2",
                "--format",
                "csv",
            ]
        )
        == EXIT_OK
    )
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "partition,probability"
    assert lines[1].startswith('"')


def test_exact_rejects_bad_n(capsys):
    assert main(["exact", "--measure", "delta:0", "--mu", "1", "--n", "0"]) == EXIT_USAGE


def test_exact_over_partition_cap(capsys):
    code = main(["exact", "--measure", "delta:0", "--mu", "1", "--n", "60"])
    assert code == EXIT_USAGE
    assert "partition cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_composition_lines(capsys):
    assert (
        main(
            [
                "simulate",
                "composition",
                "--measure",
                "poly3x2",
                "--mu",
                "1",
                "--n",
                "4",
                "--reps",
                "5",
                "--seed",
                "3",
            ]
        )
        == EXIT_OK
    )
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        assert re.fullmatch(r"\d+(,\d+)*", line)
        assert sum(int(p) for p in line.split(",")) == 4


def test_simulate_deterministic_bytes(tmp_path):
    args = [
        "simulate",
        "frozen",
        "--measure",
        "atoms:0.5=0.25",
        "--mu",
        "1",
        "--n",
        "5",
        "--reps",
        "64",
        "--seed",
        "11",
    ]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_worker_count_invariance(tmp_path):
    args = [
        "simulate",
        "set",
        "--measure",
        "poly3x2",
        "--mu",
        "1",
        "--n",
        "4",
        "--reps",
        "48",
        "--seed",
        "7",
    ]
    serial, parallel = tmp_path / "s.txt", tmp_path / "p.txt"
    assert main(args + ["--output", str(serial)]) == EXIT_OK
    assert main(args + ["--workers", "2", "--output", str(parallel)]) == EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()


def test_simulate_forward_event_lines(capsys):
    assert (
        main(
            [
                "simulate",
                "forward",
                "--measure",
                "atoms:0.5=0.25",
                "--mu",
                "0.5",
                "--horizon",
                "4",
                "--seed",
                "2",
            ]
        )
        == EXIT_OK
    )
    lines = capsys.readouterr().out.strip().split("\n")
    times = []
    for line in lines:
        event = json.loads(line)
        assert set(event) == {"state", "time"}
        assert set(event["state"]) == {"atoms", "diffuse", "truncationBias"}
        times.append(event["time"])
    assert times == sorted(times)
    assert times[0] == 0.0
    assert times[-1] == 4.0


def test_simulate_forward_requires_horizon(capsys):
    code = main(
        ["simulate", "forward", "--measure", "delta:1", "--mu", "1", "--seed", "1"]
    )
    assert code == EXIT_USAGE
    assert "--horizon" in capsys.readouterr().err


def test_simulate_forward_infinite_intensity(capsys):
    code = main(
        [
            "simulate",
            "forward",
            "--measure",
            "beta:2,2,1",
            "--mu",
            "1",
            "--horizon",
            "1",
            "--seed",
            "1",
        ]
    )
    assert code == EXIT_NUMERIC
    assert "InfiniteActivityError" in capsys.readouterr().err


def test_simulate_set_refuses_oversized_window(capsys):
    code = main(
        ["simulate", "set", "--measure", "beta:1.5,1,1", "--mu", "1", "--n", "6",
         "--reps", "2", "--seed", "1"]
    )
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "WindowBudgetError" in err and "beta:1.5,1,1" in err


def test_simulate_requires_n(capsys):
    code = main(
        ["simulate", "frozen", "--measure", "delta:0", "--mu", "1", "--seed", "1"]
    )
    assert code == EXIT_USAGE


def test_simulate_over_partition_cap(capsys):
    code = main(
        [
            "simulate",
            "frozen",
            "--measure",
            "delta:0",
            "--mu",
            "1",
            "--n",
            "41",
            "--seed",
            "1",
        ]
    )
    assert code == EXIT_USAGE
    assert "partition cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _write_plan(tmp_path, cases):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"cases": cases}))
    return str(path)


def test_validate_passing_plan(tmp_path, capsys):
    plan = _write_plan(
        tmp_path,
        [
            {
                "case_id": "ew",
                "kind": "ewens_equivalence",
                "measure_spec": "delta:0",
                "mu": 0.5,
                "n": 6,
            }
        ],
    )
    code = main(["validate", "--plan", plan, "--reps", "10", "--seed", "1"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_validate_failing_plan(tmp_path, capsys):
    plan = _write_plan(
        tmp_path,
        [
            {
                "case_id": "neg",
                "kind": "sampler_vs_exact",
                "measure_spec": "delta:0",
                "mu": 1.0,
                "n": 4,
                "sampler": "frozen",
                "exact_mu": 0.25,
            }
        ],
    )
    code = main(["validate", "--plan", plan, "--reps", "2000", "--seed", "1"])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert "failing cases: neg" in captured.err


def test_validate_csv_format(tmp_path, capsys):
    plan = _write_plan(
        tmp_path,
        [
            {
                "case_id": "ew",
                "kind": "ewens_equivalence",
                "measure_spec": "delta:0",
                "mu": 1.0,
                "n": 5,
            }
        ],
    )
    code = main(
        ["validate", "--plan", plan, "--reps", "10", "--seed", "1", "--format", "csv"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("case_id,kind,fixture")
    assert "max_abs_diff<=1e-10,True" in out


def test_validate_output_file(tmp_path, capsys):
    plan = _write_plan(
        tmp_path,
        [
            {
                "case_id": "ew",
                "kind": "ewens_equivalence",
                "measure_spec": "delta:0",
                "mu": 1.0,
                "n": 4,
            }
        ],
    )
    out_path = tmp_path / "report.json"
    code = main(
        [
            "validate",
            "--plan",
            plan,
            "--reps",
            "10",
            "--seed",
            "1",
            "--output",
            str(out_path),
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text())["passed"] is True


# ---------------------------------------------------------------------------
# forward-snapshot
# ---------------------------------------------------------------------------


def test_snapshot_stationary(capsys):
    code = main(
        [
            "forward-snapshot",
            "--measure",
            "poly3x2",
            "--mu",
            "1",
            "--stationary",
            "--seed",
            "9",
        ]
    )
    assert code == EXIT_OK
    snap = json.loads(capsys.readouterr().out)
    assert set(snap) == {"atoms", "diffuse", "truncationBias"}
    sizes = [a["size"] for a in snap["atoms"]]
    assert sizes == sorted(sizes, reverse=True)
    assert all(s > 0 for s in sizes)
    assert snap["diffuse"] + sum(sizes) == pytest.approx(1.0, abs=1e-12)
    assert snap["truncationBias"] == 0.0  # finite activity: no size cutoff


def test_snapshot_forward(capsys):
    code = main(
        [
            "forward-snapshot",
            "--measure",
            "atoms:0.5=0.25",
            "--mu",
            "1",
            "--horizon",
            "5",
            "--seed",
            "4",
        ]
    )
    assert code == EXIT_OK
    snap = json.loads(capsys.readouterr().out)
    assert snap["truncationBias"] == 0.0
    assert snap["diffuse"] + sum(a["size"] for a in snap["atoms"]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_snapshot_modes_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "forward-snapshot",
                "--measure",
                "delta:1",
                "--mu",
                "1",
                "--stationary",
                "--horizon",
                "2",
                "--seed",
                "1",
            ]
        )
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


def test_console_script_matches_main(tmp_path):
    args = ["exact", "--measure", "delta:0", "--mu", "0.5", "--n", "3", "--format",
            "json"]
    out_path = tmp_path / "lib.json"
    assert main(args + ["--output", str(out_path)]) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "lambdacoal.cli"] + args,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == out_path.read_text()

"""Command-line interface: output formats, exit codes, determinism.

Most tests drive main() in-process; one subprocess test confirms the
installed console script is wired to the same entry point.
"""

import functools
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from lambdacoal import (
    LambdaCoalError,
    LitterHistory,
    MeasureSpecError,
    build_rate_table,
    derive_rng,
    parse_measure,
    rho_state,
    sample_family_partition_chain,
    sample_family_partition_set,
    solve,
)
from lambdacoal.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _check_args,
    build_parser,
    main,
)

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


def test_rates_nmax_above_the_grid_budget_is_usage_error(capsys):
    # a (nmax + 1)**2 grid above 1e7 cells is refused before it is
    # allocated: one error line, exit 2, no traceback
    assert main(["rates", "--measure", "poly3x2", "--nmax", "100000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --nmax") and captured.err.count("\n") == 1


def test_rates_grid_budget_edge():
    # every C(1029, k) is a finite float, C(1030, 515) is not
    def check(nmax):
        _check_args(build_parser().parse_args(["rates", "--measure", "poly3x2", "--nmax", nmax]))

    check("1029")
    with pytest.raises(MeasureSpecError, match="--nmax 1030 is above 1029"):
        check("1030")


def test_rates_nmax_above_the_binomial_range_is_usage_error(capsys):
    # at 1030 the rate totals' C(b, k) overflowed a float after the whole
    # table's moments, and the command died with a traceback
    assert main(["rates", "--measure", "delta:0.5", "--nmax", "1030"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --nmax 1030 is above 1029: C(nmax, k) overflows a float\n"


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


def test_exact_single_individual(capsys):
    assert main(["exact", "--measure", "poly3x2", "--mu", "1", "--n", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split() == ["1^1", "1"]


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


@pytest.mark.parametrize("sampler", ["frozen", "chain", "set", "composition"])
def test_simulate_worker_count_invariance(tmp_path, sampler):
    args = [
        "simulate",
        sampler,
        "--measure",
        "poly3x2",
        "--mu",
        "1",
        "--n",
        "4",
        "--reps",
        "1100",
        "--seed",
        "7",
    ]
    serial, parallel = tmp_path / "s.txt", tmp_path / "p.txt"
    assert main(args + ["--output", str(serial)]) == EXIT_OK
    assert main(args + ["--workers", "2", "--output", str(parallel)]) == EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()


# --workers 2 forks; on an interpreter that warns about forking a process
# with threads, that warning is not the one this test is about
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_parses_the_measure_once(tmp_path, monkeypatch, workers):
    # the command parses --measure once: its spans, in this process or in
    # the two forked children of 1100 replicates, reuse the parsed measure
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    log = tmp_path / "parses.log"

    def counted(spec):
        with open(log, "a") as f:  # forked children append here too
            f.write(spec + "\n")
        return parse_measure(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("lambdacoal") and vars(module).get("parse_measure") is parse_measure:
            monkeypatch.setattr(module, "parse_measure", counted)
    argv = [
        "simulate", "set", "--measure", f"density-file:{table}", "--mu", "1", "--n", "5",
        "--reps", "1100", "--seed", "5", "--workers", workers, "--output", str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_OK
    assert len(log.read_text().splitlines()) == 1


def test_simulate_frozen_single_individual(capsys):
    code = main(
        [
            "simulate",
            "frozen",
            "--measure",
            "poly3x2",
            "--mu",
            "1",
            "--n",
            "1",
            "--reps",
            "2",
            "--seed",
            "1",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "1^1\n1^1\n"


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


_FORWARD = ["simulate", "forward", "--measure", "poly3x2", "--mu", "1", "--horizon", "2"]
_SNAPSHOT = ["forward-snapshot", "--measure", "poly3x2", "--mu", "1", "--horizon", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_FORWARD, ["--n", "5"]),
        (_FORWARD, ["--reps", "5"]),
        (_FORWARD, ["--workers", "2"]),
        (_SNAPSHOT, ["--t0", "3"]),
        (_SNAPSHOT, ["--eps", "0.01"]),
    ],
    ids=["forward-n", "forward-reps", "forward-workers", "snapshot-t0", "snapshot-eps"],
)
def test_flag_the_mode_ignores_is_usage_error(capsys, argv, flag):
    # before, the flag was accepted and ignored: simulate forward --reps 5
    # printed one path and exited 0
    assert main(argv + flag + ["--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and flag[0] in line


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["exact", "--measure", "poly3x2", "--mu", "nan", "--n", "4"], "--mu"),
        (["exact", "--measure", "poly3x2", "--mu", "inf", "--n", "4"], "--mu"),
        (["simulate", "forward", "--measure", "poly3x2", "--mu", "nan",
          "--horizon", "1", "--seed", "1"], "--mu"),
        (["simulate", "frozen", "--measure", "poly3x2", "--mu", "nan",
          "--n", "4", "--seed", "1"], "--mu"),
        (["simulate", "forward", "--measure", "poly3x2", "--mu", "1",
          "--horizon", "inf", "--seed", "1"], "--horizon"),
        (["forward-snapshot", "--measure", "poly3x2", "--mu", "1",
          "--horizon", "nan", "--seed", "1"], "--horizon"),
        (["forward-snapshot", "--measure", "poly3x2", "--mu", "1",
          "--stationary", "--t0", "nan", "--seed", "1"], "--t0"),
    ],
    ids=["exact-nan", "exact-inf", "forward-nan", "frozen-nan", "forward-horizon-inf",
         "snapshot-horizon-nan", "snapshot-t0-nan"],
)
def test_non_finite_mu_or_horizon_is_usage_error(capsys, argv, flag):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be finite" in captured.err


_HUGE_MU = ["--measure", "poly3x2", "--mu", "1e308", "--n", "4"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["exact", *_HUGE_MU],
        ["simulate", "frozen", *_HUGE_MU, "--seed", "1"],
        ["simulate", "chain", *_HUGE_MU, "--seed", "1"],
        ["simulate", "set", *_HUGE_MU, "--seed", "1"],
    ],
    ids=["exact", "frozen", "chain", "set"],
)
def test_mu_above_the_mass_bound_is_usage_error(capsys, argv):
    # mu * b overflows a rate total: exact printed nan for every partition
    # with exit 0, and frozen died with an IndexError in _block_chain
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mu must be finite and at most 1e+100\n"


@pytest.mark.filterwarnings("error")
def test_mu_at_the_mass_bound_still_runs(capsys):
    assert main(["exact", "--measure", "poly3x2", "--mu", "1e100", "--n", "40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nan" not in out and re.search(r"^1\^40 +1$", out, re.M)
    for sampler in ("frozen", "chain", "set", "composition"):
        argv = ["simulate", sampler, "--measure", "poly3x2", "--mu", "1e100", "--n", "4",
                "--reps", "3", "--seed", "1"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.split() == ["1,1,1,1" if sampler == "composition" else "1^4"] * 3


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--reps", "10", "--seed", "-1"],
        ["simulate", "frozen", "--measure", "poly3x2", "--mu", "1", "--n", "4",
         "--seed", "-1"],
        ["forward-snapshot", "--measure", "poly3x2", "--mu", "1", "--stationary",
         "--seed", "-2"],
    ],
    ids=["validate", "simulate", "snapshot"],
)
def test_negative_seed_is_usage_error(capsys, argv):
    # before, validate ran every case and listed each sampled one as failing
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "frozen", "--measure", "poly3x2", "--mu", "1", "--n", "4",
         "--reps", "3", "--seed", "1"],
        ["validate", "--reps", "10", "--seed", "1"],
    ],
    ids=["simulate", "validate"],
)
def test_workers_below_one_is_usage_error(capsys, argv, workers):
    # before, a worker count below 1 silently ran one worker
    assert main(argv + ["--workers", workers]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --workers must be >= 1\n"


def test_simulate_chain_tiny_mu_terminates():
    # at one lineage the lone-litter part has probability 1 - O(mu); the
    # chain skips it, so each replicate ends after one freeze
    proc = subprocess.run(
        [sys.executable, "-m", "lambdacoal.cli", "simulate", "chain", "--measure",
         "poly3x2", "--mu", "1e-300", "--n", "5", "--reps", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5^1\n5^1\n"


BIG_TABLE_TEXT = "0.1 1e308\n0.9 1e308\n"
DRAW_FLAGS = ["--mu", "1", "--n", "3", "--reps", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "measure, command, flags, code",
    [
        pytest.param(m, command, flags, EXIT_USAGE, id=f"{m}-{command[-1]}")
        for m in ["table", "beta:2,2,1e308", "atoms:0.5=1e308"]
        for command, flags in [
            (["exact"], ["--mu", "1", "--n", "3"]),
            (["rates"], ["--nmax", "3"]),
            (["simulate", "set"], DRAW_FLAGS),
            (["simulate", "frozen"], DRAW_FLAGS),
        ]
    ]
    + [
        pytest.param("atoms:1e-200=1", ["simulate", "set"], DRAW_FLAGS, EXIT_NUMERIC,
                     id="tiny-atom-set"),
        pytest.param("atoms:1e-200=1", ["forward-snapshot"],
                     ["--mu", "1", "--stationary", "--seed", "1"], EXIT_NUMERIC,
                     id="tiny-atom-snapshot"),
    ],
)
def test_unrepresentable_measure_is_refused(tmp_path, measure, command, flags, code):
    # one error line, no warning and no traceback, with warnings as errors
    if measure == "table":
        table = tmp_path / "big.txt"
        table.write_text(BIG_TABLE_TEXT)
        measure = f"density-file:{table}"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lambdacoal.cli"]
        + command + ["--measure", measure] + flags,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


# density tables whose first node is near 0: x[-1] / x[0] overflows, or
# x**-2 does on the first cell; the first table's true 1/x integral is
# about 713, but its first Gauss-Legendre cell overflows, so the window
# samplers refuse it
NEAR_ZERO_TABLES = {"subnormal": "1e-310 1\n0.5 1\n", "tiny-heavy": "1e-200 1e90\n0.5 1e90\n"}
SNAPSHOT_FLAGS = ["--mu", "1", "--stationary", "--seed", "1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "table, command, flags, code",
    [
        pytest.param(table, command, flags, code, id=f"{table}-{command[-1]}")
        for table, chain_code in [("subnormal", EXIT_NUMERIC), ("tiny-heavy", EXIT_OK)]
        for command, flags, code in [
            (["exact"], ["--mu", "1", "--n", "3"], EXIT_OK),
            (["rates"], ["--nmax", "3"], EXIT_OK),
            (["simulate", "frozen"], DRAW_FLAGS, EXIT_OK),
            (["simulate", "chain"], DRAW_FLAGS, chain_code),
            (["simulate", "set"], DRAW_FLAGS, EXIT_NUMERIC),
            (["simulate", "composition"], DRAW_FLAGS, EXIT_NUMERIC),
            (["forward-snapshot"], SNAPSHOT_FLAGS, EXIT_NUMERIC),
        ]
    ],
)
def test_near_zero_table_runs_or_refuses(tmp_path, capsys, table, command, flags, code):
    # warnings are errors: a table command either runs or refuses with one
    # typed error line
    path = tmp_path / "table.txt"
    path.write_text(NEAR_ZERO_TABLES[table])
    assert main(command + ["--measure", f"density-file:{path}"] + flags) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert out and not err
    else:
        assert not out
        assert re.fullmatch(r"error: \w+Error: [^\n]*\n", err), err


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "lambdacoal.cli"] + argv,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["simulate", "set"] + DRAW_FLAGS, id="set"),
        pytest.param(["simulate", "composition"] + DRAW_FLAGS, id="composition"),
        pytest.param(["forward-snapshot"] + SNAPSHOT_FLAGS, id="snapshot"),
    ],
)
def test_beta_measure_whose_nu_moment_overflows_is_refused(argv):
    # beta:3,1e300,1 has nu mass near 1e600: the Beta ratio reads inf, as
    # an overflowing table moment does, and is refused with one typed line
    proc = _run_cli(argv + ["--measure", "beta:3,1e300,1"])
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stdout == ""
    assert re.fullmatch(r"error: InfiniteActivityError: [^\n]*overflows\n", proc.stderr)


def test_overflowing_beta_refusal_from_forked_children_is_the_serial_line():
    # at 1100 replicates and two workers each forked child raises the
    # refusal; the caller prints it as the serial run does
    argv = ["simulate", "set", "--measure", "beta:3,1e300,1", "--mu", "1", "--n", "4",
            "--reps", "1100", "--seed", "1", "--workers"]
    serial, forked = _run_cli(argv + ["1"]), _run_cli(argv + ["2"])
    assert serial.returncode == forked.returncode == EXIT_NUMERIC, forked.stderr
    assert serial.stdout == forked.stdout == ""
    assert serial.stderr == forked.stderr
    assert serial.stderr.startswith("error: InfiniteActivityError: ")
    assert serial.stderr.count("\n") == 1


def test_cli_loads_neither_multiprocessing_nor_concurrent_futures():
    # --workers forks its span children itself: no process pool
    script = (
        "import sys, lambdacoal.cli\n"
        "argv = ['simulate', 'set', '--measure', 'poly3x2', '--mu', '1', '--n', '6',\n"
        "        '--reps', '1100', '--seed', '3', '--workers', '2']\n"
        "assert lambdacoal.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_exact_on_underflowing_atom_is_unchanged(capsys):
    argv = ["exact", "--measure", "atoms:1e-200=1", "--mu", "1", "--n", "3"]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["probabilities"] == {
        "1^1 2^1": 0.5,
        "1^3": 0.3333333333333333,
        "3^1": 0.16666666666666666,
    }


def test_cli_import_leaves_out_the_interpolators(tmp_path):
    # a density table is built with numpy alone: neither the import nor
    # parsing a table and running rates and simulate on it loads
    # scipy.interpolate or the scipy.optimize it pulls in
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    spec = f"density-file:{table}"
    script = f"""
import contextlib, io, sys
import lambdacoal.cli
from lambdacoal import parse_measure
parse_measure({spec!r})
with contextlib.redirect_stdout(io.StringIO()):
    assert lambdacoal.cli.main(["rates", "--nmax", "10", "--measure", {spec!r}]) == 0
    assert lambdacoal.cli.main(["simulate", "set", "--measure", {spec!r}, "--mu", "1",
                                "--n", "5", "--reps", "20", "--seed", "1"]) == 0
print(sorted(m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_without_nodes_or_splines_leave_out_scipy_linalg(tmp_path):
    # exact, the samplers on finite measures and the default validation
    # leave out scipy.linalg, and so does parsing the pin table, whose
    # cubic spline and Gauss-Legendre nodes are numpy alone
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    script = f"""
import contextlib, io, sys
import lambdacoal.cli
from lambdacoal import parse_measure
runs = []
for measure in ("poly3x2", "atoms:0.5=0.25"):
    runs.append(["exact", "--measure", measure, "--mu", "1", "--n", "4"])
    for sampler in ("frozen", "chain", "set", "composition"):
        runs.append(["simulate", sampler, "--measure", measure, "--mu", "1", "--n", "4",
                     "--reps", "3", "--seed", "1"])
runs.append(["validate", "--reps", "50", "--seed", "5"])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    print(*[lambdacoal.cli.main(argv) for argv in runs], file=sys.__stdout__)
print("scipy.linalg" in sys.modules)
parse_measure({f"density-file:{table}"!r})
print("scipy.linalg" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes = " ".join([str(EXIT_OK)] * 10 + [str(EXIT_VALIDATION)])
    assert proc.stdout == f"{codes}\nFalse\nFalse\n"


# Every command on a table, an atom and delta:0, each run in one
# interpreter that prints {argv: [exit code, stdout]} as JSON and then the
# scipy submodules it loaded.
_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy.special"] = sys.modules["scipy.linalg"] = None
import lambdacoal.cli
runs = {}
for measure in (sys.argv[1], "atoms:0.5=0.25", "delta:0"):
    common = ["--measure", measure, "--mu", "1"]
    argvs = [["rates", "--nmax", "12", "--measure", measure],
             ["exact", *common, "--n", "4"],
             ["forward-snapshot", "--stationary", *common, "--seed", "2"],
             ["simulate", "forward", *common, "--horizon", "3", "--seed", "2"]]
    for sampler in ("frozen", "chain", "set", "composition"):
        argvs.append(["simulate", sampler, *common, "--n", "5", "--reps", "20", "--seed", "1"])
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lambdacoal.cli.main(argv)
        runs[" ".join(argv)] = [code, out.getvalue()]
print(json.dumps(runs))
print(sorted(m for m in ("scipy.special", "scipy.linalg") if sys.modules.get(m)))
"""


def test_table_and_atom_commands_load_neither_scipy_special_nor_linalg(tmp_path):
    # with both submodules blocked, every command on the pin table,
    # atoms:0.5=0.25 and delta:0 prints the same bytes and exits with the
    # same code as with them available, and the unblocked run loads
    # neither
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    results = []
    for mode in ("blocked", "open"):
        proc = subprocess.run(
            [sys.executable, "-c", _COMMANDS_SCRIPT, f"density-file:{table}", mode],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs, loaded = proc.stdout.splitlines()
        results.append(json.loads(runs))
        assert loaded == "[]"
    blocked, unblocked = results
    assert blocked == unblocked
    # delta:0 is refused by the window samplers and the forward process
    codes = [code for code, _ in unblocked.values()]
    assert sorted(codes) == [EXIT_OK] * 19 + [EXIT_NUMERIC] * 5


# Every command on Beta measures, the pin table and an atom, plus the
# default validation, run in one interpreter that prints {argv: [exit
# code, stdout]} as JSON and then the scipy modules it loaded.
_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
import lambdacoal.cli
argvs = [["validate", "--reps", "50", "--seed", "1"]]
for measure in ("poly3x2", "beta:1.9,1,1", "beta:2,2,1", sys.argv[1], "atoms:0.5=0.25"):
    common = ["--measure", measure, "--mu", "1"]
    argvs += [["rates", "--nmax", "12", "--measure", measure],
              ["exact", *common, "--n", "4"],
              ["forward-snapshot", "--stationary", *common, "--seed", "2"],
              ["simulate", "forward", *common, "--horizon", "3", "--seed", "2"]]
    for sampler in ("frozen", "chain", "set", "composition"):
        argvs.append(["simulate", sampler, *common, "--n", "5", "--reps", "20", "--seed", "1"])
runs = {}
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lambdacoal.cli.main(argv)
    runs[" ".join(argv)] = [code, out.getvalue()]
print(json.dumps(runs))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_command_loads_scipy(tmp_path):
    # with scipy itself blocked, every command on Beta measures (finite
    # and infinite activity), the pin table and an atom, and the default
    # validation, prints the same bytes and exits with the same code as
    # with scipy available, and the open run loads no scipy module
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    procs = {
        mode: subprocess.Popen(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, f"density-file:{table}", mode],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for mode in ("blocked", "open")
    }
    results = {}
    for mode, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        runs, loaded = out.splitlines()
        results[mode] = json.loads(runs), loaded
    assert results["blocked"][0] == results["open"][0]
    assert results["open"][1] == "[]"
    assert results["blocked"][1] == "['scipy']"
    # the forward process refuses the two infinite-activity Beta measures
    codes = [code for code, _ in results["open"][0].values()]
    assert sorted(codes) == [EXIT_OK] * 38 + [EXIT_VALIDATION] + [EXIT_NUMERIC] * 2


@pytest.mark.parametrize("command", [["simulate", "forward"], ["forward-snapshot"]])
def test_forward_over_the_point_budget_is_refused(command):
    # 3e308 expected jumps: refused at once rather than run without end
    proc = subprocess.run(
        [sys.executable, "-m", "lambdacoal.cli", *command, "--measure", "poly3x2",
         "--mu", "1", "--horizon", "1e308", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: WindowBudgetError: forward run")


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


def test_simulate_mu_zero_frozen_is_one_family(capsys):
    # without mutation nothing freezes, so the sample is one family, as
    # `exact` says; the stationary samplers still need mu > 0
    argv = ["--measure", "poly3x2", "--mu", "0", "--n", "3", "--reps", "2", "--seed", "1"]
    assert main(["simulate", "frozen"] + argv) == EXIT_OK
    assert capsys.readouterr().out == "3^1\n3^1\n"
    for sampler in ("chain", "set"):
        assert main(["simulate", sampler] + argv) == EXIT_NUMERIC
        assert "PopulationSupportError" in capsys.readouterr().err


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


_EWENS_CASE = {
    "case_id": "k",
    "kind": "ewens_equivalence",
    "measure_spec": "delta:0",
    "mu": 0.5,
    "n": 4,
}


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"cases": [dict(_EWENS_CASE, reps=9)]},
            "error: plan {path}: case 0: ",
        ),
        ({"plan": [_EWENS_CASE]}, "error: plan {path}: expected an object"),
        (
            # the retired reference sampler of the two-sample case
            {"cases": [dict(_EWENS_CASE, kind="sampler_vs_exact", sampler="sequential")]},
            "error: unknown sampler 'sequential'",
        ),
    ],
    ids=["unknown-key", "no-cases", "unknown-sampler"],
)
def test_validate_malformed_plan_is_usage_error(tmp_path, capsys, payload, message):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(payload))
    code = main(["validate", "--plan", str(path), "--reps", "10", "--seed", "1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(message.format(path=path))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", "5"),
        ("n", 5.5),
        ("measure_spec", 5),
        ("case_id", ["x"]),
        ("tvd_max", "big"),
        ("mu", "1"),
    ],
)
def test_validate_plan_field_of_the_wrong_type_is_usage_error(
    tmp_path, capsys, field, value
):
    # the first four died with a traceback, tvd_max "big" was reported
    # as a failing case and mu "1" was refused only by a format error
    plan = _write_plan(tmp_path, [dict(_EWENS_CASE, **{field: value})])
    code = main(["validate", "--plan", plan, "--reps", "10", "--seed", "1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: plan {plan}: case 0: {field} has the wrong type: {value!r}\n"
    )


def test_validate_case_above_the_binomial_range_fails_only_its_case(tmp_path, capsys):
    # its first-part law overflowed C(1030, m) and the run died
    big = {
        "case_id": "big",
        "kind": "first_part",
        "measure_spec": "poly3x2",
        "mu": 1,
        "n": 1030,
    }
    plan = _write_plan(tmp_path, [big, dict(_EWENS_CASE)])
    code = main(["validate", "--plan", plan, "--reps", "10", "--seed", "1"])
    assert code == EXIT_VALIDATION
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert reports[0]["error"] == (
        "ValueError: n = 1030 is above 1029: C(n, k) overflows a float"
    )
    assert [r["passed"] for r in reports] == [False, True]


def test_validate_pooling_failure_fails_only_its_case(tmp_path, capsys):
    # 10 frozen draws at n = 4 leave fewer than 2 chi-square cells after
    # pooling: that case records the error, and every case still reports
    frozen = {
        "case_id": "frozen-few",
        "kind": "sampler_vs_exact",
        "measure_spec": "poly3x2",
        "mu": 1.0,
        "n": 4,
        "sampler": "frozen",
    }
    chain = dict(frozen, case_id="chain-few", sampler="chain")
    plan = _write_plan(tmp_path, [frozen, chain])
    code = main(["validate", "--plan", plan, "--reps", "10", "--seed", "1"])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    reports = json.loads(captured.out)["reports"]
    assert [r["case_id"] for r in reports] == ["frozen-few", "chain-few"]
    assert reports[0]["error"] == "ValueError: fewer than 2 cells after pooling"
    assert reports[0]["passed"] is False
    assert "failing cases: frozen-few" in captured.err


def test_validate_mu_above_the_mass_bound_fails_only_its_case(tmp_path, capsys):
    # the frozen draw at mu = 1e308 died with an IndexError, and the run
    # lost every case's report
    huge = {
        "case_id": "huge-mu",
        "kind": "sampler_vs_exact",
        "measure_spec": "poly3x2",
        "mu": 1e308,
        "n": 4,
        "sampler": "frozen",
    }
    plan = _write_plan(tmp_path, [huge, dict(_EWENS_CASE)])
    code = main(["validate", "--plan", plan, "--reps", "10", "--seed", "1"])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    reports = json.loads(captured.out)["reports"]
    assert [r["case_id"] for r in reports] == ["huge-mu", "k"]
    assert reports[0]["error"] == "ValueError: mu must be finite and at most 1e+100"
    assert [r["passed"] for r in reports] == [False, True]
    assert "failing cases: huge-mu" in captured.err


def test_validate_unknown_kind_is_usage_error_before_any_case_draws(
    tmp_path, capsys, monkeypatch
):
    import lambdacoal.validation

    def refuse(*args):
        raise AssertionError("a case was prepared before the plan was checked")

    monkeypatch.setattr(lambdacoal.validation, "prepare_shared", refuse)
    # sequential_vs_window is the retired two-sample kind
    for kind in ("nope", "sequential_vs_window"):
        plan = _write_plan(tmp_path, [dict(_EWENS_CASE), dict(_EWENS_CASE, kind=kind)])
        code = main(["validate", "--plan", plan, "--reps", "10", "--seed", "1"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown case kind '{kind}'\n"
        assert captured.out == ""


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
# pinned streams
# ---------------------------------------------------------------------------

# Outputs recorded with numpy 2.4.6.  A change to any sampler's stream,
# to derive_rng or to the replicate order shows up here and must be made
# as an explicit edit of these values.
SIMULATE_POLY3X2_N6 = {
    "frozen": [
        "1^2 4^1",
        "1^4 2^1",
        "1^3 3^1",
        "1^3 3^1",
        "1^1 5^1",
        "1^4 2^1",
        "1^1 5^1",
        "1^1 5^1",
    ],
    "chain": [
        "1^2 4^1",
        "1^1 2^1 3^1",
        "1^4 2^1",
        "6^1",
        "1^4 2^1",
        "1^1 5^1",
        "1^1 5^1",
        "1^6",
    ],
    "set": [
        "1^2 2^2",
        "1^1 2^1 3^1",
        "1^2 4^1",
        "1^3 3^1",
        "1^2 4^1",
        "1^6",
        "1^2 4^1",
        "1^3 3^1",
    ],
    "composition": [
        "1,1,1,3",
        "1,1,1,2,1",
        "1,4,1",
        "1,1,1,1,2",
        "3,1,1,1",
        "3,1,1,1",
        "1,1,4",
        "1,5",
    ],
}
# beta:1.9,1,1 has infinite activity, so these windows are truncated at
# the auto cutoff
SIMULATE_BETA19_N6 = {
    "set": [
        "1^3 3^1",
        "1^6",
        "1^4 2^1",
        "1^3 3^1",
        "1^2 4^1",
        "1^1 5^1",
        "1^3 3^1",
        "1^4 2^1",
    ],
    "composition": [
        "1,1,1,1,1,1",
        "5,1",
        "1,3,1,1",
        "1,2,2,1",
        "2,1,1,1,1",
        "1,1,1,3",
        "1,1,4",
        "1,2,3",
    ],
}
# sha256 of {case_id: [empirical, reference]} over the default plan;
# reference is null in every report
VALIDATE_DEFAULT_TABLES_SHA256 = (
    "662ec70d0050743af8f9db4e388d51b3965a8517e83b339b8afe37f66b3fd86c"
)


@pytest.mark.parametrize(
    "sampler, spec, expected",
    [
        pytest.param(s, "poly3x2", SIMULATE_POLY3X2_N6[s], id=s)
        for s in sorted(SIMULATE_POLY3X2_N6)
    ]
    + [
        pytest.param(s, "beta:1.9,1,1", SIMULATE_BETA19_N6[s], id=f"{s}-beta1.9")
        for s in sorted(SIMULATE_BETA19_N6)
    ],
)
def test_simulate_streams_pinned(capsys, sampler, spec, expected):
    argv = ["simulate", sampler, "--measure", spec, "--mu", "1", "--n", "6"]
    assert main(argv + ["--reps", "8", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out.split("\n")[:-1] == expected


# a cubic 6-node table whose interpolant dips below 0 between 0.42 and
# 0.74, so the clipped cells are read too
PIN_TABLE_TEXT = "0.1 0.2\n0.26 1.0\n0.42 0.1\n0.58 0\n0.74 2\n0.9 1.5\n"
SIMULATE_TABLE_N6 = {
    "frozen": [
        "1^2 4^1",
        "1^4 2^1",
        "1^3 3^1",
        "1^3 3^1",
        "1^1 5^1",
        "1^4 2^1",
        "1^2 4^1",
        "1^1 5^1",
    ],
    "chain": [
        "1^4 2^1",
        "1^1 2^1 3^1",
        "1^4 2^1",
        "6^1",
        "1^4 2^1",
        "1^1 2^1 3^1",
        "1^1 5^1",
        "1^6",
    ],
    "set": [
        "1^6",
        "1^1 5^1",
        "1^4 2^1",
        "1^4 2^1",
        "1^1 5^1",
        "1^1 5^1",
        "1^4 2^1",
        "1^4 2^1",
    ],
    "composition": [
        "1,1,1,1,1,1",
        "1,1,3,1",
        "2,1,1,2",
        "1,1,1,2,1",
        "1,1,1,1,1,1",
        "1,1,1,1,1,1",
        "1,2,2,1",
        "1,1,1,2,1",
    ],
}


@pytest.mark.parametrize("sampler", sorted(SIMULATE_TABLE_N6))
def test_simulate_table_streams_pinned(tmp_path, capsys, sampler):
    table = tmp_path / "table.txt"
    table.write_text(PIN_TABLE_TEXT)
    argv = ["simulate", sampler, "--measure", f"density-file:{table}", "--mu", "1", "--n", "6"]
    assert main(argv + ["--reps", "8", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out.split("\n")[:-1] == SIMULATE_TABLE_N6[sampler]


# sha256 of the whole stdout of `rates --format csv --nmax 60`: every rate
# and total of the pinned table and of the two near-zero tables, to the bit
RATES_TABLE_CSV_SHA256 = {
    "pin-table": "cdf954c790f8bd90cc4b5adb34c6271f6966383aaa48a07bd9c7b3a1696bb7fc",
    "subnormal": "1f8078ad9c1353eaa6ef1355331c5b59314fae96f9e619b81e134e4b59e613c5",
    "tiny-heavy": "55dc3f31d2b55a09cb28c0dfd7d7586ba62ca3cf72e3396639e47c53b26bd0b3",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("table", sorted(RATES_TABLE_CSV_SHA256))
def test_rates_table_csv_pinned(tmp_path, capsys, table):
    path = tmp_path / "table.txt"
    path.write_text({"pin-table": PIN_TABLE_TEXT, **NEAR_ZERO_TABLES}[table])
    argv = ["rates", "--format", "csv", "--nmax", "60", "--measure", f"density-file:{path}"]
    assert main(argv) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == RATES_TABLE_CSV_SHA256[table]


@pytest.mark.parametrize("table", sorted(RATES_TABLE_CSV_SHA256))
def test_rates_table_near_scipy_nodes(tmp_path, capsys, monkeypatch, table):
    # the pinned rates against those on scipy's Gauss-Legendre nodes: the
    # library's own nodes differ from them in the last bits only
    import scipy.special

    import lambdacoal.measures

    path = tmp_path / "table.txt"
    path.write_text({"pin-table": PIN_TABLE_TEXT, **NEAR_ZERO_TABLES}[table])
    argv = ["rates", "--format", "csv", "--nmax", "60", "--measure", f"density-file:{path}"]
    tables = []
    scipy_nodes = functools.lru_cache(maxsize=None)(scipy.special.roots_legendre)
    for legendre in (lambdacoal.measures._legendre, scipy_nodes):
        monkeypatch.setattr(lambdacoal.measures, "_legendre", legendre)
        assert main(argv) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        tables.append(np.array([row.split(",") for row in rows], dtype=float))
    ours, scipys = tables
    assert np.array_equal(ours[:, :2], scipys[:, :2])
    assert np.all(np.abs(ours[:, 2:] - scipys[:, 2:]) <= 1e-12 * np.abs(scipys[:, 2:]))


def test_validate_default_streams_pinned(capsys):
    # 50 replicates are far too few for the tolerances: exit 1 is expected
    assert main(["validate", "--reps", "50", "--seed", "5"]) == EXIT_VALIDATION
    payload = json.loads(capsys.readouterr().out)
    tables = {r["case_id"]: [r["empirical"], r["reference"]] for r in payload["reports"]}
    digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
    assert digest == VALIDATE_DEFAULT_TABLES_SHA256


# sha256 of the whole stdout.  mu = 0 over a long horizon drops atoms only
# after jumps, mu = 10 drops them only by erosion.
FORWARD_SHA256 = {
    ("simulate", "1", "5", "1"): (
        "34d0c5351d771a84798c01e59e8b59166db268227a60a82e0d3a65c381be5f9f"
    ),
    ("simulate", "0", "200", "2"): (
        "103acf9fe8a36fc9953ef2036cda5b7f8ca66676620eb1680b0326291cc416c6"
    ),
    ("simulate", "10", "20", "3"): (
        "d76be5106f3880aa62a31cb11e19b3e6def6939b22bb99adaff83d053bbef9ed"
    ),
    ("forward-snapshot", "1", "5", "4"): (
        "cc11aaecf6d659239a2424c1f59526a1321cc86441d5bc0052ab5e01dcf2ff68"
    ),
    ("forward-snapshot", "0", "200", "2"): (
        "991d8f5889430954daf6602732f7e85f6a75f51462911a7cff7e043f67b6e693"
    ),
    ("forward-snapshot", "10", "20", "3"): (
        "4b7e62d6b57bb2bb7d0f61d72660ee078939fb253b99f7fa089888723d92ee0c"
    ),
}


@pytest.mark.parametrize(
    "command, mu, horizon, seed",
    [pytest.param(*key, id="-".join(key)) for key in sorted(FORWARD_SHA256)],
)
def test_forward_streams_pinned(capsys, command, mu, horizon, seed):
    argv = ["simulate", "forward"] if command == "simulate" else [command]
    flags = ["--mu", mu, "--horizon", horizon, "--seed", seed]
    assert main(argv + ["--measure", "atoms:0.5=0.25"] + flags) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FORWARD_SHA256[command, mu, horizon, seed]


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
# one-row samplers refuse as the CLI does
# ---------------------------------------------------------------------------

# entry: (one-row library call, the CLI command drawing the same thing)
_ONE_ROW_ENTRIES = {
    "set": (
        lambda m, mu, rng: sample_family_partition_set(m, mu, 4, rng),
        ["simulate", "set", "--n", "4"],
    ),
    "chain": (
        lambda m, mu, rng: sample_family_partition_chain(m, mu, 4, rng),
        ["simulate", "chain", "--n", "4"],
    ),
    "stationary": (
        lambda m, mu, rng: rho_state(LitterHistory.build(m, mu, rng)),
        ["forward-snapshot", "--stationary"],
    ),
}


@pytest.mark.parametrize("entry", list(_ONE_ROW_ENTRIES))
@pytest.mark.parametrize("mu", ["0", "1"])
@pytest.mark.parametrize(
    "spec",
    ["delta:0", "beta:1,1,1", "atoms:0=1,0.5=1", "delta:1", "atoms:0.5=0.25,1=0.1", "poly3x2"],
)
def test_one_row_samplers_refuse_as_the_cli_does(capsys, spec, mu, entry):
    # the first three specs have a divergent 1/x integral, the next two an
    # atom at 1; the one-row calls refused them with PopulationSupportError
    # where the CLI printed DustConditionError, and the chain at mu = 0
    # named the atom where the CLI named mu
    one_row, command = _ONE_ROW_ENTRIES[entry]
    try:
        one_row(parse_measure(spec), float(mu), derive_rng(1, "one-row", 0))
        refusal = None
    except LambdaCoalError as exc:
        refusal = f"{type(exc).__name__}: {exc}"
    code = main(command + ["--measure", spec, "--mu", mu, "--seed", "1"])
    err = capsys.readouterr().err
    if refusal is None:
        assert (code, err) == (EXIT_OK, "")
    else:
        assert (code, err) == (EXIT_NUMERIC, f"error: {refusal}\n")


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

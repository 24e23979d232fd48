"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one summary line; test names carry the criterion
number so a verbose run reads as the acceptance checklist.  Tolerances,
replicate counts and runtime budgets are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from lambdacoal import (
    LitterHistory,
    ValidationCase,
    build_rate_table,
    chi_square_gof,
    composition_law,
    cutoff_deviation,
    default_window_horizon,
    derive_rng,
    ewens,
    first_part_law,
    forward_simulate,
    parse_measure,
    rho_state,
    run_validation,
    sample_composition_detailed,
    sample_window,
    solve,
    total_variation,
)
from lambdacoal.cli import main as cli_main
from lambdacoal.subordinator import delete_random_ball

SEED = 20260815

POLY = parse_measure("poly3x2")
POLY_SPEC = "poly3x2"
HALF_ATOM_SPEC = "atoms:0.5=0.25"

MEASURE_FIXTURES = [
    "delta:0",
    "delta:1",
    "beta:1,1,1",
    "poly3x2",
    "atoms:0.5=0.25",
    "beta:2,2,1",
]


def _report(num, detail):
    print(f"criterion {num}: PASS ({detail})")


def test_criterion_01_ewens_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for mu in (0.25, 0.5, 1.0, 2.0):
        rates = build_rate_table(parse_measure("delta:0"), 10)
        for n in range(1, 11):
            dist = solve(rates, mu, n)
            ref = ewens(2.0 * mu, n)
            diff = max(
                abs(dist.prob(pv) - ref.prob(pv)) for pv, _ in dist.items_ordered()
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, f"max |recursion - closed form| {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_rate_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in MEASURE_FIXTURES:
        table = build_rate_table(parse_measure(spec), 50)
        for b in range(2, 50):
            for k in range(2, b + 1):
                lam = table.rate(b, k)
                resid = abs(lam - table.rate(b + 1, k) - table.rate(b + 1, k + 1))
                rel = resid / (1.0 + lam)
                worst = max(worst, rel)
                assert rel <= 1e-9, (spec, b, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        2,
        f"max consistency residual {worst:.2e} over {len(MEASURE_FIXTURES)} "
        f"measures, b<=49, in {elapsed:.1f}s",
    )


def test_criterion_03_three_samplers_vs_exact():
    t0 = time.perf_counter()
    plan = [
        ValidationCase(
            f"{sampler}-{spec}", "sampler_vs_exact", spec, 1.0, 5, sampler
        )
        for spec in (POLY_SPEC, HALF_ATOM_SPEC)
        for sampler in ("frozen", "chain", "set")
    ]
    reports = run_validation(plan, 10**5, SEED)
    elapsed = time.perf_counter() - t0
    for r in reports:
        assert r.error is None, (r.case_id, r.error)
        assert r.tvd <= 0.01, (r.case_id, r.tvd)
        assert r.p_value >= 1e-3, (r.case_id, r.p_value)
        assert r.passed
    assert elapsed < 300.0
    worst_tvd = max(r.tvd for r in reports)
    worst_p = min(r.p_value for r in reports)
    _report(
        3,
        f"6 sampler/fixture cells at 1e5 reps: max TVD {worst_tvd:.4f}, "
        f"min p {worst_p:.3f}, in {elapsed:.0f}s",
    )


def test_criterion_04_first_part_law_and_regeneration():
    n = 5
    reps = 10**5
    t0_horizon = default_window_horizon(POLY, 1.0, n)
    first_counts: dict[str, int] = {}
    remainders = {1: {}, 2: {}}
    for rep in range(reps):
        rng = derive_rng(SEED, "acc4-window", rep)
        window = sample_window(POLY, 1.0, t0_horizon, rng=rng)
        detail = sample_composition_detailed(window, n, rng)
        parts = detail.composition.parts
        first = parts[0]
        if first == 1:
            key = "1l" if detail.litter[0] else "1m"
        else:
            key = str(first)
        first_counts[key] = first_counts.get(key, 0) + 1
        if first in remainders and len(parts) > 1:
            rest = ",".join(str(p) for p in parts[1:])
            remainders[first][rest] = remainders[first].get(rest, 0) + 1

    law = first_part_law(POLY, 1.0, n)
    exact = {"1m": law.p_single_mutant, "1l": law.p_single_alone}
    for m in range(2, n + 1):
        exact[str(m)] = law.probs[m - 1]
    tvd = total_variation(exact, first_counts)
    assert tvd <= 0.01

    # regeneration: remainder beyond a first part of size m is a fresh
    # composition of n - m, whose law is exact
    p_values = []
    for m in (1, 2):
        _, _, p = chi_square_gof(composition_law(POLY, 1.0, n - m), remainders[m])
        p_values.append(p)
        assert p >= 1e-3, (m, p)
    _report(
        4,
        f"first-part TVD {tvd:.4f} at 1e5 reps; regeneration p = "
        f"{p_values[0]:.3f} (m=1), {p_values[1]:.3f} (m=2)",
    )


def test_criterion_05_heights_geometric():
    mu = 1.0
    q1 = first_part_law(POLY, mu, 1).p_single_mutant  # mu / Phi(1) by quadrature
    reps = 10**5
    tail_at = 15
    counts: dict[str, int] = {}
    horizon = default_window_horizon(POLY, mu, 1)
    for rep in range(reps):
        rng = derive_rng(SEED, "acc5", rep)
        window = sample_window(POLY, mu, horizon, rng=rng)
        if window.npoints == 0:
            continue
        history = LitterHistory(window)
        _, height = history.resolve_root(0)
        key = str(min(height, tail_at))
        counts[key] = counts.get(key, 0) + 1
    exact = {str(h): q1 * (1.0 - q1) ** h for h in range(tail_at)}
    exact[str(tail_at)] = (1.0 - q1) ** tail_at
    stat, df, p = chi_square_gof(exact, counts)
    assert p >= 1e-3
    _report(
        5,
        f"heights vs Geometric({q1:.3f}): chi2 {stat:.1f} on {df} df, "
        f"p {p:.3f}, {sum(counts.values())} litters",
    )


def test_criterion_06_cutoff_deviation_bound():
    mu = 1.0
    horizon = default_window_horizon(POLY, mu, 1)
    assert horizon > 5.0  # both cutoffs lie inside the window
    paths = 10**3
    worst = {1.0: 0.0, 5.0: 0.0}
    for rep in range(paths):
        rng = derive_rng(SEED, "acc6", rep)
        window = sample_window(POLY, mu, horizon, rng=rng)
        grid = np.linspace(0.0, window.T, 200)
        for t in (1.0, 5.0):
            dev = cutoff_deviation(window, t, grid)
            assert dev < math.exp(-mu * t), (t, dev)
            worst[t] = max(worst[t], dev)
    assert worst[1.0] > 0.0  # the check is not vacuous
    _report(
        6,
        f"zero violations in {paths} paths: sup dev {worst[1.0]:.4f} < "
        f"{math.exp(-1.0):.4f} (t=1), {worst[5.0]:.2e} < "
        f"{math.exp(-5.0):.2e} (t=5)",
    )


def test_criterion_07_composition_law():
    case = ValidationCase(
        "composition-poly3x2-n4", "sampler_vs_exact", POLY_SPEC, 1.0, 4, "composition"
    )
    (report,) = run_validation([case], 10**5, SEED)
    assert report.error is None
    assert report.p_value >= 1e-3
    assert report.passed
    assert report.truncation_bias <= 1e-6
    _report(
        7,
        f"window compositions vs their regenerative law: p {report.p_value:.3f}, "
        f"truncation bias <= {report.truncation_bias:.1e}",
    )


def test_criterion_08_ball_deletion_consistency():
    n = 5
    reps = 5 * 10**4
    horizon = default_window_horizon(POLY, 1.0, n)
    deleted: dict[str, int] = {}
    for rep in range(reps):
        rng = derive_rng(SEED, "acc8-del", rep)
        window = sample_window(POLY, 1.0, horizon, rng=rng)
        comp = sample_composition_detailed(window, n, rng).composition
        smaller = delete_random_ball(comp, rng)
        deleted[smaller.to_text()] = deleted.get(smaller.to_text(), 0) + 1
    stat, df, p = chi_square_gof(composition_law(POLY, 1.0, n - 1), deleted)
    assert p >= 1e-3
    _report(8, f"delete-one from C_5 vs C_4: chi2 {stat:.1f} on {df} df, p {p:.3f}")


def test_criterion_09_mass_conservation_and_determinism(tmp_path):
    worst = 0.0
    for rep in range(100):
        rng = derive_rng(SEED, "acc9-fwd", rep)
        path = forward_simulate(POLY, 1.0, 5.0, rng)
        for _, state in path:
            worst = max(worst, abs(state.total() - 1.0))
    for rep in range(100):
        rng = derive_rng(SEED, "acc9-rho", rep)
        history = LitterHistory.build(POLY, 1.0, rng)
        worst = max(worst, abs(rho_state(history).total() - 1.0))
    assert worst <= 1e-12

    runs = []
    for tag in ("x", "y"):
        out = tmp_path / f"sim-{tag}.txt"
        snap = tmp_path / f"snap-{tag}.json"
        assert (
            cli_main(
                [
                    "simulate",
                    "frozen",
                    "--measure",
                    POLY_SPEC,
                    "--mu",
                    "1",
                    "--n",
                    "5",
                    "--reps",
                    "500",
                    "--seed",
                    "7",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "forward-snapshot",
                    "--measure",
                    POLY_SPEC,
                    "--mu",
                    "1",
                    "--stationary",
                    "--seed",
                    "7",
                    "--output",
                    str(snap),
                ]
            )
            == 0
        )
        runs.append((out.read_bytes(), snap.read_bytes()))
    assert runs[0] == runs[1]
    _report(
        9,
        f"max |total - 1| {worst:.1e} over all emitted states; "
        "CLI bytes identical across runs",
    )


def test_criterion_10_negative_control(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "cases": [
                    {
                        "case_id": "mismatched-mu",
                        "kind": "sampler_vs_exact",
                        "measure_spec": POLY_SPEC,
                        "mu": 1.0,
                        "n": 5,
                        "sampler": "frozen",
                        "exact_mu": 0.25,
                    }
                ]
            }
        )
    )
    out_path = tmp_path / "report.json"
    code = cli_main(
        [
            "validate",
            "--plan",
            str(plan_path),
            "--reps",
            "20000",
            "--seed",
            str(SEED),
            "--output",
            str(out_path),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "mismatched-mu" in err
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is False
    (entry,) = payload["reports"]
    assert not all(entry["criteria"].values())
    _report(
        10,
        f"wrong exact-side mu rejected: exit 1, tvd {entry['tvd']:.3f}, "
        f"p {entry['p_value']:.1e}",
    )

"""Rates, first-part laws, tail statistics and jump-size sampling.

Derived expectations were frozen from independent oracles: closed Beta
integrals checked against scipy.integrate.quad (see conftest.quad_rate)
and direct substitution for atomic measures.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from scipy.stats import kstest

import lambdacoal as lc
from lambdacoal import (
    AtomicMeasure,
    BetaMeasure,
    DensityTableMeasure,
    DegenerateMeasureError,
    DustConditionError,
    InfiniteActivityError,
    MeasureSpecError,
    PopulationSupportError,
    build_rate_table,
    coalescence_rate,
    choose_truncation,
    dust_integral,
    first_part_law,
    first_part_laws_upto,
    first_part_weight,
    litter_intensity_tail,
    measure_descriptor,
    parse_measure,
    require_population_support,
    sample_jump_sizes,
    single_ball_integral,
    total_mass,
)
from lambdacoal._quadrature import _legendre
from lambdacoal.measures import _nu_rows
from lambdacoal.validation import _chi_square

from conftest import choose_truncation_reference, quad_rate

DELTA0 = parse_measure("delta:0")
DELTA1 = parse_measure("delta:1")
LEBESGUE = parse_measure("beta:1,1,1")
POLY = parse_measure("poly3x2")
HALF_ATOM = parse_measure("atoms:0.5=0.25")
BETA221 = parse_measure("beta:2,2,1")


# ---------------------------------------------------------------------------
# parsing and descriptors
# ---------------------------------------------------------------------------


def test_parse_delta():
    m = parse_measure("delta:0.3")
    assert isinstance(m, AtomicMeasure)
    assert m.locations == (0.3,)
    assert m.weights == (1.0,)


def test_parse_atoms():
    m = parse_measure("atoms:0.2=0.5,0.7=1.5")
    assert m.locations == (0.2, 0.7)
    assert m.weights == (0.5, 1.5)


def test_parse_beta_and_poly():
    m = parse_measure("beta:2,3,0.5")
    assert isinstance(m, BetaMeasure)
    assert (m.alpha, m.beta, m.mass) == (2.0, 3.0, 0.5)
    p = parse_measure("poly3x2")
    # 3x^2 dx is the Beta(3,1) shape with unit total mass
    assert isinstance(p, BetaMeasure)
    assert (p.alpha, p.beta, p.mass) == (3.0, 1.0, 1.0)


def test_parse_density_file(tmp_path):
    path = tmp_path / "dens.txt"
    xs = np.linspace(0.05, 0.95, 31)
    np.savetxt(path, np.column_stack([xs, 3.0 * xs**2]))
    m = parse_measure(f"density-file:{path}")
    assert isinstance(m, DensityTableMeasure)
    assert m.order == 3
    assert m.density_at(0.5) == pytest.approx(0.75, rel=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        # cubic: the slopes of the spline overflow
        "0.1 1e308\n0.3 0\n0.5 1e308\n0.7 0\n0.9 1e308\n",
        # cubic: finite slopes, but the spline's end derivatives do not fit
        "0.1 1e307\n0.3 0\n0.5 1e307\n0.7 0\n0.9 1e307\n",
        # linear: the one slope overflows
        "0.1 0\n0.2 1e308\n0.9 0\n",
    ],
    ids=["cubic-slopes", "cubic-derivatives", "linear-slope"],
)
def test_parse_density_file_overflowing_interpolant(tmp_path, text):
    path = tmp_path / "dens.txt"
    path.write_text(text)
    with pytest.raises(MeasureSpecError, match="overflow the interpolant"):
        parse_measure(f"density-file:{path}")


@pytest.mark.parametrize(
    "bad",
    [
        "delta:1.5",
        "delta:x",
        "atoms:",
        "atoms:0.5",
        "atoms:0.5=-1",
        "beta:0,1,1",
        "beta:1,1",
        "nonsense",
        "density-file:/nonexistent/path.txt",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MeasureSpecError):
        parse_measure(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec",
    ["beta:2,2,1e308", "beta:1,1,2e100", "atoms:0.5=1e308", "atoms:0.2=6e99,0.7=6e99"],
)
def test_parse_refuses_mass_above_bound(spec):
    with pytest.raises(MeasureSpecError, match="total mass"):
        parse_measure(spec)


@pytest.mark.filterwarnings("error")
def test_parse_density_file_refuses_mass_above_bound(tmp_path):
    # a finite interpolant whose moments overflow
    path = tmp_path / "dens.txt"
    path.write_text("0.1 1e308\n0.9 1e308\n")
    with pytest.raises(MeasureSpecError, match="total mass"):
        parse_measure(f"density-file:{path}")


def test_mass_at_bound_is_accepted():
    assert total_mass(parse_measure("beta:1,1,1e100")) == 1e100
    assert total_mass(parse_measure("atoms:0.5=1e100")) == 1e100


def test_atom_whose_power_underflows_diverges():
    # 1e-200 squared underflows to 0: the atom reads as an atom at 0 to nu
    m = parse_measure("atoms:1e-200=1")
    with pytest.raises(lc.NonIntegrableError):
        m.moment(-2.0)
    with pytest.raises(InfiniteActivityError):
        litter_intensity_tail(m, 0.0)
    assert m.moment(-1.0) == 1e200
    assert coalescence_rate(m, 3, 2) == 1.0


@pytest.mark.filterwarnings("error")
def test_beta_moment_that_overflows_reads_inf():
    # nu's mass is about 1e600: the Beta-function ratio overflows, on all
    # of (0, 1) and on the sub-interval choose_truncation first tries
    m = parse_measure("beta:3,1e300,1")
    assert m.moment(-2.0) == math.inf
    assert m.moment(-2.0, 0.0, 0.0, 1e-30) == math.inf
    assert total_mass(m) == 1.0
    with pytest.raises(InfiniteActivityError, match="overflows"):
        litter_intensity_tail(m, 0.0)


def test_descriptor_round_trip():
    for spec in ["delta:0", "delta:1", "atoms:0.5=0.25", "beta:2,2,1"]:
        m = parse_measure(spec)
        assert measure_descriptor(m) == spec or measure_descriptor(m).startswith(
            spec.split(":")[0]
        )
    assert measure_descriptor(POLY) == "beta:3,1,1"


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rate_delta0_closed_form():
    # integrand x^(k-2) (1-x)^(b-k) at x=0 is 1 iff k=2
    assert coalescence_rate(DELTA0, 5, 2) == 1.0
    assert coalescence_rate(DELTA0, 5, 3) == 0.0


def test_rate_delta1_closed_form():
    # at x=1 the integrand is 1 iff k=b
    assert coalescence_rate(DELTA1, 5, 5) == 1.0
    assert coalescence_rate(DELTA1, 5, 4) == 0.0


def test_rate_lebesgue_frozen_value():
    # 1/6 = B(k-1, b-k+1) at b=4, k=3; frozen from the Beta-integral
    # oracle and checked against quadrature below
    assert coalescence_rate(LEBESGUE, 4, 3) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_rate_poly_frozen_value():
    # 3 * B(3, 2) = 1/4 at b=3, k=2
    assert coalescence_rate(POLY, 3, 2) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("b,k", [(2, 2), (4, 3), (6, 2), (7, 7), (9, 4)])
def test_rates_match_quad_oracle(b, k):
    assert coalescence_rate(LEBESGUE, b, k) == pytest.approx(
        quad_rate(lambda x: 1.0, b, k), rel=1e-9
    )
    assert coalescence_rate(POLY, b, k) == pytest.approx(
        quad_rate(lambda x: 3.0 * x * x, b, k), rel=1e-9
    )
    assert coalescence_rate(BETA221, b, k) == pytest.approx(
        quad_rate(lambda x: 6.0 * x * (1.0 - x), b, k), rel=1e-9
    )


def test_rate_table_delta0():
    t = build_rate_table(DELTA0, 3)
    assert t.rate(2, 2) == 1.0
    assert t.rate(3, 2) == 1.0
    assert t.rate(3, 3) == 0.0
    assert t.total(3) == pytest.approx(3.0)


def test_rate_table_lebesgue_n3():
    t = build_rate_table(LEBESGUE, 3)
    assert t.rate(3, 2) == pytest.approx(0.5, abs=1e-12)
    assert t.rate(3, 3) == pytest.approx(0.5, abs=1e-12)
    assert t.rate(2, 2) == pytest.approx(t.rate(3, 2) + t.rate(3, 3), abs=1e-12)


@pytest.mark.parametrize(
    "measure", [DELTA0, DELTA1, LEBESGUE, POLY, HALF_ATOM, BETA221]
)
def test_consistency_identity(measure):
    n_max = 12
    t = build_rate_table(measure, n_max)
    for b in range(2, n_max):
        for k in range(2, b + 1):
            lhs = t.rate(b, k)
            rhs = t.rate(b + 1, k) + t.rate(b + 1, k + 1)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + lhs)


def test_total_includes_binomial_counts():
    t = build_rate_table(LEBESGUE, 5)
    expect = math.fsum(
        math.comb(5, k) * t.rate(5, k) for k in range(2, 6)
    )
    assert t.total(5) == pytest.approx(expect, rel=1e-12)


def test_density_table_matches_beta_closed_form():
    # same polynomial densities via the table representation; the tiny
    # support clip at 1e-9 keeps the missing tail mass below 1e-8 relative
    xs = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    poly_table = DensityTableMeasure(tuple(xs), tuple(3.0 * xs**2), order=3)
    b221_table = DensityTableMeasure(
        tuple(xs), tuple(6.0 * xs * (1.0 - xs)), order=3
    )
    for b, k in [(2, 2), (4, 3), (5, 2), (6, 6)]:
        assert coalescence_rate(poly_table, b, k) == pytest.approx(
            coalescence_rate(POLY, b, k), rel=1e-8
        )
        assert coalescence_rate(b221_table, b, k) == pytest.approx(
            coalescence_rate(BETA221, b, k), rel=1e-8
        )


def test_rate_table_out_of_range():
    t = build_rate_table(LEBESGUE, 4)
    with pytest.raises(ValueError):
        t.rate(5, 2)
    with pytest.raises(ValueError):
        t.rate(3, 1)


# ---------------------------------------------------------------------------
# first-part weights and laws
# ---------------------------------------------------------------------------


def test_phi_weight_half_atom():
    # mu=0, Lambda=(1/4)delta_{1/2}: C(3,2) (1/2)^2 (1/2) = 3/8
    assert first_part_weight(HALF_ATOM, 0.0, 3, 2) == pytest.approx(0.375, abs=1e-14)


def test_phi_weight_poly_n1():
    # mu=1: 1 + integral x * 3 dx = 1 + 3/2
    assert first_part_weight(POLY, 1.0, 1, 1) == pytest.approx(2.5, abs=1e-12)


def test_phi_weight_m2_mu_independent():
    for mu in [0.0, 0.5, 2.0]:
        assert first_part_weight(POLY, mu, 4, 2) == pytest.approx(
            math.comb(4, 2) * coalescence_rate(POLY, 4, 2), rel=1e-12
        )


def test_first_part_law_half_atom():
    # frozen: q(m) = C(3,m)/(2^3 - 1) = (3/7, 3/7, 1/7)
    law = first_part_law(HALF_ATOM, 0.0, 3)
    assert law.probs == pytest.approx((3 / 7, 3 / 7, 1 / 7), abs=1e-12)
    assert law.p_single_mutant == 0.0
    assert law.p_single_alone == pytest.approx(3 / 7, abs=1e-12)


def test_first_part_law_pure_drift():
    law = first_part_law(AtomicMeasure((), ()), 2.0, 4)
    assert law.p_single_mutant == 1.0
    assert law.probs[0] == 1.0
    assert all(p == 0.0 for p in law.probs[1:])


def test_first_part_law_poly_n1():
    law = first_part_law(POLY, 1.0, 1)
    assert law.p_single_mutant == pytest.approx(0.4, abs=1e-12)
    assert law.weight_total == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("measure", [POLY, HALF_ATOM, BETA221])
@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_first_part_law_normalized(measure, mu, n):
    if mu == 0.0 and n == 1:
        law = first_part_law(measure, mu, n)
        assert law.p_single_mutant == 0.0
    law = first_part_law(measure, mu, n)
    assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= p <= 1.0 for p in law.probs)
    assert law.probs[0] == pytest.approx(
        law.p_single_mutant + law.p_single_alone, abs=1e-12
    )


def test_first_part_law_scale_invariance():
    # characteristics (c*mu, c*nu) give the same law
    base = first_part_law(POLY, 1.0, 5)
    for c in (0.5, 2.0):
        scaled_measure = BetaMeasure(3.0, 1.0, c)
        law = first_part_law(scaled_measure, c * 1.0, 5)
        assert law.probs == pytest.approx(base.probs, abs=1e-12)
        assert law.p_single_mutant == pytest.approx(base.p_single_mutant, abs=1e-12)
        assert law.p_single_alone == pytest.approx(base.p_single_alone, abs=1e-12)


def test_first_part_law_degenerate():
    with pytest.raises(DegenerateMeasureError):
        first_part_law(AtomicMeasure((), ()), 0.0, 3)


def test_dust_condition_errors():
    with pytest.raises(DustConditionError):
        dust_integral(DELTA0)
    with pytest.raises(DustConditionError):
        dust_integral(LEBESGUE)  # alpha = 1
    with pytest.raises(DustConditionError):
        first_part_weight(LEBESGUE, 0.0, 3, 1)
    assert dust_integral(POLY) == pytest.approx(1.5, abs=1e-12)
    assert dust_integral(HALF_ATOM) == pytest.approx(0.5, abs=1e-12)


def test_single_ball_integral_oracle():
    # integral x^{-1} (1-x)^{n-1} Lambda(dx) for 3x^2 dx, n=3
    expect, _ = scipy.integrate.quad(lambda x: 3.0 * x * (1.0 - x) ** 2, 0.0, 1.0)
    assert single_ball_integral(POLY, 3) == pytest.approx(expect, rel=1e-10)


def test_population_support_gate():
    with pytest.raises(PopulationSupportError):
        require_population_support(DELTA0)
    with pytest.raises(PopulationSupportError):
        require_population_support(DELTA1)
    with pytest.raises(PopulationSupportError):
        require_population_support(LEBESGUE)
    require_population_support(POLY)
    require_population_support(HALF_ATOM)


# ---------------------------------------------------------------------------
# tail statistics and truncation
# ---------------------------------------------------------------------------


def test_tail_poly_finite_activity():
    # nu = 3 * Lebesgue: mass above 0 is 3, nothing below
    above, below = litter_intensity_tail(POLY, 0.0)
    assert above == pytest.approx(3.0, rel=1e-10)
    assert below == 0.0


def test_tail_beta221_infinite_activity():
    with pytest.raises(InfiniteActivityError):
        litter_intensity_tail(BETA221, 0.0)


def test_tail_beta221_positive_eps():
    # nu density 6(1-x)/x: mass above eps = 6(ln(1/eps) - (1-eps)),
    # x-moment below = 6(eps - eps^2/2)
    eps = 0.01
    above, below = litter_intensity_tail(BETA221, eps)
    assert above == pytest.approx(6.0 * (-math.log(eps) - (1.0 - eps)), rel=1e-9)
    assert below == pytest.approx(6.0 * (eps - eps * eps / 2.0), rel=1e-9)


def test_tail_vanishes_near_one():
    above, _ = litter_intensity_tail(POLY, 1.0 - 1e-9)
    assert above <= 3e-9 / (1.0 - 1e-9) ** 2 + 1e-12


def test_tail_atom_at_zero():
    with pytest.raises(InfiniteActivityError):
        litter_intensity_tail(DELTA0, 0.0)


TABLE_XS = np.linspace(0.1, 0.9, 6)
TABLE_CUBIC = DensityTableMeasure(TABLE_XS, 6.0 * TABLE_XS * (1.0 - TABLE_XS), order=3)
TABLE_LINEAR = DensityTableMeasure((0.2, 0.5, 0.8), (1.0, 2.5, 0.5), order=1)
TABLE_LINEAR6 = DensityTableMeasure(TABLE_XS, 6.0 * TABLE_XS * (1.0 - TABLE_XS), order=1)


def _quad(fn, a, b, nodes):
    """scipy.integrate.quad of fn over [a, b], split at the table nodes."""
    if not a < b:
        return 0.0
    inner = [x for x in nodes if a < x < b]
    val, _ = scipy.integrate.quad(fn, a, b, points=inner or None, limit=200)
    return val


@pytest.mark.parametrize("table", [TABLE_CUBIC, TABLE_LINEAR], ids=["cubic", "linear"])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.37, 0.5, 0.95])
def test_tail_density_table_matches_quad(table, eps):
    # eps below, inside and above the grid span; nu = L(dx) / x**2
    x0, x1 = table.x[0], table.x[-1]

    def density(x):
        return float(table.density_at(np.array([x]))[0])

    above, below = litter_intensity_tail(table, eps)
    expect_above = _quad(lambda x: density(x) / x**2, max(eps, x0), x1, table.x)
    expect_below = _quad(lambda x: density(x) / x, x0, min(eps, x1), table.x)
    assert above == pytest.approx(expect_above, rel=1e-9, abs=1e-14)
    assert below == pytest.approx(expect_below, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize(
    "table", [TABLE_CUBIC, TABLE_LINEAR, TABLE_LINEAR6], ids=["cubic", "linear", "linear6"]
)
def test_table_rates_match_quad_split_at_nodes(table):
    # quad on each grid cell, where the interpolant is one polynomial; the
    # kinks of a linear table sit on the cell ends
    rates = build_rate_table(table, 40)

    def density(x):
        return float(table.density_at(np.array([x]))[0])

    for b in range(2, 41):
        for k in range(2, b + 1):
            expect = math.fsum(
                scipy.integrate.quad(
                    lambda x: x ** (k - 2) * (1.0 - x) ** (b - k) * density(x),
                    lo,
                    hi,
                    epsabs=0.0,
                    epsrel=1e-13,
                )[0]
                for lo, hi in zip(table.x[:-1], table.x[1:])
            )
            assert rates.rate(b, k) == pytest.approx(expect, rel=1e-12, abs=0.0), (b, k)


@pytest.mark.parametrize("p, q", [(-3.0, 0.0), (0.5, 0.0), (-1.5, 2.0), (1.0, -1.0), (1.0, 0.5)])
def test_table_moment_refuses_exponents_it_cannot_integrate(p, q):
    with pytest.raises(ValueError, match="integer p >= -2 and q >= 0"):
        TABLE_CUBIC.moment(p, q)


def test_table_functionals_run_no_quadrature(quadrature_calls, rng_factory):
    # fresh tables, so no cache answers for them
    for order in (1, 3):
        table = DensityTableMeasure(TABLE_XS, 6.0 * TABLE_XS * (1.0 - TABLE_XS), order=order)
        build_rate_table(table, 12)
        first_part_laws_upto(table, 1.0, 12)
        litter_intensity_tail(table, 0.3)
        require_population_support(table)
        lc.sample_window(table, 1.0, 3.0, rng=rng_factory(1, "table-window", order))
    assert quadrature_calls == []


BUILD_MEASURES = [POLY, parse_measure("beta:1.9,1,1"), HALF_ATOM, TABLE_LINEAR, TABLE_CUBIC]
BUILD_IDS = ["poly3x2", "beta1.9", "half-atom", "table-linear", "table-cubic"]


@pytest.mark.parametrize("measure", BUILD_MEASURES, ids=BUILD_IDS)
def test_rate_table_equals_per_call_rates(measure):
    # the table's builds share work (a table's node grids); each entry is
    # still the one coalescence_rate value, and each total its fsum
    for n_max in (7, 40):
        table = build_rate_table(measure, n_max)
        assert table.rates.dtype == np.float64 and table.totals.dtype == np.float64
        assert not table.rates[:2].any() and not table.totals[:2].any()
        for b in range(2, n_max + 1):
            row = [coalescence_rate(measure, b, k) for k in range(2, b + 1)]
            assert table.rates[b, 2 : b + 1].tolist() == row, b
            assert not table.rates[b, :2].any() and not table.rates[b, b + 1 :].any()
            total = math.fsum(math.comb(b, k) * row[k - 2] for k in range(2, b + 1))
            assert table.total(b) == total, b


def test_table_rate_table_memory_is_bounded():
    # a table's rate row stacks its k entries in chunks, so the arrays it
    # builds stay small at any n_max: at n_max = 400 the build peaks near
    # 5 MiB (8.4 MiB when every node grid was kept alive, 15 MiB with the
    # k axis in one array)
    tracemalloc.start()
    try:
        build_rate_table(TABLE_CUBIC, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("mu", [0.0, 1.0, 0.37])
@pytest.mark.parametrize("measure", BUILD_MEASURES, ids=BUILD_IDS)
def test_first_part_laws_upto_equal_per_call_laws(measure, mu):
    for n in (1, 7, 40):
        laws = first_part_laws_upto(measure, mu, n)
        assert len(laws) == n + 1 and laws[0] is None
        for b in range(1, n + 1):
            got, want = laws[b], first_part_law(measure, mu, b)
            assert got == want, b
            for field in ("n", "p_single_mutant", "p_single_alone", "weight_total"):
                assert type(getattr(got, field)) is type(getattr(want, field)), field
            for field in ("probs", "weights"):
                assert [type(v) for v in getattr(got, field)] == [float] * b, field


def test_first_part_laws_upto_checks_mu_and_n():
    assert first_part_laws_upto(POLY, -1.0, 0) == [None]
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        first_part_laws_upto(POLY, -1.0, 3)
    with pytest.raises(DustConditionError):
        first_part_laws_upto(LEBESGUE, 1.0, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda m: build_rate_table(m, 1030),
        lambda m: first_part_laws_upto(m, 1.0, 1030),
        lambda m: first_part_law(m, 1.0, 1030),
        lambda m: first_part_weight(m, 1.0, 1030, 2),
    ],
    ids=["rate-table", "laws-upto", "law", "weight"],
)
@pytest.mark.parametrize("spec", ["poly3x2", "delta:0.5"])
def test_binomial_range_is_refused_before_any_moment(monkeypatch, spec, build):
    # C(1030, 515) is no float: the totals and first-part weights raised
    # OverflowError, the rate table only after all its moments
    measure = parse_measure(spec)
    calls = []
    real = type(measure).moment
    monkeypatch.setattr(
        type(measure), "moment", lambda self, *a: calls.append(a) or real(self, *a)
    )
    with pytest.raises(ValueError, match="n = 1030 is above 1029"):
        build(measure)
    assert calls == []


def test_first_part_law_at_the_binomial_edge():
    law = first_part_law(POLY, 1.0, 1029)
    assert law.n == 1029 and all(math.isfinite(w) for w in law.weights)


# cubic with cells clipped where the interpolant dips below 0
TABLE_CLIPPED = DensityTableMeasure(
    np.linspace(0.1, 0.9, 5), (0.0, 1.0, 0.0, 0.0, 2.0), order=3
)


def _table_nu_per_call(m, eps, count, rng):
    """A table's nu draws with their envelope rebuilt on every
    call, as it was before the envelope was kept per (measure, eps)."""
    if eps >= m.x[-1]:
        raise InfiniteActivityError("cutoff removes the whole support")
    a, b = np.maximum(m._lo, eps), m._hi
    a, b = a[a < b], b[a < b]
    if len(a) == 0:
        raise DegenerateMeasureError("nu restricted above the cutoff has no mass")
    top = np.maximum(m._pp(a), m._pp(b))
    cum = np.cumsum(top * (1.0 / a - 1.0 / b))
    out = np.empty(count)
    filled = 0
    while filled < count:
        need = count - filled
        u, v, acc = rng.random((3, max(need * 2, 16)))
        cell = np.searchsorted(cum, u * cum[-1])
        xs = 1.0 / (1.0 / a[cell] - v * (1.0 / a[cell] - 1.0 / b[cell]))
        keep = xs[acc * top[cell] < m._pp(xs)][:need]
        out[filled : filled + len(keep)] = keep
        filled += len(keep)
    return out


@pytest.mark.parametrize(
    "table", [TABLE_CUBIC, TABLE_LINEAR, TABLE_CLIPPED], ids=["cubic", "linear", "clipped"]
)
def test_table_nu_draws_equal_per_call_envelope(table):
    cell = len(table._lo) // 2
    cutoffs = {
        "zero": 0.0,
        "inside-a-cell": 0.5 * (table._lo[cell] + table._hi[cell]),
        "on-a-cell-edge": float(table._lo[cell]),
    }
    for name, eps in cutoffs.items():
        for seed in range(20):
            for count in (1, 5, 40):
                ours = np.random.default_rng([seed, count])
                ref = np.random.default_rng([seed, count])
                got = sample_jump_sizes(table, eps, count, ours)
                want = _table_nu_per_call(table, eps, count, ref)
                assert got.tobytes() == want.tobytes(), (name, seed, count)
                assert ours.bit_generator.state == ref.bit_generator.state


def test_table_nu_degenerate_cutoffs_raise_every_call():
    # L vanishes on [0.6, 0.8]: a cutoff there leaves no nu mass
    table = DensityTableMeasure((0.2, 0.4, 0.6, 0.8), (1.0, 1.0, 0.0, 0.0), order=1)
    for _ in range(3):
        with pytest.raises(DegenerateMeasureError):
            sample_jump_sizes(table, 0.7, 3, np.random.default_rng(1))
        with pytest.raises(InfiniteActivityError):
            sample_jump_sizes(table, 0.8, 3, np.random.default_rng(1))
        with pytest.raises(InfiniteActivityError):
            sample_jump_sizes(table, 0.95, 3, np.random.default_rng(1))


class _ScipyInterpolant:
    """scipy.interpolate's CubicSpline or PPoly behind the interface a
    DensityTableMeasure reads of its interpolant."""

    def __init__(self, pp):
        self.pp = pp
        self.c = pp.c

    def __call__(self, v):
        return self.pp(v)

    def derivative(self):
        return _ScipyInterpolant(self.pp.derivative())

    def roots(self):
        r = self.pp.roots(extrapolate=False)
        return r[np.isfinite(r)]


def _oracle_tables(count, seed):
    """(x, density, order): seeded tables of 4 to 40 nodes, about one
    density in five zero, cubic or linear, and two fixed cubic tables
    whose clustered nodes make dgtsv interchange rows."""
    yield np.array([0.1, 0.1001, 0.1002, 0.9]), np.array([1.0, 0.0, 2.0, 0.5]), 3
    yield np.array([0.1, 0.1001, 0.5, 0.5001, 0.9]), np.array([0.3, 1.0, 0.0, 2.0, 0.7]), 3
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 41))
        x = np.sort(rng.uniform(0.01, 0.99, n))
        density = rng.exponential(1.0, n) * (rng.random(n) > 0.2)
        density[rng.integers(n)] += 0.5  # never identically zero
        yield x, density, 3 if rng.random() < 0.7 else 1


def _within_ulps(got, want, ulps):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= ulps * np.spacing(np.maximum(np.abs(want), np.abs(got))))
    )


def test_table_interpolant_matches_scipy_interpolate(monkeypatch):
    # 200 random tables against scipy.interpolate as the oracle: the
    # coefficients and values of L, and the cells (_lo, _hi) cut at the
    # roots of L and L', within 4 ulp (the pins elsewhere hold the bits;
    # scipy's own version varies between installs)
    import lambdacoal.measures as measures
    from scipy.interpolate import CubicSpline, PPoly

    v = np.linspace(0.0, 1.0, 1001)
    for x, density, order in _oracle_tables(200, 2718):
        ours = DensityTableMeasure(x, density, order)
        with monkeypatch.context() as patch:
            patch.setattr(measures, "not_a_knot", lambda x, y: _ScipyInterpolant(CubicSpline(x, y)))
            patch.setattr(
                measures,
                "linear",
                lambda x, y: _ScipyInterpolant(PPoly(np.array([np.diff(y) / np.diff(x), y[:-1]]), x)),
            )
            oracle = DensityTableMeasure(x, density, order)
        where = f"table {x.tolist()}, {density.tolist()}, order {order}"
        assert _within_ulps(ours._pp.c, oracle._pp.c, 4), where
        for points in (np.concatenate([v, x]), np.concatenate([x, 0.5 * (x[1:] + x[:-1])])):
            assert _within_ulps(ours._pp(points), oracle._pp(points), 4), where
        assert _within_ulps(ours._lo, oracle._lo, 4), where
        assert _within_ulps(ours._hi, oracle._hi, 4), where


def test_legendre_integrates_even_powers():
    # count nodes integrate x**(2j) over [-1, 1] to 2 / (2j + 1) for every
    # 2j <= 2 count - 1, up to the 528 nodes of _node_count(-1, 1028)
    assert lc.measures._node_count(-1, lc.measures.MAX_BLOCKS - 1) == 528
    for count in range(1, 529):
        x, w = _legendre(count)
        assert x.shape == w.shape == (count,) and np.all(np.diff(x) > 0.0)
        err = w @ np.vander(x * x, count, increasing=True) - 2.0 / (2 * np.arange(count) + 1)
        assert np.max(np.abs(err)) <= 1e-14, count


def test_beta_special_functions_match_scipy():
    # betaln and betainc of _special.py against scipy.special on a log
    # grid of shapes, x from 1e-300 to 1 - 1e-16, wherever betainc is at
    # least 1e-300.  The bound is 1e-13 relative, and in the far tail
    # 2e-15 per unit of |ln I|: a value e**(ln I) near 1e-300 holds ln I
    # only to its last bit, and there scipy itself is off from 40-digit
    # values by up to 2.5e-13 on this grid.  scipy's betaln subtracts
    # log-gammas once a + b > 171, which costs it an ulp of each (3.6e-12
    # at a = 2000, b = 0.38, where 40-digit values put ours within 5e-16);
    # the betaln bound adds that rounding.
    from lambdacoal._special import betainc, betaln

    shapes = np.geomspace(1e-3, 2e3, 16)
    xs = np.concatenate([np.geomspace(1e-300, 0.5, 40), 1.0 - np.geomspace(1e-16, 0.5, 25)])
    eps = np.finfo(float).eps
    for a in shapes:
        for b in shapes:
            a, b = float(a), float(b)
            ref = scipy.special.betaln(a, b)
            rounding = eps * sum(abs(math.lgamma(v)) for v in (a, b, a + b))
            assert abs(betaln(a, b) - ref) <= 1e-13 * max(1.0, abs(ref)) + rounding, (a, b)
            for x in xs:
                ref = scipy.special.betainc(a, b, x)
                if ref >= 1e-300:
                    bound = max(1e-13, 2e-15 * abs(math.log(ref)))
                    assert abs(betainc(a, b, float(x)) - ref) <= bound * ref, (a, b, x)


def test_special_functions_refuse_rather_than_hang(monkeypatch):
    # a series or continued fraction that runs out of steps raises the
    # typed error the CLI reports with exit 3
    from lambdacoal import _special

    monkeypatch.setattr(_special, "_MAX_STEPS", 3)
    for call in (
        lambda: _special.betainc(2000.0, 2000.0, 0.49),
        lambda: _special.betainc(2000.0, 0.5, 0.999),
        lambda: _special.gammaincc(5e4, 4.9e4),
        lambda: _special.gammaincc(5e4, 5.1e4),
    ):
        with pytest.raises(lc.NonIntegrableError, match="did not converge"):
            call()


@pytest.mark.parametrize("spec", ["poly3x2", "beta:1.9,1,1", "beta:1.2,3.7,1", "beta:0.5,0.05,1"])
def test_beta_rate_table_matches_scipy(spec):
    # the n = 40 rate table against mass B(alpha+k-2, beta+b-k) / B(alpha,
    # beta) on scipy's betaln, which takes the Gamma functions themselves
    # at these arguments
    measure = parse_measure(spec)
    rates = build_rate_table(measure, 40).rates
    log_norm = scipy.special.betaln(measure.alpha, measure.beta)
    for b in range(2, 41):
        for k in range(2, b + 1):
            ref = measure.mass * math.exp(
                scipy.special.betaln(measure.alpha + k - 2.0, measure.beta + b - k) - log_norm
            )
            assert rates[b, k] == pytest.approx(ref, rel=1e-13, abs=0.0), (b, k)


def test_legendre_matches_scipy_roots_legendre():
    for count in range(1, 41):
        x, w = _legendre(count)
        xs, ws = scipy.special.roots_legendre(count)
        assert np.max(np.abs(x - xs)) <= 1e-12 and np.max(np.abs(w - ws)) <= 1e-12, count


def _tridiagonal_systems(count, seed):
    """(lower, diag, upper, rhs): seeded systems of 2 to 60 unknowns,
    normal, with zero or tiny pivots, spline-like with widely scaled
    diagonals, and of small integers, which are often singular."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 61))
        kind = i % 4
        if kind == 0:
            yield rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n)
        elif kind == 1:
            diag = rng.exponential(size=n) * rng.choice([0.0, 1e-8, 1.0], size=n)
            yield rng.exponential(size=n - 1), diag, rng.exponential(size=n - 1), rng.normal(size=n)
        elif kind == 2:
            dx = np.diff(np.sort(rng.uniform(0.0, 1.0, n + 3)))
            yield 1e3 * dx[: n - 1], dx[:n] * rng.normal(size=n), 1e-3 * dx[1:n], rng.normal(size=n)
        else:
            lower, diag, upper = (rng.integers(-2, 3, m).astype(float) for m in (n - 1, n, n - 1))
            yield lower, diag, upper, rng.normal(size=n)


def test_dgtsv_port_matches_lapack_bit_for_bit(dgtsv_checked):
    # the session fixture checks the port against scipy's LAPACK dgtsv on
    # every solve, here on 2 000 seeded systems and the pin table's spline
    before = dgtsv_checked()
    singular = 0
    for system in _tridiagonal_systems(2000, 31):
        # through the module, where the fixture put its checked solve
        singular += lc._piecewise._dgtsv(*system)[1] > 0
    DensityTableMeasure((0.1, 0.26, 0.42, 0.58, 0.74, 0.9), (0.2, 1.0, 0.1, 0.0, 2.0, 1.5))
    assert dgtsv_checked() == before + 2001
    assert 100 < singular < 1000


def test_sample_jump_sizes_table_matches_moments(rng_factory):
    # the draws come from L(x)/x**2 of the interpolant the moments read,
    # here a cubic that dips below 0 between nodes and is clipped there
    xs = np.linspace(0.1, 0.9, 5)
    m = DensityTableMeasure(xs, (0.0, 1.0, 0.0, 0.0, 2.0), order=3)
    for eps in (0.0, 0.37):
        draws = sample_jump_sizes(m, eps, 20000, rng_factory(1, "jump-table-cubic", int(100 * eps)))
        assert np.all(draws > max(eps, 0.1)) and np.all(draws <= 0.9)
        norm = m.moment(-2.0, 0.0, eps, 1.0)

        def cdf(v):
            return np.array([m.moment(-2.0, 0.0, eps, x) for x in np.atleast_1d(v)]) / norm

        assert kstest(draws, cdf).pvalue > 1e-3


def test_atom_at_eps_counts_below():
    m = parse_measure("atoms:0.2=0.5,0.6=0.3")
    above, below = 0.5 / 0.2**2 + 0.3 / 0.6**2, 0.5 / 0.2 + 0.3 / 0.6
    assert litter_intensity_tail(m, math.nextafter(0.2, 0.0)) == pytest.approx((above, 0.0))
    assert litter_intensity_tail(m, 0.2) == pytest.approx((0.3 / 0.6**2, 0.5 / 0.2))
    assert litter_intensity_tail(m, 0.6) == pytest.approx((0.0, below))
    draws = sample_jump_sizes(m, 0.2, 200, np.random.default_rng(3))
    assert set(draws.tolist()) == {0.6}


MOMENT_MEASURES = {
    "atoms": parse_measure("atoms:0.3=0.2,0.7=0.5,1=0.25"),
    "beta:2.5,1.5,2": BetaMeasure(2.5, 1.5, 2.0),
    "beta:1.5,0.5,1": BetaMeasure(1.5, 0.5, 1.0),
    "table-cubic": TABLE_CUBIC,
    "table-linear": TABLE_LINEAR,
}


@pytest.mark.parametrize("name", list(MOMENT_MEASURES))
@pytest.mark.parametrize(
    "p, q, lo, hi",
    [
        (0.0, 0.0, 0.0, 1.0),
        (2.0, 3.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0, 1.0),
        (-1.0, 4.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0, 0.3),
        (-2.0, 0.0, 0.05, 1.0),
        (-2.0, 0.0, 0.3, 0.7),
        (1.0, 2.0, 0.2, 0.75),
    ],
)
def test_moment_matches_quad(name, p, q, lo, hi):
    m = MOMENT_MEASURES[name]
    got = m.moment(p, q, lo, hi)
    if isinstance(m, AtomicMeasure):
        expect = sum(
            w * x**p * (1.0 - x) ** q
            for x, w in zip(m.locations, m.weights)
            if lo < x <= hi
        )
    else:
        nodes = m.x if isinstance(m, DensityTableMeasure) else ()

        def integrand(x):
            return x**p * (1.0 - x) ** q * float(m.density_at(np.array([x]))[0])

        expect = _quad(integrand, lo, hi, nodes)
    assert got == pytest.approx(expect, rel=1e-8)


def test_moment_divergence_is_typed():
    # the moment reports a divergence as NonIntegrableError; each
    # functional re-raises it as the error of its own domain
    with pytest.raises(lc.NonIntegrableError):
        BETA221.moment(-2.0)
    with pytest.raises(lc.NonIntegrableError):
        DELTA0.moment(-1.0, 0.0, 0.0, 0.5)
    assert DELTA0.moment(-1.0, 0.0, 0.1, 1.0) == 0.0
    with pytest.raises(DustConditionError):
        single_ball_integral(DELTA0, 3)
    with pytest.raises(InfiniteActivityError):
        litter_intensity_tail(DELTA0, 0.3)
    with pytest.raises(PopulationSupportError):
        require_population_support(parse_measure("atoms:0.5=1,1=0.2"))


def test_choose_truncation_finite_activity():
    assert choose_truncation(POLY, 10.0) == 0.0
    assert choose_truncation(HALF_ATOM, 10.0) == 0.0


def test_choose_truncation_budget():
    T = 5.0
    eps = choose_truncation(BETA221, T)
    assert eps > 0.0
    _, below = litter_intensity_tail(BETA221, eps)
    assert T * below <= 1e-6 * 1.0000001


@pytest.mark.parametrize("spec", ["beta:2,2,1", "beta:1.9,1,1", "beta:1.5,1,1"])
@pytest.mark.parametrize("T", [0.5, 3.0, 7.3, 40.0])
def test_choose_truncation_matches_reference(spec, T):
    m = parse_measure(spec)
    assert choose_truncation(m, T) == choose_truncation_reference(m, T)


def test_choose_truncation_runs_no_quadrature(quadrature_calls):
    for spec in ["beta:2,2,1", "beta:1.9,1,1", "beta:1.5,0.5,1", "poly3x2"]:
        choose_truncation(parse_measure(spec), 3.0)
    assert quadrature_calls == []
    # the full tail pair still integrates nu above eps numerically
    litter_intensity_tail(parse_measure("beta:1.9,1,1"), 1e-6)
    assert quadrature_calls


# ---------------------------------------------------------------------------
# jump-size sampling
# ---------------------------------------------------------------------------


def test_sample_jump_sizes_atomic(rng_factory):
    rng = rng_factory(1, "jump-atomic")
    m = parse_measure("atoms:0.25=0.5,0.75=0.5")
    draws = sample_jump_sizes(m, 0.0, 40000, rng)
    # nu weights w/x^2: 8 at 0.25 vs 8/9 at 0.75 -> P(0.25) = 0.9
    frac = np.mean(draws == 0.25)
    assert abs(frac - 0.9) < 0.01


@pytest.mark.parametrize(
    "spec, eps",
    [("atoms:0.5=0.25", 0.0), ("atoms:0.25=0.5,0.75=0.5", 0.0), ("atoms:0.1=1,0.3=2,0.9=0.5", 0.2)],
)
def test_atom_jump_sizes_match_rng_choice(spec, eps):
    # the cached-cdf draw is numpy's choice algorithm: the same sizes and
    # the same generator state afterwards as rng.choice with p
    m = parse_measure(spec)
    locs = np.array(m.locations)
    wts = np.array(m.weights)
    keep = locs > eps
    p = wts[keep] / (locs[keep] * locs[keep])
    for seed in range(300):
        for count in (1, 7, 40):
            ours = np.random.default_rng([seed, count])
            ref = np.random.default_rng([seed, count])
            got = sample_jump_sizes(m, eps, count, ours)
            want = ref.choice(locs[keep], size=count, p=p / p.sum())
            assert got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == ref.bit_generator.state


def test_atom_jump_sizes_none_above_cutoff(rng_factory):
    m = parse_measure("atoms:0.25=0.5,0.75=0.5")
    for _ in range(2):  # the refusal is not cached away
        with pytest.raises(DegenerateMeasureError):
            sample_jump_sizes(m, 0.8, 3, rng_factory(1, "none-above"))


def test_sample_jump_sizes_poly_uniform(rng_factory):
    rng = rng_factory(1, "jump-poly")
    draws = sample_jump_sizes(POLY, 0.0, 20000, rng)
    # nu = 3 * Lebesgue restricted to (0,1): uniform sizes
    stat = kstest(draws, "uniform")
    assert stat.pvalue > 1e-3


def test_sample_jump_sizes_beta221(rng_factory):
    rng = rng_factory(1, "jump-beta")
    eps = 0.05
    draws = sample_jump_sizes(BETA221, eps, 20000, rng)
    assert np.all(draws > eps)

    # nu density 6(1-x)/x has antiderivative 6(ln x - x)
    def anti(t):
        return 6.0 * (np.log(t) - t)

    norm = anti(1.0) - anti(eps)
    stat = kstest(draws, lambda v: (anti(np.asarray(v)) - anti(eps)) / norm)
    assert stat.pvalue > 1e-3


def _beta_nu_cdf(alpha, beta, eps):
    """Normalized cdf of x**(alpha-3) (1-x)**(beta-1) on (eps, 1), from
    scipy.integrate.quad over a fine grid (log-spaced toward both ends)
    and linear in between; the last cell carries the (1-x)**(beta-1)
    endpoint factor as a quad weight."""

    def dens(x):
        return x ** (alpha - 3.0) * (1.0 - x) ** (beta - 1.0)

    lo = np.geomspace(eps, 0.5, 400)
    hi = 1.0 - np.geomspace(0.5, 1e-9, 300)[1:]
    grid = np.concatenate((lo, hi, [1.0]))
    cells = [scipy.integrate.quad(dens, a, b)[0] for a, b in zip(grid[:-2], grid[1:-1])]
    last, _ = scipy.integrate.quad(
        lambda x: x ** (alpha - 3.0), grid[-2], 1.0, weight="alg", wvar=(0.0, beta - 1.0)
    )
    cum = np.concatenate(([0.0], np.cumsum(cells + [last])))
    return lambda v: np.interp(v, grid, cum / cum[-1])


@pytest.mark.parametrize(
    "alpha, beta, eps",
    [
        (1.5, 0.5, 0.01),
        (1.9, 0.7, 0.01),
        (1.2, 0.3, 0.01),
        (1.9, 1.0, 0.01),
        (1.5, 2.0, 0.6),
    ],
)
def test_sample_jump_sizes_beta_small_alpha(rng_factory, alpha, beta, eps):
    # alpha <= 2: two-piece envelope rejection; for beta < 1 the left
    # envelope must bound (1-x)**(beta-1) by its value at 1/2
    rng = rng_factory(1, "jump-beta-small", int(100 * alpha), int(100 * beta))
    draws = sample_jump_sizes(BetaMeasure(alpha, beta, 1.0), eps, 20000, rng)
    assert np.all((draws > eps) & (draws < 1.0))
    assert kstest(draws, _beta_nu_cdf(alpha, beta, eps)).pvalue > 1e-3


def test_sample_jump_sizes_beta_heavy_alpha(rng_factory):
    # alpha > 2: direct rejection branch; the nu cdf is a regularized
    # incomplete Beta with shifted first parameter
    rng = rng_factory(1, "jump-beta3")
    m = BetaMeasure(3.5, 2.0, 1.0)
    draws = sample_jump_sizes(m, 0.0, 20000, rng)
    stat = kstest(draws, lambda v: scipy.special.betainc(1.5, 2.0, np.asarray(v)))
    assert stat.pvalue > 1e-3


def test_sample_jump_sizes_table(rng_factory):
    rng = rng_factory(1, "jump-table")
    xs = np.linspace(0.1, 0.9, 201)
    m = DensityTableMeasure(tuple(xs), tuple(3.0 * xs**2), order=1)
    draws = sample_jump_sizes(m, 0.0, 20000, rng)
    assert np.all((draws >= 0.1) & (draws <= 0.9))
    # nu density is 3 (uniform) on the support
    stat = kstest(draws, lambda v: np.clip((np.asarray(v) - 0.1) / 0.8, 0, 1))
    assert stat.pvalue > 1e-3


# ---------------------------------------------------------------------------
# measure construction errors
# ---------------------------------------------------------------------------


def test_atomic_validation():
    with pytest.raises(MeasureSpecError):
        AtomicMeasure((0.5, 0.5), (1.0, 1.0))
    with pytest.raises(MeasureSpecError):
        AtomicMeasure((1.5,), (1.0,))
    with pytest.raises(MeasureSpecError):
        AtomicMeasure((0.5,), (0.0,))


def test_total_mass():
    assert total_mass(HALF_ATOM) == 0.25
    assert total_mass(POLY) == 1.0
    assert total_mass(BETA221) == 1.0


@pytest.mark.parametrize("spec", ["beta:2,0.05,1", "beta:1.9,0.05,1", "beta:3,0.05,1"])
def test_sample_jump_sizes_beta_tail_near_one(rng_factory, spec):
    # P(x > 1 - delta) at the cutoff a window of n = 4 at mu = 1 uses,
    # against the exact moment(-2, 0, 1 - delta, 1) / moment(-2, 0, eps, 1):
    # for beta < 1 part of nu lies within one ulp of 1, and a draw there
    # is clipped below 1, neither rejected nor drawn as 1.0
    m = parse_measure(spec)
    eps = choose_truncation(m, lc.default_window_horizon(m, 1.0, 4))
    reps = 400_000
    draws = sample_jump_sizes(m, eps, reps, rng_factory(1, "jump-near-one", spec))
    norm = m.moment(-2.0, 0.0, eps, 1.0)
    for delta in (1e-3, 1e-9, 1e-15):
        p = m.moment(-2.0, 0.0, 1.0 - delta, 1.0) / norm
        z = (np.mean(draws > 1.0 - delta) - p) / math.sqrt(p * (1.0 - p) / reps)
        assert abs(z) <= 4.0, (delta, z)
    assert np.all(draws < 1.0)


# ---------------------------------------------------------------------------
# the nu-law audit: every representation's lockstep draws against the exact
# cdf F(t) = moment(-2, 0, eps, t) / moment(-2, 0, eps, 1)
# ---------------------------------------------------------------------------

AUDIT_MEASURES = {
    "atoms2": parse_measure("atoms:0.25=0.5,0.75=0.125"),
    "atoms-edges": parse_measure("atoms:1e-09=1e-18,0.5=0.25,0.999999999999=1"),
    **{
        f"beta:{a:g},{b:g},1": BetaMeasure(a, b, 1.0)
        for a in (1.2, 1.9, 2.0, 3.0)
        for b in (0.05, 0.3, 1.0, 3.7)
    },
    "pin-table": DensityTableMeasure(
        (0.1, 0.26, 0.42, 0.58, 0.74, 0.9), (0.2, 1.0, 0.1, 0.0, 2.0, 1.5), order=3
    ),
    "subnormal-table": DensityTableMeasure((1e-310, 0.5), (1.0, 1.0), order=1),
    "tiny-heavy-table": DensityTableMeasure((1e-200, 0.5), (1e90, 1e90), order=1),
    "clipped-cubic": TABLE_CLIPPED,
}


def _audit_cutoffs(m):
    """eps = 0 where nu has finite mass as a float, else 1e-3, 0.05, 0.5."""
    try:
        litter_intensity_tail(m, 0.0)
        return [0.0]
    except InfiniteActivityError:
        return [1e-3, 0.05, 0.5]


AUDIT_GRID = [(label, eps) for label, m in AUDIT_MEASURES.items() for eps in _audit_cutoffs(m)]
# family-wise level of the audit, split over the grid (Bonferroni)
AUDIT_ALPHA = 1e-3
AUDIT_SIZES = 100_000
AUDIT_ROWS = 512
# cells of about 1/30 of nu's mass each, cut also at the tail edges 1 - 10**-k
AUDIT_CELL_MASS = 1.0 / 30.0
AUDIT_TAILS = [1.0 - 10.0**-k for k in (3, 6, 9, 12, 15)]


def _audit_draws(m, eps, cell):
    """AUDIT_SIZES sizes drawn by _nu_rows on one block of AUDIT_ROWS rows."""
    counts = [AUDIT_SIZES // AUDIT_ROWS + (r < AUDIT_SIZES % AUDIT_ROWS) for r in range(AUDIT_ROWS)]
    rngs = [lc.derive_rng(20, "nu-audit", cell, r) for r in range(AUDIT_ROWS)]
    out = np.empty((AUDIT_ROWS, max(counts)))
    _nu_rows(m, eps, counts, rngs, out)
    return np.concatenate([row[:c] for row, c in zip(out, counts)])


def _audit_cells(m, eps, draws, total):
    """(expected, observed) cells of the draws: grid intervals (a, b],
    linear in x, geometric in x up to 1/2 and in 1 - x beyond, of nu mass
    moment(-2, 0, a, b) each, joined in order into cells of at least
    AUDIT_CELL_MASS of the total and cut at every tail edge; the last cell
    is (1 - 1e-15, 1], where a size clipped below 1 lands."""
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(eps, 1.0, 91),
                np.geomspace(max(eps, 1e-9), 0.5, 60),
                1.0 - np.geomspace(0.5, 1e-15, 60),
                AUDIT_TAILS,
            ]
        )
    )
    observed = np.bincount(np.searchsorted(grid, draws, side="left"), minlength=len(grid))
    cells, mass, seen = [], 0.0, 0
    for a, b, o in zip(grid[:-1], grid[1:], observed[1:]):
        mass += max(m.moment(-2.0, 0.0, a, b), 0.0)
        seen += o
        if mass >= AUDIT_CELL_MASS * total or b in AUDIT_TAILS or b == 1.0:
            cells.append(((AUDIT_SIZES * mass / total, float(seen)),))
            mass, seen = 0.0, 0
    return cells


@pytest.mark.parametrize("label, eps", AUDIT_GRID, ids=[f"{l}@{e:g}" for l, e in AUDIT_GRID])
def test_nu_draws_follow_the_moment_cdf(label, eps):
    # the sizes of one lockstep draw block lie in (eps, 1) and follow nu
    # above eps: per atom against w / x**2, otherwise by a chi-square on
    # cells at F's quantiles and tails, each p above the Bonferroni bound
    m = AUDIT_MEASURES[label]
    cell = f"{label}@{eps:g}"
    total = m.moment(-2.0, 0.0, eps, 1.0)
    if total == 0.0:
        # no nu mass above the cutoff: a window draws no jump there, and a
        # draw asked for anyway is refused
        with pytest.raises(lc.LambdaCoalError):
            _audit_draws(m, eps, cell)
        return
    draws = _audit_draws(m, eps, cell)
    assert np.all((draws > eps) & (draws < 1.0))
    if isinstance(m, AtomicMeasure):
        locs, wts = np.array(m.locations), np.array(m.weights)
        locs, wts = locs[locs > eps], wts[locs > eps]
        nu = wts / (locs * locs)
        assert np.all(np.isin(draws, locs))
        cells = [
            ((AUDIT_SIZES * w / nu.sum(), float(np.sum(draws == x))),) for x, w in zip(locs, nu)
        ]
    else:
        cells = _audit_cells(m, eps, draws, total)
        assert sum(o for ((_, o),) in cells) == AUDIT_SIZES
    _, _, p = _chi_square(cells)
    assert p > AUDIT_ALPHA / len(AUDIT_GRID), p

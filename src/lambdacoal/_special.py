"""The three special functions of the library, on the math module alone.

    betaln(a, b)       log of the complete Beta function B(a, b)
    betainc(a, b, x)   the regularized incomplete Beta function I_x(a, b)
    gammaincc(a, x)    the regularized upper incomplete gamma function
                       Q(a, x); a chi-square statistic s on df degrees of
                       freedom has the upper tail Q(df/2, s/2)

Beta moments call the first two and each validation verdict the third,
at most a few hundred times per run, so all three are scalar Python.
betainc is a continued fraction with the a/b symmetry swap (plus, for
b < 1, a power series for the small tail the swap would cancel),
gammaincc a series below x = a + 1 and a continued fraction above
(Numerical Recipes, 3rd ed., sections 6.2 and 6.4).

Both multiply their continued fraction or series by a prefactor,
x**a (1-x)**b / B(a, b) or x**a e**-x / Gamma(a).  With large shape
parameters its logarithm is a difference of large terms, which would
cost the result a relative error of ulp times those terms (up to 1e-10
at df = 1e5).  There it is written around its peak with Stirling's series,
as in DiDonato & Morris (1992, ACM TOMS 18, Algorithm 708): the
exponent becomes -(a rlog1(t) + ...), rlog1(t) = t - log(1 + t) >= 0,
whose terms are all of one sign.  betaln takes the same series for the
log-gamma difference once a shape parameter reaches _STIRLING_MIN.
"""

from __future__ import annotations

import math

from .errors import NonIntegrableError

# Above this argument ln Gamma(x) is Stirling's formula plus _stirling_tail.
_STIRLING_MIN = 8.0

# B_2k / (2k (2k - 1)), k = 1..10: the coefficients of Stirling's series.
# At x = 8 the first term left out is below 2e-18.
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# A continued fraction stops once a step changes it by less than this.
_EPS = 2.0 ** -53
# Lentz's guard against a zero denominator.
_TINY = 1e-300
# More steps than any series or continued fraction here takes: a failure
# to converge is a NonIntegrableError (CLI exit 3) rather than a hang.
_MAX_STEPS = 100_000


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - ((x - 1/2) ln x - x + ln sqrt(2 pi)), for x >= 8."""
    z = 1.0 / (x * x)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * z + c
    return total / x


def _rlog1(t: float, ratio: float) -> float:
    """t - log(1 + t) >= 0, for ratio = 1 + t > 0 formed apart (as x/x0),
    since near t = -1 the sum 1 + t loses what ratio keeps.

    On -1/2 <= t <= 1, with r = t / (2 + t), log(1 + t) = 2 atanh(r) and
    t - 2 r = t r, so the value is t r - 2 (r**3/3 + r**5/5 + ...), |r| <=
    1/3: the difference the direct form would cancel is never formed."""
    if not -0.5 <= t <= 1.0:
        return t - math.log(ratio)
    r = t / (2.0 + t)
    w = r * r
    total = 0.0
    for k in range(19, -1, -1):
        total = total * w + 1.0 / (2 * k + 3)
    return t * r - 2.0 * r * w * total


def _lgamma_shift(a: float, d: float) -> float:
    """ln Gamma(a + d) - ln Gamma(a) for a, d > 0, to a few ulp of the
    value itself however small d is: below _STIRLING_MIN by the
    recurrence Gamma(a + 1) = a Gamma(a), above it by Stirling's formula,
    whose terms keep the small difference."""
    total = 0.0
    while a < _STIRLING_MIN:
        total -= math.log1p(d / a)
        a += 1.0
    return total + (
        (a - 0.5) * math.log1p(d / a) + d * math.log(a + d) - d
        + _stirling_tail(a + d) - _stirling_tail(a)
    )


def betaln(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    a, b = min(a, b), max(a, b)
    if b == math.inf:
        return -math.inf
    if b < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if a < _STIRLING_MIN:
        return math.lgamma(a) - _lgamma_shift(b, a)
    return (
        _HALF_LOG_2PI + _stirling_tail(a) + _stirling_tail(b)
        - _stirling_tail(a + b) - 0.5 * math.log(b)
        - (a - 0.5) * math.log1p(b / a) - b * math.log1p(a / b)
    )


def _log_beta_prefactor(a: float, b: float, x: float, y: float) -> float:
    """ln(x**a y**b / B(a, b)) with y = 1 - x, one of x and y exact and
    the other its complement rounded."""
    if min(a, b) < _STIRLING_MIN:
        log_x = math.log(x) if x <= y else math.log1p(-y)
        log_y = math.log(y) if y <= x else math.log1p(-x)
        return a * log_x + b * log_y - betaln(a, b)
    # x/x0 = 1 + lam/a and y/y0 = 1 - lam/b around the peak x0 = a/(a+b);
    # lam from the smaller of x and y, the exact one
    lam = (a + b) * x - a if x <= y else b - (a + b) * y
    return (
        0.5 * math.log(a * (b / (a + b))) - _HALF_LOG_2PI
        - _stirling_tail(a) - _stirling_tail(b) + _stirling_tail(a + b)
        - a * _rlog1(lam / a, (a + b) * x / a)
        - b * _rlog1(-lam / b, (a + b) * y / b)
    )


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) by its continued fraction, for x <= (a+1)/(a+b+2), where
    it converges fast."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_STEPS):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            step = c * d
            h *= step
        if abs(step - 1.0) <= _EPS:
            return math.exp(_log_beta_prefactor(a, b, x, y)) * h / a
    raise NonIntegrableError(f"betainc({a!r}, {b!r}, {x!r}) did not converge")


def _beta_series_complement(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """I_x(a, b) = 1 - I_y(b, a) for b < 1, and the magnitude of the terms
    it sums.

    I_y(b, a) = K (1 + b S), with K = y**b / (b B(b, a)) and S the
    sum over j >= 1 of (1-a)(2-a)...(j-a)/j! y**j / (b + j), is near 1
    when b is small, and 1 minus it would keep only the digits of the
    difference.  Written as -expm1(ln K) - K b S, with ln(b B(b, a)) from
    _lgamma_shift, both terms are small and carry their own digits."""
    log_y = math.log(y) if y <= x else math.log1p(-x)
    log_k = b * log_y - _lgamma_shift(1.0, b) + _lgamma_shift(a, b)
    coef, total, size = 1.0, 0.0, 0.0
    for j in range(1, _MAX_STEPS):
        coef *= (j - a) / j * y
        term = coef / (b + j)
        total += term
        size += abs(term)
        if abs(term) <= _EPS * abs(total):
            k_b = math.exp(log_k) * b
            return -math.expm1(log_k) - k_b * total, abs(math.expm1(log_k)) + k_b * size
    raise NonIntegrableError(f"betainc({a!r}, {b!r}, {x!r}) did not converge")


def betainc(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0: 0 at x <= 0 and 1 at x >= 1.

    The continued fraction converges fast for x <= (a+1)/(a+b+2), and
    above that I_x(a, b) = 1 - I_(1-x)(b, a).  For b < 1 the mass piles up
    near 1 and I_x(a, b) is small on both sides of that switch, where the
    swap would cancel and the direct fraction loses up to 2e-13; there
    the series of _beta_series_complement is taken while its terms stay
    within 400 times its value (a rounding below 5e-14 of it), and
    a * y <= 8 with y <= 3/4 bounds its length."""
    if not x > 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    y = 1.0 - x
    if b < 1.0 and y <= 0.75 and a * y <= 8.0:
        value, size = _beta_series_complement(a, b, x, y)
        if size <= 400.0 * value:
            return value
    if x <= (a + 1.0) / (a + b + 2.0):
        return _beta_fraction(a, b, x, y)
    return 1.0 - _beta_fraction(b, a, y, x)


def _gamma_prefactor(a: float, x: float) -> float:
    """x**a e**-x / Gamma(a) for x > 0."""
    if a < _STIRLING_MIN:
        # e**-x apart, as the square of e**(-x/2): x itself is exact, and
        # an exponent near -700 would hold only 1e-13 of it.  Once e**(-x/2)
        # underflows (x > 1490) so does the whole, and x**a may overflow.
        half = math.exp(-0.5 * x)
        if half == 0.0:
            return 0.0
        return half * math.exp(a * math.log(x) - math.lgamma(a)) * half
    return math.exp(
        0.5 * math.log(a / (2.0 * math.pi)) - _stirling_tail(a)
        - a * _rlog1((x - a) / a, x / a)
    )


def gammaincc(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a > 0: 1 at x <= 0."""
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a + 1.0:
        # P(a, x) = prefactor * sum over n of x**n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        for n in range(1, _MAX_STEPS):
            term *= x / (a + n)
            total += term
            if term <= total * _EPS:
                return 1.0 - _gamma_prefactor(a, x) * total
        raise NonIntegrableError(f"gammaincc({a!r}, {x!r}) did not converge")
    # Q(a, x) = prefactor / (x+1-a - 1 (1-a) / (x+3-a - 2 (2-a) / ...))
    den = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / den
    h = d
    for i in range(1, _MAX_STEPS):
        num = -i * (i - a)
        den += 2.0
        d = num * d + den
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = den + num / c
        c = c if abs(c) > _TINY else _TINY
        step = c * d
        h *= step
        if abs(step - 1.0) <= _EPS:
            return _gamma_prefactor(a, x) * h
    raise NonIntegrableError(f"gammaincc({a!r}, {x!r}) did not converge")

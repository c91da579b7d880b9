"""Brute-force reference implementations for noiseless-equivalence tests.

Everything here works on plain Python lists and floats with direct scans and
explicit loops: no Dataset, no searchsorted, no vectorization, no shared
helper code with the library. Elementary math calls (log, exp, ldexp) are
the same ones the library uses, which is what makes bit-exact comparison a
meaningful check of the surrounding logic rather than of the elementary
functions themselves.
The log in the Pareto transform is numpy's log, called here one element at
a time: the library takes the log of the whole tail in one vectorized call,
and that log can differ from math.log in the last ulp, so the oracle uses the
same elementary function. test_pareto pins that numpy's array and scalar
logs agree element for element.
Sums use math.fsum. The library sums the clipped mean with its own exactly
rounded kernel (learners._exact_sum) instead, so fsum here is that kernel's
independent reference: both round the exact sum once, and a noiseless MLE
matches the oracle bit for bit only if the kernel is right.

Also holds the numeric-integration oracles (scipy) for the closed-form
distance formulas.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy import integrate

from privexp.errors import (EmptyTail, InputError, NoBinSurvived,
                            NonpositiveMean, RangeEstimationFailed,
                            ScaleViolation, SearchExhausted, TooFewSamples)


def fraction_below(values, threshold) -> float:
    return sum(1 for v in values if v < threshold) / len(values)


def oracle_svt_grid(lower, upper, theta):
    span = math.ceil(math.log2(upper / lower))
    slack = math.ceil(math.log2(max(1.0, math.log(1.0 / theta))))
    i_max = span + slack + 2
    return [2.0 ** i / upper for i in range(i_max + 1)]


def oracle_svt_quantile(values, lower, upper, theta):
    """Noiseless SVT scan: first grid point whose CDF reaches 1 - theta."""
    threshold = 1.0 - theta
    for i, point in enumerate(oracle_svt_grid(lower, upper, theta)):
        if fraction_below(values, point) >= threshold:
            return point, i
    return None


def oracle_clipping_range(quantile_value, n, theta, beta):
    log_n = math.log(n)
    c = (6.0 / math.log(1.0 / theta)) * (1.0 + math.log(1.0 / beta) / log_n)
    return c * quantile_value * log_n


def oracle_private_mle(values, clip_r):
    n = len(values)
    clipped_mean = math.fsum(min(v, clip_r) for v in values) / n
    if clipped_mean <= 0:
        raise NonpositiveMean("clipped mean <= 0")
    return 1.0 / clipped_mean


def oracle_mle_learning(values, lower, upper, beta):
    found = oracle_svt_quantile(values, lower, upper, 0.1)
    if found is None:
        raise SearchExhausted("grid exhausted")
    if len(values) < 2:
        raise TooFewSamples("clipping range needs n >= 2")
    clip_r = oracle_clipping_range(found[0], len(values), 0.1, 0.5 * beta)
    return oracle_private_mle(values, clip_r), "mle"


def oracle_quantile_learning(values, lower, upper, alpha):
    level = 1.0 - 1.0 / math.e
    step = 1.0 / (1.0 - alpha / 2.0)
    n_steps = math.ceil(math.log(upper / lower) / math.log(step))
    cap = math.ceil(math.log2(n_steps + 1))
    band_lo = level - alpha / (2.0 * math.e)
    band_hi = level + alpha / (2.0 * math.e)
    low, high = 0, n_steps
    for _ in range(cap):
        mid = (low + high) // 2
        position = (1.0 / upper) * step ** mid
        value = fraction_below(values, position)
        if value > band_hi:
            high = mid
        elif value < band_lo:
            low = mid
        else:
            return 1.0 / position, "quantile"
    raise SearchExhausted("cap reached")


def oracle_best_of_both(values, lower, upper, alpha, beta):
    coarse, _ = oracle_quantile_learning(values, lower, upper, 0.5)
    if coarse >= 2.0:
        return oracle_mle_learning(values, lower, upper, (2.0 / 3.0) * beta)
    return oracle_quantile_learning(values, lower, upper, alpha)


def oracle_dyadic_bins(values):
    counts: dict = {}
    for v in values:
        if v == 0.0:
            k = -1074
        else:
            _, e = math.frexp(v)
            k = e - 1
        counts[k] = counts.get(k, 0) + 1
    n = len(values)
    return {k: c / n for k, c in counts.items()}


def oracle_find_bounds(values, epsilon, delta):
    """Noiseless histogram argmax; returns (lower, upper) or None."""
    n = len(values)
    threshold = (2.0 / (epsilon * n)) * math.log(2.0 / delta) + 1.0 / n
    bins = oracle_dyadic_bins(values)
    survivors = {k: f for k, f in bins.items() if f >= threshold}
    if not survivors:
        return None
    k_star, best = None, -math.inf
    for k in sorted(survivors):
        if survivors[k] > best:
            k_star, best = k, survivors[k]
    ln2 = math.log(2.0)
    if k_star - 1 < -1024:  # ln2 * 2^(1 - k*) is beyond the largest double
        raise RangeEstimationFailed("bounds overflow")
    return math.ldexp(ln2, -(k_star + 1)), math.ldexp(ln2, -(k_star - 1))


def oracle_learn_without_bounds(values, alpha, beta, epsilon, delta):
    found = oracle_find_bounds(values, epsilon / 2.0, delta)
    if found is None:
        raise NoBinSurvived("no survivor")
    return oracle_best_of_both(values, found[0], found[1], alpha, 0.5 * beta)


def oracle_log_transform(values, pivot):
    kept = []
    for v in values:
        if v >= pivot:
            ratio = v / pivot
            if ratio == math.inf:  # the quotient overflowed: subtract logs
                kept.append(float(np.log(v) - np.log(pivot)))
            else:
                kept.append(float(np.log(ratio)))
    if not kept:
        raise EmptyTail("no exceedances")
    return kept


def oracle_pareto_pivot(values, lower, upper, alpha, tau):
    """Noiseless pivot search: binary search over (1/upper) * e^(k h/upper),
    k = 0..n_steps, up to the top of the doubling grid, for a position whose
    CDF lies within tau +- h, h = alpha (1 - tau) / 4; None once the
    ceil(log2(n_steps + 1)) probes are used up."""
    h = alpha * (1.0 - tau) / 4.0
    first = 1.0 / upper
    last = oracle_svt_grid(lower, upper, 1.0 - tau)[-1]
    n_steps = math.ceil(math.log(last / first) / (h / upper))
    step = math.exp(h / upper)
    probes = math.ceil(math.log2(n_steps + 1))
    low, high = 0, n_steps
    for _ in range(probes):
        mid = (low + high) // 2
        position = first * step ** mid
        cdf = fraction_below(values, position)
        if cdf > tau + h:
            high = mid
        elif cdf < tau - h:
            low = mid
        else:
            return position
    return None


def oracle_learn_pareto(values, lower, upper, alpha, beta, tau):
    pivot = oracle_pareto_pivot(values, lower, upper, alpha, tau)
    if pivot is None:
        raise SearchExhausted("no position in the band")
    tail = oracle_log_transform(values, pivot)
    shape, route = oracle_best_of_both(tail, lower, upper, alpha, 0.5 * beta)
    scale = pivot * (1.0 - tau) ** (1.0 / shape)
    return shape, scale, route


def oracle_learn_pareto_known_scale(values, x_m, lower, upper, beta):
    if min(values) < x_m:
        raise ScaleViolation("sample below declared scale")
    tail = oracle_log_transform(values, x_m)
    return oracle_mle_learning(tail, lower, upper, beta)


def _decoded_lines(fh):
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None


def oracle_read_values(path, require_positive=False):
    """The sample-file reader as a per-line loop over text-mode iteration,
    checking each line as it goes: the reference for harness.read_values,
    which parses most files in bulk.

    A byte the locale encoding cannot decode raises InputError without a
    line. Text-mode iteration decodes in chunks, so the message gives the
    byte's position within its chunk."""
    values = []
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(str(exc)) from None
    with fh:
        for lineno, raw in enumerate(_decoded_lines(fh), start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise InputError(f"could not parse {text!r} as a number",
                                 line=lineno) from None
            if not math.isfinite(value):
                raise InputError(f"non-finite value {text!r}", line=lineno)
            if value < 0.0:
                raise InputError(f"negative value {text!r}", line=lineno)
            if require_positive and value == 0.0:
                raise InputError("value must be strictly positive",
                                 line=lineno)
            values.append(value)
    return values


# --- numeric integration oracles ---------------------------------------------

def quad_exp_tv(l1, l2):
    """TV between Exp(l1) and Exp(l2) by adaptive quadrature of |f1 - f2|."""
    if l1 == l2:
        return 0.0

    def gap(x):
        return abs(l1 * math.exp(-l1 * x) - l2 * math.exp(-l2 * x))

    lo, hi = min(l1, l2), max(l1, l2)
    crossing = math.log(hi / lo) / (hi - lo)
    # one cut per decay scale so no quad call straddles both; tail mass
    # beyond 60/lo is ~e^-60, far below tolerance
    cuts = sorted([0.0, crossing, 60.0 / hi, 60.0 / lo])
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        piece, _ = integrate.quad(gap, a, b, epsabs=1e-13, epsrel=1e-13,
                                  limit=200)
        total += piece
    return 0.5 * total


def quad_pareto_kl(a_from, a_to):
    """KL(Pareto(a_from) || Pareto(a_to)) at equal scale, integrated in the
    log domain where the law is Exp(a_from)."""

    def integrand(y):
        return a_from * math.exp(-a_from * y) * (
            math.log(a_from / a_to) + (a_to - a_from) * y)

    value, _ = integrate.quad(integrand, 0.0, math.inf,
                              epsabs=1e-12, epsrel=1e-12)
    return value


def quad_pareto_tv(m1, a1, m2, a2):
    """Exact-by-quadrature TV between two Pareto laws."""
    (lo_m, lo_a), (hi_m, hi_a) = sorted([(m1, a1), (m2, a2)])

    def pdf(x, m, a):
        return a * m ** a / x ** (a + 1.0) if x >= m else 0.0

    head = 1.0 - (lo_m / hi_m) ** lo_a  # only the lower-scale law lives here
    body, _ = integrate.quad(lambda x: abs(pdf(x, m1, a1) - pdf(x, m2, a2)),
                             hi_m, math.inf, epsabs=1e-12, epsrel=1e-12)
    return 0.5 * (head + body)


# --- 50-digit references over the whole double range ------------------------
# Each takes doubles, which Decimal holds exactly, and works at 50 digits,
# where no double's ratio or logarithm cancels or leaves the exponent range.

def decimal_exp_tv(l1, l2) -> Decimal:
    """T(r) = r^(-1/(r-1)) * (1 - 1/r) at the exact rate ratio r >= 1."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = sorted((Decimal(l1), Decimal(l2)))
        if lo == hi:
            return Decimal(0)
        r = hi / lo
        return (-r.ln() / (r - 1)).exp() * (1 - 1 / r)


def decimal_exp_tv_crossing(l1, l2) -> Decimal:
    """ln(hi / lo) / (hi - lo), where the Exp(l1) and Exp(l2) densities meet,
    for distinct rates."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = sorted((Decimal(l1), Decimal(l2)))
        return (hi / lo).ln() / (hi - lo)


def decimal_pareto_kl(a1, a2) -> Decimal:
    """r - 1 - ln r at the exact shape ratio r = a1 / a2."""
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(a1) / Decimal(a2)
        return r - 1 - r.ln()


def decimal_pareto_log_pdf(xm, a, x) -> Decimal:
    """ln of the Pareto(xm, a) density at x >= xm: ln a - ln x + a ln(xm/x)."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(a)
        return a.ln() - Decimal(x).ln() + a * (Decimal(xm) / Decimal(x)).ln()


def decimal_pareto_cdf(xm, a, x, log_shift=0.0) -> Decimal:
    """1 - (xm / x)^a for x >= xm, as 1 - exp(y) with y = a (ln(xm / x) +
    log_shift) capped at 0 (past 0 the law's CDF would leave [0, 1]). exp(y)
    is taken to 50 more digits than 1 - exp(y) cancels."""
    with localcontext() as ctx:
        ctx.prec = 50
        y = min(Decimal(a) * ((Decimal(xm) / Decimal(x)).ln() + Decimal(log_shift)),
                Decimal(0))
        ctx.prec += max(0, -y.adjusted())
        return 1 - y.exp()

"""numpy's ``default_rng(seed)`` streams, computed without ``numpy.random``.

SeedSequence (NEP 19; a pool of four uint32 words) seeds PCG64 (O'Neill
2014: a 128-bit LCG, here in two uint64 limbs, with the XSL-RR output).
The state functions work on uint64 arrays, one stream per element, and
all their arithmetic wraps, as it does in numpy's C code. Two scenarios
draw from these streams, and ``import numpy.random`` would add 5.3 MB to
the peak memory of ``import ifdsim.cli``, 1.7 MB beyond the OpenSSL that
hashing a seed loads as well.

:func:`multinomial` ports numpy's ``random_multinomial`` and its binomial
samplers: inversion, and BTPE (Kachitvichyanukul and Schmeiser, CACM 31,
216 (1988)). Every float operation keeps numpy's order and its int64 to
double conversions, so the counts equal numpy's bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))  # (high, low)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 words: xor with a running constant, step it, multiply by it."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every seed s < 2**64, shape (4, len(seeds)).

    A seed below 2**32 is one entropy word and a larger one two, low word
    first; either way the pool hashes the words padded with zeros to four.
    """

    def mix(x, y):
        result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return result ^ (result >> np.uint32(16))

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)])


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit product a * b, from 32-bit halves."""
    a0, a1 = a & _MASK32, a >> np.uint64(32)
    b0, b1 = b & _MASK32, b >> np.uint64(32)
    lo_lo, hi_lo = a0 * b0, a1 * b0
    cross = (lo_lo >> np.uint64(32)) + (hi_lo & _MASK32) + a0 * b1
    return (hi_lo >> np.uint64(32)) + (cross >> np.uint64(32)) + a1 * b1


def _add128(hi, lo, add_hi, add_lo):
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * multiplier + inc mod 2**128, in 64-bit limbs."""
    mult_hi, mult_lo = _PCG_MULT
    return _add128(_mulhi(lo, mult_lo) + hi * mult_lo + lo * mult_hi, lo * mult_lo, inc_hi, inc_lo)


def pcg64(seeds: np.ndarray):
    """The seeded PCG64 of default_rng(s) for every uint64 seed s: (state, increment), each a (high, low) pair."""
    w0, w1, w2, w3 = _seed_words(seeds)
    one = np.uint64(1)
    inc = (w2 << one) | (w3 >> np.uint64(63)), (w3 << one) | one
    return _lcg_step(*_add128(*inc, w0, w1), *inc), inc


def next64(state, inc):
    """Step every stream once: (new state, its 64-bit XSL-RR outputs)."""
    hi, lo = _lcg_step(*state, *inc)
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    return (hi, lo), (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _doubles(seed: int) -> Iterator[float]:
    """default_rng(seed).random() draws, one at a time: the top 53 bits of each output over 2**53."""
    # A length-1 array, not a numpy scalar, whose integer overflow would warn.
    state, inc = pcg64(np.array([seed], dtype=np.uint64))
    while True:
        state, out = next64(state, inc)
        yield int(out[0] >> np.uint64(11)) * 2.0**-53


def multinomial(seed: int, n: int, probs: Sequence[float]) -> list[int]:
    """np.random.default_rng(seed).multinomial(n, probs) for a seed < 2**64 and 0 <= n < 2**53.

    Below 2**53 shots BTPE's |y - m| stays under about 9e8, so none of
    numpy's int64 products wraps and the counts are binomial draws; above
    it numpy's own counts can come from wrapped arithmetic.

    numpy's random_multinomial: category j takes binomial(n_j, p_j / (1 -
    p_0 - ... - p_{j-1})) of the n_j shots still unassigned, the draws stop
    once none are left, and the last category takes the rest.
    """
    doubles = _doubles(seed)
    counts = [0] * len(probs)
    remaining = 1.0
    for j, p in enumerate(probs[:-1]):
        counts[j] = _binomial(doubles, p / remaining, n)
        n -= counts[j]
        if n == 0:
            return counts
        remaining -= p
    counts[-1] = n
    return counts


def _binomial(doubles: Iterator[float], p: float, n: int) -> int:
    """numpy's random_binomial: inversion for a mean of at most 30 on the smaller side, BTPE above."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(doubles, n, p) if p * n <= 30.0 else _btpe(doubles, n, p)
    q = 1.0 - p
    if q <= 0.0:
        # p reaches 1 or rounds above it when the later categories are empty.
        # numpy's inversion at q <= 0 then returns 0 on its first draw (its
        # probability of 0 is exp(n log1p(-q)) >= 1), where math.exp could
        # overflow; no shots remain for a later draw.
        return n
    return n - _inversion(doubles, n, q) if q * n <= 30.0 else _btpe(doubles, n, p)


def _inversion(doubles: Iterator[float], n: int, p: float) -> int:
    """Walk the CDF from 0 and restart past mean + 10 sd, as numpy's random_binomial_inversion."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, next(doubles)
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, next(doubles)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(doubles: Iterator[float], n: int, p: float) -> int:
    """numpy's random_binomial_btpe, its steps 10 to 60 in order, on r = min(p, 1 - p)."""
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:
        u = next(doubles) * p4
        v = next(doubles)
        if u <= p1:  # triangle: accept at once
            y = math.floor(xm - p1 * v + u)
            break
        if u <= p2:  # parallelogram
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # left exponential tail; numpy rejects v = 0 as well
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # right exponential tail
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if k <= 20 or float(k) >= nrq / 2.0 - 1:
            # Explicit f(y) / f(m) as a product.
            s = r / q
            a = s * (n + 1)
            f = 1.0
            for i in range(m + 1, y + 1):
                f *= a / i - s
            for i in range(y + 1, m + 1):
                f /= a / i - s
            if v > f:
                continue
            break
        # Squeeze on log v, then the bound from Stirling's formula; C's log
        # gives -inf at v = 0 and nan below, which the comparisons accept.
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        log_v = math.log(v) if v > 0.0 else (-math.inf if v == 0.0 else math.nan)
        if log_v < t - rho:
            break
        if log_v > t + rho:
            continue
        x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
        if log_v > (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * r / (x1 * q))
            + _stirling(f1)
            + _stirling(z)
            + _stirling(x1)
            + _stirling(w)
        ):
            continue
        break
    return n - y if p > 0.5 else y


def _stirling(x: float) -> float:
    """The Stirling-series term 1/(12 x) - 1/(360 x**3) + ... of log x!, nested as numpy writes it."""
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0

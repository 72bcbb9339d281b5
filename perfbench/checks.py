"""Correctness checks on `ifd-sim` outputs, made apart from the program.

Every check returns a list of error strings; an empty list means the
output passed. They read the CSV as text and compare it with
`reference.py`, so a fault in the program cannot hide in the check.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import reference

# Sampled dissipative rows must match the reference integration to this.
# The program states a 1e-6 guarantee; its RK4 agrees with the reference
# to 9e-8 at worst over 187 rows of the 41 x 41 stretch map (4 pi
# probes, 8 substeps) and to 1e-9 at N = 25, so half the guarantee
# leaves room for both and still rejects an error of the guaranteed size.
REFERENCE_TOL = 5e-7
# CSV floats carry 12 significant digits.
CSV_TOL = 1e-9
SUM_TOL = 1e-6


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows, first: int, last: int) -> np.ndarray:
    return np.array([[float(x) for x in r[first:last]] for r in rows]).reshape(len(rows), last - first)


def _header(headers, expected) -> list[str]:
    return [] if list(headers) == list(expected) else [f"header {headers} != {list(expected)}"]


def _count(rows, expected: int) -> list[str]:
    return [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]


def _close(name: str, got, want, tol: float, rel: bool = False) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = np.maximum(np.abs(want), 1e-300) if rel else 1.0
    err = np.abs(got - want) / scale
    if not np.all(err <= tol):
        i = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{name}: error {err.flat[i]:.3g} > {tol:g} at entry {i} (got {float(got.flat[i])!r}, want {float(want.flat[i])!r})"]
    return []


def _probabilities(p: np.ndarray) -> list[str]:
    """Every row sums to 1 and every entry lies in [0, 1]."""
    errors = _close("p0 + p1 + p2", p.sum(axis=1), np.ones(len(p)), SUM_TOL)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        errors.append(f"probability outside [0, 1]: min {p.min()!r}, max {p.max()!r}")
    return errors


def _ratios(p: np.ndarray, pr_nr_eta: np.ndarray) -> list[str]:
    """pr = p0/(p0+p1), nr = p1/(p0+p1), eta_c = p0/(p0+p2), from the row's own p."""
    p0, p1, p2 = p.T
    want = np.stack([p0 / (p0 + p1), p1 / (p0 + p1), p0 / (p0 + p2)], axis=1)
    return _close("pr, nr, eta_c", pr_nr_eta, want, CSV_TOL, rel=True)


def _grid(points: int, theta_max_pi: float) -> np.ndarray:
    return np.linspace(0.0, theta_max_pi * math.pi, points)


# ---------------------------------------------------------------------------
# Dissipative scenarios
# ---------------------------------------------------------------------------

def check_multi_random(path, *, rng_seed, n, m_count, preset, s_ns, b_ns, sample) -> list[str]:
    """multi_random at one N: every row's form, sampled rows against the reference."""
    headers, rows = read_csv(path)
    errors = _header(headers, ("n", "m", "theta_spec", "p0", "p1", "p2")) + _count(rows, m_count)
    if errors:
        return errors
    keys = [(r[0], r[1], r[2]) for r in rows]
    want_keys = [(str(n), str(m), "uniform") for m in range(1, m_count + 1)]
    if keys != want_keys:
        errors.append("n, m, theta_spec columns do not enumerate m = 1..M at one N")
    p = _floats(rows, 3, 6)
    errors += _probabilities(p)
    for i in sample:
        ref = reference.dissipative_probabilities(
            reference.random_strengths(rng_seed, n, i + 1), preset, s_ns, b_ns
        )
        errors += _close(f"row m={i + 1} vs reference", p[i], ref, REFERENCE_TOL)
    return errors


def check_n2_map_dissipative(path, *, points, theta_max_pi, preset, s_ns, b_ns, sample) -> list[str]:
    headers, rows = read_csv(path)
    errors = _header(headers, ("theta1_rad", "theta2_rad", "p0", "p1", "p2", "pr", "nr", "eta_c"))
    errors += _count(rows, points * points)
    if errors:
        return errors
    values = _floats(rows, 0, 8)
    grid = _grid(points, theta_max_pi)
    pairs = np.array([(a, b) for a in grid for b in grid])
    errors += _close("theta grid", values[:, :2], pairs, CSV_TOL)
    errors += _probabilities(values[:, 2:5])
    errors += _ratios(values[:, 2:5], values[:, 5:8])
    for i in sample:
        ref = reference.dissipative_probabilities(pairs[i], preset, s_ns, b_ns)
        errors += _close(f"row {i} (thetas/pi {pairs[i] / math.pi}) vs reference",
                         values[i, 2:5], ref, REFERENCE_TOL)
    return errors


# ---------------------------------------------------------------------------
# Closed-system scenarios at their defaults
# ---------------------------------------------------------------------------

def check_n2_map_ideal(path, *, points=161, theta_max_pi=4.0) -> list[str]:
    headers, rows = read_csv(path)
    errors = _header(headers, ("theta1_rad", "theta2_rad", "p0", "p1", "p2", "pr", "nr", "eta_c"))
    errors += _count(rows, points * points)
    if errors:
        return errors
    values = _floats(rows, 0, 8)
    grid = _grid(points, theta_max_pi)
    pairs = np.array([(a, b) for a in grid for b in grid])
    errors += _close("theta grid", values[:, :2], pairs, CSV_TOL)
    errors += _close("p vs recursion", values[:, 2:5], reference.ideal_probabilities(2, pairs), CSV_TOL)
    errors += _ratios(values[:, 2:5], values[:, 5:8])
    return errors


def check_n1_sweep(path, *, points=181, theta_max_pi=4.0) -> list[str]:
    headers, rows = read_csv(path)
    errors = _header(headers, ("theta_rad", "p0", "p1", "p2", "pr", "nr", "eta_c")) + _count(rows, points)
    if errors:
        return errors
    values = _floats(rows, 0, 7)
    theta = _grid(points, theta_max_pi)
    closed = np.stack([np.sin(theta / 4) ** 4, np.cos(theta / 4) ** 4, 0.5 * np.sin(theta / 2) ** 2], axis=1)
    errors += _close("theta grid", values[:, 0], theta, CSV_TOL)
    errors += _close("p vs closed form", values[:, 1:4], closed, CSV_TOL)
    errors += _ratios(values[:, 1:4], values[:, 4:7])
    return errors


def check_projective_compare(path, *, n_min=1, n_max=25) -> list[str]:
    headers, rows = read_csv(path)
    errors = _header(headers, ("n", "p0_coh", "p2_coh", "eta_c", "p_det_proj", "p_abs_proj",
                               "eta_proj", "cum_abs_coh", "cum_abs_proj"))
    errors += _count(rows, n_max - n_min + 1)
    if errors:
        return errors
    v = _floats(rows, 0, 9)
    ns = np.arange(n_min, n_max + 1)
    errors += _close("n", v[:, 0], ns, 0.0)
    want = []
    for n in ns:
        amps = np.array(reference.ideal_amplitudes(n, np.full((1, n), math.pi), checkpoints=True))[:, 0, :]
        half = math.pi / (2 * (n + 1))
        c2, s2 = math.cos(half) ** 2, math.sin(half) ** 2
        p_abs = s2 * sum(c2**k for k in range(n))
        p_det = math.cos(half) ** (2 * (n + 1))
        want.append((amps[-1, 0] ** 2, amps[-1, 2] ** 2, p_det, p_abs, float(np.sum(amps[1:, 2] ** 2)), p_abs))
    want = np.array(want)
    errors += _close("p0_coh, p2_coh vs recursion", v[:, 1:3], want[:, 0:2], CSV_TOL)
    errors += _close("p_det_proj vs cos^2(N+1)", v[:, 4], want[:, 2], CSV_TOL)
    errors += _close("p_abs_proj", v[:, 5], want[:, 3], CSV_TOL)
    errors += _close("cum_abs_coh, cum_abs_proj", v[:, 7:9], want[:, 4:6], CSV_TOL)
    errors += _close("eta_c", v[:, 3], v[:, 1] / (v[:, 1] + v[:, 2]), CSV_TOL, rel=True)
    errors += _close("eta_proj", v[:, 6], v[:, 4] / (v[:, 4] + v[:, 5]), CSV_TOL, rel=True)
    return errors


COEFF_THETAS = np.array([0.0, 0.3, 1.0, 2.0, math.pi, 4.0, 7.5, 4 * math.pi])


def check_coefficients(path, *, n_min=1, n_max=4) -> list[str]:
    """The tables, evaluated at several common strengths, reproduce the recursion."""
    headers, rows = read_csv(path)
    errors = _header(headers, ("n", "series", "k", "value"))
    errors += _count(rows, 3 * sum(n + 1 for n in range(n_min, n_max + 1)))
    if errors:
        return errors
    tables = {}
    for n, series, k, value in rows:
        tables.setdefault((int(n), series), {})[int(k)] = float(value)
    for n in range(n_min, n_max + 1):
        ks = np.arange(n + 1)
        try:
            coeffs = [np.array([tables[(n, s)][k] for k in ks]) for s in ("amp0", "amp1", "amp2")]
        except KeyError as exc:
            errors.append(f"N={n}: missing coefficient {exc}")
            continue
        half_k = np.outer(COEFF_THETAS / 2, ks)
        got = np.stack([np.cos(half_k) @ coeffs[0], np.cos(half_k) @ coeffs[1], np.sin(half_k) @ coeffs[2]], axis=1)
        want = reference.ideal_amplitudes(n, np.repeat(COEFF_THETAS[:, None], n, axis=1))
        errors += _close(f"N={n} reconstruction vs recursion", got, want, CSV_TOL)
    return errors


def check_majorana(path, *, n=25) -> list[str]:
    headers, rows = read_csv(path)
    errors = _header(headers, ("step", "mode", "s1x", "s1y", "s1z", "s2x", "s2y", "s2z"))
    errors += _count(rows, 2 * n + 2)
    if errors:
        return errors
    if [(r[0], r[1]) for r in rows] != [(str(k), "ideal") for k in range(2 * n + 2)]:
        errors.append("steps are not 0..2N+1 of mode ideal")
    stars = _floats(rows, 2, 8).reshape(-1, 2, 3)
    errors += _close("star norms", np.linalg.norm(stars, axis=2), np.ones((len(rows), 2)), CSV_TOL)
    return errors


def check_quantized(path, *, n_max=5, photons=4) -> list[str]:
    headers, rows = read_csv(path)
    errors = _header(headers, ("n", "n_photons", "level", "p_semiclassical", "p_quantized", "abs_diff"))
    errors += _count(rows, n_max * photons * 3)
    if errors:
        return errors
    v = _floats(rows, 0, 6)
    keys = [(n, k, lvl) for n in range(1, n_max + 1) for k in range(1, photons + 1) for lvl in range(3)]
    errors += _close("n, n_photons, level", v[:, :3], np.array(keys), 0.0)
    # Every row has g sqrt(n) t_b = pi: the semiclassical probe is a pi pulse.
    want = np.array([reference.ideal_probabilities(n, np.full((1, n), math.pi))[0, lvl] for n, _, lvl in keys])
    errors += _close("p_semiclassical vs recursion", v[:, 3], want, CSV_TOL)
    errors += _close("abs_diff", v[:, 5], np.abs(v[:, 3] - v[:, 4]), CSV_TOL)
    if np.max(v[:, 5]) > 1e-10:
        errors.append(f"quantized and semiclassical differ by {np.max(v[:, 5]):.3g} > 1e-10")
    return errors


def check_histogram(path, *, shots=1_000_000) -> list[str]:
    """N = 1, theta = pi: counts within 5 sigma of (1/4, 1/4, 1/2)."""
    headers, rows = read_csv(path)
    errors = _header(headers, ("detector", "count", "fraction")) + _count(rows, 3)
    if errors:
        return errors
    if [r[0] for r in rows] != ["d0", "d1", "d2"]:
        errors.append("detectors are not d0, d1, d2")
    counts = np.array([int(r[1]) for r in rows])
    if counts.sum() != shots:
        errors.append(f"counts sum to {counts.sum()}, not {shots}")
    errors += _close("fraction", [float(r[2]) for r in rows], counts / shots, CSV_TOL)
    p = np.array([0.25, 0.25, 0.5])
    sigma = np.sqrt(shots * p * (1 - p))
    if np.any(np.abs(counts - shots * p) > 5 * sigma):
        errors.append(f"counts {counts.tolist()} outside 5 sigma of {(shots * p).tolist()}")
    return errors


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def check_summary(path, *, scenario: str, row_count: int) -> list[str]:
    with open(path, encoding="ascii") as fh:
        summary = json.load(fh)
    errors = []
    if summary.get("scenario") != scenario:
        errors.append(f"summary.json scenario {summary.get('scenario')!r} != {scenario!r}")
    if summary.get("row_count") != row_count:
        errors.append(f"summary.json row_count {summary.get('row_count')!r} != {row_count}")
    return errors


def identical(path_a: str, path_b: str) -> list[str]:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return []
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{path_b} differs from {path_a} at byte {at}"]

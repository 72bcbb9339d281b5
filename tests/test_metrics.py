import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifdsim import rng
from ifdsim.config import point_seed
from ifdsim.dynamics import SAMPLE_1
from ifdsim.metrics import (
    ShotCounts,
    cumulative_absorption,
    efficiency,
    pr_nr,
    sample_shots,
)
from ifdsim.protocol import (
    OutcomeProbabilities,
    ProtocolSpec,
    amplitude_recursion,
    run_coherent_dissipative,
    run_coherent_ideal,
    run_projective,
)

probs = st.floats(min_value=0.0, max_value=1.0)


def outcome(p0, p1, p2):
    return OutcomeProbabilities(p0, p1, p2)


def test_pr_nr_reference_points():
    p = run_coherent_ideal(ProtocolSpec(2, [np.pi, np.pi]))
    pr, nr = pr_nr(p)
    assert pr == pytest.approx(0.9959, abs=1e-4)
    assert 0.99 <= pr < 1.0
    assert pr_nr(outcome(0.3, 0.0, 0.7))[0] == 1.0
    pr1, _ = pr_nr(run_coherent_ideal(ProtocolSpec(1, [np.pi])))
    assert pr1 == pytest.approx(0.5, abs=1e-12)


@given(probs, probs)
@settings(max_examples=50, deadline=None)
def test_pr_nr_sum_is_one(p0, p1):
    if p0 + p1 <= 1e-12 or p0 + p1 > 1:
        return
    pr, nr = pr_nr(outcome(p0, p1, 1 - p0 - p1))
    assert pr + nr == pytest.approx(1.0, abs=1e-12)


def test_pr_nr_zero_denominator():
    # Every run absorbed: both ratios are nan, as np.float64, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr, nr = pr_nr(outcome(0.0, 0.0, 1.0))
    assert type(pr) is type(nr) is np.float64
    assert np.isnan(pr) and np.isnan(nr)


def test_array_ratios_equal_scalar_ratios_row_by_row():
    rng = np.random.default_rng(4)
    p = rng.dirichlet([1.0, 1.0, 1.0], size=50)
    p[0] = [1.0, 0.0, 0.0]
    p[1] = [1e-300, 0.0, 1.0]
    pr, nr = pr_nr(OutcomeProbabilities(*p.T))
    eta = efficiency(p[:, 0], p[:, 2])
    for i, row in enumerate(p):
        assert (pr[i], nr[i]) == pr_nr(outcome(*row))
        assert eta[i] == efficiency(float(row[0]), float(row[2]))


def test_array_ratios_are_nan_exactly_where_a_denominator_is_not_positive():
    # a / (a + b) where a + b > 0 and nan elsewhere, row by row: zero and
    # negative denominators (round-off below a clipped 0) give nan, and
    # the smallest positive ones still give a ratio.
    a = np.array([0.5, 0.0, 0.2, 0.0, -1e-17, 5e-324, 1e-300, 0.0, 1e-10])
    b = np.array([0.5, 0.0, 0.0, 5e-324, 0.0, 0.0, -1e-301, -0.0, -1e-10])
    undefined = a + b <= 0.0
    p = OutcomeProbabilities(a, b, 1.0 - a - b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr, nr = pr_nr(p)
        eta = efficiency(a, b)
    np.testing.assert_array_equal(np.isnan(eta), undefined)
    np.testing.assert_array_equal(np.isnan(pr), undefined)
    np.testing.assert_array_equal(np.isnan(nr), undefined)
    np.testing.assert_array_equal(eta, pr)
    np.testing.assert_array_equal(eta[~undefined], a[~undefined] / (a + b)[~undefined])
    np.testing.assert_array_equal(nr[~undefined], b[~undefined] / (a + b)[~undefined])
    for i in range(len(a)):
        assert np.array_equal(efficiency(float(a[i]), float(b[i])), eta[i], equal_nan=True)


def test_confusion_matrix_ideal_single_segment():
    # pr_nr at full strength gives (tpr, fnr), at zero strength (fpr, tnr)
    tpr, fnr = pr_nr(run_coherent_ideal(ProtocolSpec(1, [np.pi])))
    fpr, tnr = pr_nr(run_coherent_ideal(ProtocolSpec(1, [0.0])))
    assert tpr == pytest.approx(0.5, abs=1e-12)
    assert fnr == pytest.approx(0.5, abs=1e-12)
    assert fpr == pytest.approx(0.0, abs=1e-12)
    assert tnr == pytest.approx(1.0, abs=1e-12)


def test_confusion_matrix_ideal_fpr_zero_for_all_sizes():
    for n in (1, 3, 9):
        at_zero = run_coherent_ideal(ProtocolSpec(n, [0.0] * n))
        fpr, tnr = pr_nr(at_zero)
        assert fpr == pytest.approx(0.0, abs=1e-12)
        assert tnr == pytest.approx(1.0, abs=1e-12)


def test_confusion_matrix_dissipative_close_to_ideal():
    at_pi = run_coherent_dissipative(ProtocolSpec(1, [np.pi], model="lindblad", decoherence=SAMPLE_1))
    at_zero = run_coherent_dissipative(ProtocolSpec(1, [0.0], model="lindblad", decoherence=SAMPLE_1))
    tpr, _ = pr_nr(at_pi)
    fpr, tnr = pr_nr(at_zero)
    assert tpr == pytest.approx(0.5, abs=0.03)
    assert fpr < 0.08
    assert tnr > 0.9


def test_efficiency_reference_points():
    p1 = run_coherent_ideal(ProtocolSpec(1, [np.pi]))
    assert efficiency(p1.p0, p1.p2) == pytest.approx(1 / 3, abs=1e-10)
    p2 = run_coherent_ideal(ProtocolSpec(2, [np.pi, np.pi]))
    assert efficiency(p2.p0, p2.p2) == pytest.approx(0.8118, abs=1e-4)
    assert efficiency(0.4, 0.0) == 1.0
    assert np.isnan(efficiency(0.0, 0.0))


def test_cumulative_absorption():
    assert cumulative_absorption([0.0, 0.0]) == 0.0
    coh = cumulative_absorption(
        [g * g for _, _, g in amplitude_recursion(1, [np.pi])[1:]]
    )
    proj = cumulative_absorption(run_projective(1, [np.pi]).per_segment_abs)
    assert coh == pytest.approx(0.5, abs=1e-12)
    assert proj == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        cumulative_absorption([1.2])


def test_cumulative_absorption_coherent_advantage():
    n = 10
    coh = cumulative_absorption(
        [g * g for _, _, g in amplitude_recursion(n, [np.pi] * n)[1:]]
    )
    proj = cumulative_absorption(run_projective(n, [np.pi] * n).per_segment_abs)
    assert coh < proj


def test_plateau_area_grows_with_protocol_size():
    grid = np.linspace(0.0, np.pi, 200)

    def area(n):
        values = [run_coherent_ideal(ProtocolSpec(n, [t] * n)).p0 for t in grid]
        return np.trapezoid(values, grid)

    assert area(10) > area(3)


def test_sample_shots_deterministic_and_degenerate():
    p = outcome(1.0, 0.0, 0.0)
    counts = sample_shots(p, 1000, seed=5)
    assert (counts.d0, counts.d1, counts.d2) == (1000, 0, 0)
    p = run_coherent_ideal(ProtocolSpec(1, [np.pi]))
    a = sample_shots(p, 12345, seed=99)
    b = sample_shots(p, 12345, seed=99)
    assert (a.d0, a.d1, a.d2) == (b.d0, b.d1, b.d2)
    assert a.total == 12345


def test_sample_shots_statistics():
    p = run_coherent_ideal(ProtocolSpec(1, [np.pi]))
    counts = sample_shots(p, 1_000_000, seed=11)
    fractions = np.array([counts.d0, counts.d1, counts.d2]) / counts.total
    for observed, expected in zip(fractions, p.as_array()):
        sigma = np.sqrt(expected * (1 - expected) / 1_000_000)
        assert abs(observed - expected) < 4 * sigma


# Probability vectors that reach each branch of numpy's binomial samplers
# at some of the shot counts below: inversion (mean <= 30), BTPE's
# triangle, parallelogram and tails with its k <= 20 product and its
# squeeze and Stirling bound, p > 0.5 on either sampler (n minus a draw
# at 1 - p), p_1 / (1 - p_0) of 1 and of one ulp above it, a p below
# half an ulp of 1 (whose 1 - p rounds to 1), zero probabilities, and the
# early stop when no shots remain.
SHOT_PROBABILITIES = [
    [0.2, 0.3, 0.5],
    [0.93, 0.05, 0.02],
    [0.7, 0.2, 0.1],
    [0.0, 0.4, 0.6],
    [0.25, 0.0, 0.75],
    [0.5, 0.5, 0.0],
    [0.3, 0.7000000000000001, 0.0],
    [1.0, 0.0, 0.0],
    [1e-17, 1.0 - 1e-17, 0.0],
    [5e-19, 1.0, 0.0],
]


def test_multinomial_is_numpys_stream():
    # The seeds of the test_cli stream check, up to the largest shot count
    # a config accepts: at n = 2**53 - 1, p = 1e-17 takes BTPE with small
    # k and p = 1/2 BTPE with large k.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [point_seed(base, 1, 0) for base in (1, 7919, 2**64 - 1)]
    for seed in seeds:
        for n in (1, 7, 50, 10**3, 10**6, 10**9, 2**53 - 1):
            for probs in SHOT_PROBABILITIES:
                expected = np.random.default_rng(seed).multinomial(n, probs).tolist()
                assert rng.multinomial(seed, n, probs) == expected, (seed, n, probs)
    for seed in range(40):
        for probs in ([1e-17, 1.0 - 1e-17], [0.5, 0.5]):
            expected = np.random.default_rng(seed).multinomial(2**53 - 1, probs).tolist()
            assert rng.multinomial(seed, 2**53 - 1, probs) == expected, (seed, probs)


def test_sample_shots_validation():
    with pytest.raises(ValueError):
        sample_shots(outcome(0.5, 0.25, 0.25), 0, seed=1)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        sample_shots(outcome(0.5, 0.25, 0.25), 2**53, seed=1)


def test_shot_counts_fractions():
    counts = ShotCounts(1, 2, 7)
    assert counts.total == 10
    assert np.array([counts.d0, counts.d1, counts.d2]) / counts.total == pytest.approx([0.1, 0.2, 0.7])


def test_dark_count_rate_full_sequence():
    # zero-strength run on the long-protocol device: false positives come
    # from decoherence alone; the 25-segment sequence lasts 4.256 us
    from ifdsim.dynamics import SAMPLE_2
    from ifdsim.protocol import ProtocolSpec
    from ifdsim.pulses import PulseGeometry

    geo = PulseGeometry(b_duration=112e-9)
    p = run_coherent_dissipative(
        ProtocolSpec(25, [0.0] * 25, model="lindblad_depol", decoherence=SAMPLE_2, pulse_geometry=geo)
    )
    fpr, _ = pr_nr(p)
    rate = fpr / (26 * geo.s_duration + 25 * geo.b_duration)  # false positives per second
    assert rate * 1e-6 == pytest.approx(0.1, abs=0.05)  # counts per microsecond

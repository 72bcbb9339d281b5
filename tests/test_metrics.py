import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ifdsim import UndefinedRatioError
from ifdsim.dynamics import SAMPLE_1
from ifdsim.metrics import (
    ShotCounts,
    confusion_matrix,
    cumulative_absorption,
    dark_count_rate,
    distribution_stats,
    efficiency,
    plateau_area,
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
    with pytest.raises(UndefinedRatioError):
        pr_nr(outcome(0.0, 0.0, 1.0))


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


def test_array_ratios_raise_when_any_denominator_is_zero():
    p = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(UndefinedRatioError):
        pr_nr(OutcomeProbabilities(*p.T))
    with pytest.raises(UndefinedRatioError):
        efficiency(np.array([0.2, 0.0]), np.array([0.3, 0.0]))
    with pytest.raises(UndefinedRatioError):
        efficiency(0.0, 0.0)


def test_confusion_matrix_ideal_single_segment():
    cm = confusion_matrix(
        run_coherent_ideal(ProtocolSpec(1, [np.pi])),
        run_coherent_ideal(ProtocolSpec(1, [0.0])),
    )
    assert cm.tpr == pytest.approx(0.5, abs=1e-12)
    assert cm.fnr == pytest.approx(0.5, abs=1e-12)
    assert cm.fpr == pytest.approx(0.0, abs=1e-12)
    assert cm.tnr == pytest.approx(1.0, abs=1e-12)
    assert cm.tpr + cm.fnr == pytest.approx(1.0, abs=1e-12)
    assert cm.fpr + cm.tnr == pytest.approx(1.0, abs=1e-12)


def test_confusion_matrix_ideal_fpr_zero_for_all_sizes():
    for n in (1, 3, 9):
        at_zero = run_coherent_ideal(ProtocolSpec(n, [0.0] * n))
        fpr, tnr = pr_nr(at_zero)
        assert fpr == pytest.approx(0.0, abs=1e-12)
        assert tnr == pytest.approx(1.0, abs=1e-12)


def test_confusion_matrix_dissipative_close_to_ideal():
    at_pi = run_coherent_dissipative(ProtocolSpec(1, [np.pi], model="lindblad", decoherence=SAMPLE_1))
    at_zero = run_coherent_dissipative(ProtocolSpec(1, [0.0], model="lindblad", decoherence=SAMPLE_1))
    cm = confusion_matrix(at_pi, at_zero)
    assert cm.tpr == pytest.approx(0.5, abs=0.03)
    assert cm.fpr < 0.08
    assert cm.tnr > 0.9


def test_efficiency_reference_points():
    p1 = run_coherent_ideal(ProtocolSpec(1, [np.pi]))
    assert efficiency(p1.p0, p1.p2) == pytest.approx(1 / 3, abs=1e-10)
    p2 = run_coherent_ideal(ProtocolSpec(2, [np.pi, np.pi]))
    assert efficiency(p2.p0, p2.p2) == pytest.approx(0.8118, abs=1e-4)
    assert efficiency(0.4, 0.0) == 1.0
    with pytest.raises(UndefinedRatioError):
        efficiency(0.0, 0.0)


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


def test_plateau_area():
    grid = np.linspace(0.0, np.pi, 400)
    assert plateau_area(grid, np.zeros_like(grid)) == 0.0
    p0 = np.sin(grid / 4) ** 4
    oracle, _ = quad(lambda t: np.sin(t / 4) ** 4, 0.0, np.pi, epsabs=1e-14)
    assert oracle == pytest.approx(3 * np.pi / 8 - 1, abs=1e-10)
    assert plateau_area(grid, p0) == pytest.approx(oracle, abs=1e-4)
    with pytest.raises(ValueError):
        plateau_area(grid, p0[:-1])
    with pytest.raises(ValueError):
        plateau_area(grid[::-1], p0)


def test_plateau_area_grows_with_protocol_size():
    grid = np.linspace(0.0, np.pi, 200)

    def area(n):
        values = [run_coherent_ideal(ProtocolSpec(n, [t] * n)).p0 for t in grid]
        return plateau_area(grid, values)

    assert area(10) > area(3)


def test_distribution_stats():
    assert distribution_stats([4.2] * 7) == (pytest.approx(4.2), pytest.approx(0.0))
    assert distribution_stats([0.0, 1.0]) == (pytest.approx(0.5), pytest.approx(0.5))
    rng = np.random.default_rng(6)
    xs = rng.uniform(size=101)
    mean, std = distribution_stats(xs)
    brute_mean = sum(xs) / len(xs)
    brute_std = np.sqrt(sum((x - brute_mean) ** 2 for x in xs) / len(xs))
    assert mean == pytest.approx(brute_mean, abs=1e-12)
    assert std == pytest.approx(brute_std, abs=1e-12)
    with pytest.raises(ValueError):
        distribution_stats([])


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
    for observed, expected in zip(counts.fractions(), p.as_array()):
        sigma = np.sqrt(expected * (1 - expected) / 1_000_000)
        assert abs(observed - expected) < 4 * sigma


def test_sample_shots_validation():
    with pytest.raises(ValueError):
        sample_shots(outcome(0.5, 0.25, 0.25), 0, seed=1)


def test_shot_counts_fractions():
    counts = ShotCounts(1, 2, 7)
    assert counts.total == 10
    assert counts.fractions() == pytest.approx([0.1, 0.2, 0.7])


def test_dark_count_rate():
    assert dark_count_rate(0.0, 4.3e-6) == 0.0
    # 0.43 false positives over a 4.3 us sequence is 0.1 counts per us
    assert dark_count_rate(0.43, 4.3e-6) == pytest.approx(0.1e6)
    with pytest.raises(ValueError):
        dark_count_rate(0.1, 0.0)


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
    rate = dark_count_rate(fpr, geo.total_duration(25, [0.0] * 25))
    assert rate * 1e-6 == pytest.approx(0.1, abs=0.05)  # counts per microsecond

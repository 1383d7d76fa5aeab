"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the same checks back the CLI ``selftest`` subcommand.  The full
suite takes a few minutes, dominated by the 10^5-path estimator runs.
"""

import itertools

import numpy as np
import pytest

from opcalc import acceptance
from opcalc.stochastic_mc import engine
from test_stochastic import chunk_bridges


def _run(number):
    result = acceptance.CRITERIA[number](seed=0)
    print(result.line(), f"[{result.elapsed:.1f}s]")
    assert result.passed, result.details
    return result


def test_criterion_01_cross_evaluator_agreement():
    _run(1)


def test_criterion_02_closed_form_exactness():
    _run(2)


def test_criterion_03_nilpotency():
    _run(3)


def test_criterion_04_dyson_bound_and_simplex_oracle():
    _run(4)


def test_criterion_4_gate_false_fail_rate_is_near_nominal():
    """Criterion 4's Monte Carlo gate (its nine tuples, streams and 3-SE
    rule) at 2 10^4 samples, a fiftieth of its own, over seeds 0-99.  Nine
    3-SE gates on a finite-variance sampler fail about 2.4% of seeds; this
    run fails 2.  The sorted-uniform sampler it replaced, whose integrand
    has infinite variance for exponents >= 1/2, failed 48 of them."""
    fails = sum(acceptance.simplex_mc_worst_z(seed, 2 * 10**4) > 3.0 for seed in range(100))
    assert fails <= 6


def test_criterion_05_derivative_recursion():
    _run(5)


def test_criterion_06_patodi_suite():
    _run(6)


def test_criterion_07_mckean_singer():
    _run(7)


def test_criterion_08_jlo_localization():
    res = _run(8)
    assert res.elapsed <= 120.0


def test_criterion_09_feynman_kac_vs_oracle():
    res = _run(9)
    assert res.elapsed <= 300.0


def test_criterion_10_moment_scaling():
    _run(10)


def test_criterion_10_gate_holds_over_seeds():
    """Criterion 10's model, patterns and t grid at 2000 paths x 32 steps,
    a tenth of its paths and an eighth of its steps, over seeds 0-39: every
    slope stays within the 0.15 gate (the worst reads about 0.05), so the
    verdict does not rest on the released seed's streams."""
    worst = max(
        abs(slope - expected)
        for seed in range(40)
        for slope, expected in acceptance.moment_slopes(seed, 2000, 32).values()
    )
    assert worst <= 0.15


def test_criterion_11_levy_area():
    _run(11)


def test_criterion_12_bridge_law():
    _run(12)


def test_criterion_12_gate_false_fail_rate_is_near_nominal():
    """Criterion 12's chi-squared gate at its t and 40 bins, at 5000 samples,
    over seeds 0-199: the sampler is exact, so the 1% gate should fail at
    about 2 seeds.  Unpooled, the 40-bin chi2(39) law fails 30 of them,
    since most bins expect fewer than 5 counts; pooling those bins fails 3."""
    fails = 0
    for seed in range(200):
        chi2, critical, dof, _ = acceptance.bridge_midpoint_chi2(1, 0.7, 5000, 40, seed)
        fails += chi2 > critical
    assert dof < 39
    assert fails <= 6  # P(Binomial(200, 0.01) > 6) < 0.5%


def test_criterion_13_reproducibility():
    _run(13)


def test_criterion_time_limit(monkeypatch):
    """A body registered with ``seconds`` fails when it takes longer, and
    reports the time it took; the same body registered without a limit
    passes.  Either verdict is a plain bool."""
    ticks = itertools.count(0.0, 2.0)  # every body appears to take 2 s
    monkeypatch.setattr(acceptance.time, "time", lambda: next(ticks))
    for number in (98, 99):
        monkeypatch.setitem(acceptance.CRITERIA, number, None)  # undone afterwards

    def body(seed=0):
        return np.bool_(True), {"seed": seed}

    limited = acceptance._criterion(99, "limited", seconds=1.0)(body)
    unlimited = acceptance._criterion(98, "unlimited")(body)
    assert acceptance.CRITERIA[99] is limited and acceptance.CRITERIA[98] is unlimited

    slow = acceptance.CRITERIA[99](seed=5)
    assert slow.passed is False
    assert (slow.number, slow.title, slow.details, slow.elapsed) == (99, "limited", {"seed": 5}, 2.0)
    free = acceptance.CRITERIA[98](seed=5)
    assert free.passed is True
    assert free.elapsed == 2.0


def test_fk_step_bias_halves_with_the_step():
    """Criterion 9's model stepped at N steps and, on the pairwise sums of
    the same increments, at N/2: E[F_N - F_{N/2}] is the O(h) step bias of
    the left-point scheme, so it halves per entry from N = 16 to 32 to 64
    and stays many standard errors away from 0."""
    model = acceptance.acceptance_fk_model()
    t, x, y = acceptance.FK_T, acceptance.FK_X, acceptance.FK_Y
    means = []
    for steps in (16, 32, 64):
        _, z, stream = chunk_bridges(x, y, t, steps, 0, 16384)
        fine = [db.copy() for db in stream]
        coarse = [a + b for a, b in zip(fine[::2], fine[1::2])]
        diff = (engine._step_rows(model, x, z, t / steps, fine).row
                - engine._step_rows(model, x, z, 2 * t / steps, coarse).row)
        mean = diff.mean(axis=0)
        stderr = np.sqrt((diff.real.var(axis=0) + diff.imag.var(axis=0)) / len(diff))
        assert np.all(np.abs(mean) > 20.0 * stderr)
        means.append(mean)
    for coarse_mean, fine_mean in zip(means, means[1:]):
        assert np.abs(coarse_mean / fine_mean - 2.0).max() < 0.2

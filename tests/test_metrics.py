import io
import math
import random

import numpy as np
import pytest

from preference_chain.errors import AxisMismatch, EmptySamples, UnknownKey
from preference_chain.evaluate import write_combined_csv
from preference_chain.metrics import (
    EvaluationReport,
    JointDistribution,
    joint_from_samples,
    kld,
    mae,
)
from preference_chain.schema import ChoiceCategorySet

_CHOICES = ChoiceCategorySet("mode", ("walk", "drive"))
_GROUPS = ("young", "old")


def _joint(cells):
    return JointDistribution(_GROUPS, _CHOICES, np.array(cells, dtype=float))


def test_joint_validation():
    with pytest.raises(ValueError):
        _joint([[0.5, 0.5]])  # wrong shape
    with pytest.raises(ValueError):
        _joint([[0.8, 0.4], [-0.1, -0.1]])  # negative
    with pytest.raises(ValueError):
        _joint([[0.5, 0.5], [0.5, 0.5]])  # sums to 2


def test_joint_from_samples_counting_oracle():
    samples = [
        ("young", "walk"),
        ("young", "walk"),
        ("young", "drive"),
        ("old", "drive"),
    ]
    joint = joint_from_samples(samples, _GROUPS, _CHOICES)
    np.testing.assert_allclose(joint.cells, [[0.5, 0.25], [0.0, 0.25]])


def test_joint_from_samples_errors():
    with pytest.raises(EmptySamples):
        joint_from_samples([], _GROUPS, _CHOICES)
    with pytest.raises(UnknownKey):
        joint_from_samples([("child", "walk")], _GROUPS, _CHOICES)
    with pytest.raises(UnknownKey):
        joint_from_samples([("young", "fly")], _GROUPS, _CHOICES)


def _joint_one_at_a_time(samples, groups, choices):
    """The counting estimator one sample at a time, checking each."""
    group_index = {g: i for i, g in enumerate(groups)}
    choice_index = {c: j for j, c in enumerate(choices.options)}
    counts = np.zeros((len(groups), len(choices)), dtype=float)
    for group, choice in samples:
        if group not in group_index:
            raise UnknownKey(f"group {group!r} not on the declared axis")
        if choice not in choice_index:
            raise UnknownKey(f"choice {choice!r} not in choice set {choices.name!r}")
        counts[group_index[group], choice_index[choice]] += 1.0
    return counts / counts.sum()


def _error(estimate, samples, groups, choices):
    with pytest.raises(UnknownKey) as info:
        estimate(samples, groups, choices)
    return str(info.value)


def test_joint_from_samples_equals_one_at_a_time_count():
    rng = random.Random(11)
    groups = ("a", "b", "c")
    choices = ChoiceCategorySet("m", ("w", "x", "y", "z"))
    for _ in range(200):
        samples = [
            (rng.choice(groups), rng.choice(choices.options))
            for _ in range(rng.randint(1, 80))
        ]
        expected = _joint_one_at_a_time(samples, groups, choices)
        assert np.array_equal(joint_from_samples(samples, groups, choices).cells, expected)
        # one or two unknown keys put anywhere: the same error, for the first
        bad = list(samples)
        for pair in rng.sample([("q", "w"), ("a", "v"), ("q", "v")], rng.randint(1, 2)):
            bad.insert(rng.randint(0, len(bad)), pair)
        assert _error(joint_from_samples, bad, groups, choices) == _error(
            lambda *args: _joint_one_at_a_time(*args), bad, groups, choices
        )


def test_kld_hand_oracle():
    # single-group joint: KL((0.5,0.5) || (0.9,0.1))
    # = 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1) = 0.510825624...
    choices = ChoiceCategorySet("c", ("a", "b"))
    p = JointDistribution(("g",), choices, np.array([[0.5, 0.5]]))
    q = JointDistribution(("g",), choices, np.array([[0.9, 0.1]]))
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert expected == pytest.approx(0.5108, abs=5e-5)
    assert kld(p, q, epsilon=0.0) == pytest.approx(expected, abs=1e-12)
    # tiny smoothing moves the value only slightly
    assert kld(p, q) == pytest.approx(expected, abs=1e-6)


def test_kld_identity_is_zero():
    p = _joint([[0.4, 0.1], [0.3, 0.2]])
    assert kld(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kld_nonnegative_random():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rng.random((2, 2)) + 1e-3
        b = rng.random((2, 2)) + 1e-3
        p = _joint(a / a.sum())
        q = _joint(b / b.sum())
        assert kld(p, q) >= -1e-12


def test_kld_smoothing_keeps_zero_cells_finite():
    p = _joint([[0.5, 0.5], [0.0, 0.0]])
    q = _joint([[0.0, 0.5], [0.5, 0.0]])
    value = kld(p, q, epsilon=1e-9)
    assert math.isfinite(value)
    assert value > 0


def test_kld_smoothing_oracle():
    # recompute the smoothed value by hand for a 1x2 joint
    choices = ChoiceCategorySet("c", ("a", "b"))
    p = JointDistribution(("g",), choices, np.array([[1.0, 0.0]]))
    q = JointDistribution(("g",), choices, np.array([[0.5, 0.5]]))
    eps = 0.25
    ps = np.array([1.25, 0.25]) / 1.5
    qs = np.array([0.75, 0.75]) / 1.5
    expected = float(np.sum(ps * np.log(ps / qs)))
    assert kld(p, q, epsilon=eps) == pytest.approx(expected, abs=1e-12)


def test_mae_hand_oracle():
    p = _joint([[0.4, 0.1], [0.3, 0.2]])
    q = _joint([[0.1, 0.4], [0.2, 0.3]])
    # |0.3| + |0.3| + |0.1| + |0.1| over 4 cells
    assert mae(p, q) == pytest.approx(0.2)


def test_mae_properties():
    rng = np.random.default_rng(29)
    a = rng.random((2, 2))
    b = rng.random((2, 2))
    p = _joint(a / a.sum())
    q = _joint(b / b.sum())
    assert mae(p, p) == 0.0
    assert mae(p, q) == pytest.approx(mae(q, p))
    assert 0.0 <= mae(p, q) <= 2.0 / 4  # sum |P-Q| <= 2 over N=4 cells


def test_axis_mismatch_rejected():
    p = _joint([[0.4, 0.1], [0.3, 0.2]])
    other_groups = JointDistribution(("a", "b"), _CHOICES, p.cells)
    other_choices = JointDistribution(
        _GROUPS, ChoiceCategorySet("mode", ("fly", "swim")), p.cells
    )
    with pytest.raises(AxisMismatch):
        kld(p, other_groups)
    with pytest.raises(AxisMismatch):
        mae(p, other_choices)


# ----------------------------------------------------------------------
# EvaluationReport
# ----------------------------------------------------------------------


def test_report_means_and_csv_round_trip():
    report = EvaluationReport()
    report.add("primary_mode", 0.5, 0.01)
    report.add("duration_minutes", 0.3, 0.03)
    assert report.mean_kld == pytest.approx(0.4)
    assert report.mean_mae == pytest.approx(0.02)

    buf = io.StringIO()
    write_combined_csv(buf, {"chain": report})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "predictor,dimension,metric,value"
    assert lines[1].startswith("chain,primary_mode,kld,")
    assert lines[-2] == f"chain,mean,kld,{report.mean_kld!r}"
    assert lines[-1] == f"chain,mean,mae,{report.mean_mae!r}"
    # repr round-trips the float exactly
    assert float(lines[1].split(",")[3]) == 0.5


def test_report_summary_json():
    report = EvaluationReport()
    report.add("primary_mode", 0.5, 0.01)
    summary = report.summary()
    assert summary["dimensions"]["primary_mode"] == {"kld": 0.5, "mae": 0.01}
    assert summary["mean"]["kld"] == 0.5

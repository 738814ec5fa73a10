"""The summary rule of scripts/ab_pairs.py, on fixed numbers."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _pairs(base, change, name="pass_s"):
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


def test_clear_gain_holds():
    base = [0.80, 0.82, 0.84, 0.81, 0.83, 0.85, 0.79, 0.86, 0.80, 0.84]
    change = [0.35, 0.36, 0.34, 0.35, 0.37, 0.35, 0.36, 0.34, 0.35, 0.36]
    (row,) = ab_pairs.summarize(_pairs(base, change), [("pass_s", "lower")])
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["base"] == pytest.approx((0.825, 0.8025, 0.84))
    assert row["change"][0] == pytest.approx(0.35)
    assert row["holds"]


def test_more_failed_change_runs_do_not_hold():
    base = [0.80, 0.82, 0.84, 0.81, 0.83, 0.85, 0.79, 0.86, 0.80, 0.84]
    change = [0.35] * 10
    pairs, metrics = _pairs(base, change), [("pass_s", "lower")]
    (row,) = ab_pairs.summarize(pairs, metrics, failed=(0, 1))
    assert row["wins"] == 10 and not row["holds"]
    (row,) = ab_pairs.summarize(pairs, metrics, failed=(2, 2))
    assert row["holds"]


def test_eight_wins_of_ten_do_not_hold():
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5, 1.5]
    (row,) = ab_pairs.summarize(_pairs(base, change), [("pass_s", "lower")])
    assert row["wins"] == 8
    assert not row["holds"]


def test_gain_inside_the_base_spread_does_not_hold():
    # the change wins every pair, but by less than the base's q3 - q1
    base = [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]
    change = [b - 0.01 for b in base]
    (row,) = ab_pairs.summarize(_pairs(base, change), [("pass_s", "lower")])
    assert row["wins"] == 10
    assert row["base"][2] - row["base"][1] == pytest.approx(0.2)
    assert not row["holds"]


def test_ties_are_not_wins_and_higher_is_better_flips_the_sign():
    pairs = _pairs([2.0, 2.0, 3.0], [2.0, 1.0, 4.0], name="rank_per_row")
    (row,) = ab_pairs.summarize(pairs, [("rank_per_row", "higher")])
    assert row["wins"] == 1
    (row,) = ab_pairs.summarize(pairs, [("rank_per_row", "lower")])
    assert row["wins"] == 1


def test_format_rows_names_each_metric():
    rows = ab_pairs.summarize(
        [({"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 2.5})], [("a", "lower"), ("b", "lower")]
    )
    text = ab_pairs.format_rows(rows)
    assert text.splitlines()[1].startswith("a ") and "1/1" in text
    assert text.splitlines()[2].startswith("b ") and "0/1" in text


# bounds are fractions of the base median: 0.24 is 24% of it


def test_median_worse_by_more_than_the_bound_is_flagged():
    base = [0.80, 0.82, 0.84, 0.81, 0.83, 0.85, 0.79, 0.86, 0.80, 0.84]
    change = [b * 1.30 for b in base]
    (row,) = ab_pairs.summarize(_pairs(base, change), [("pass_s", "lower", 0.24)])
    assert row["change"][0] / row["base"][0] == pytest.approx(1.30)
    assert row["worse"]
    assert ab_pairs.format_rows([row]).splitlines()[1].endswith("WORSE")


def test_median_worse_by_less_than_the_bound_is_not_flagged():
    base = [0.80, 0.82, 0.84, 0.81, 0.83, 0.85, 0.79, 0.86, 0.80, 0.84]
    change = [b * 1.20 for b in base]
    (row,) = ab_pairs.summarize(_pairs(base, change), [("pass_s", "lower", 0.24)])
    assert row["wins"] == 0
    assert not row["worse"]
    assert ab_pairs.format_rows([row]).splitlines()[1].endswith("ok")


def test_bound_is_a_fraction_not_a_difference_in_the_unit():
    # 0.1 s worse on a 0.06 s median is far past a 0.24 bound, and 0.3 MB
    # worse on a 25 MB median is well within a 0.1 bound
    base = [0.058, 0.059, 0.060, 0.061, 0.062]
    (row,) = ab_pairs.summarize(_pairs(base, [b + 0.1 for b in base]), [("pass_s", "lower", 0.24)])
    assert row["worse"]
    base = [25.0, 25.1, 25.2, 25.1, 25.0]
    (row,) = ab_pairs.summarize(
        _pairs(base, [b + 0.3 for b in base], name="peak_rss_mb"), [("peak_rss_mb", "lower", 0.1)]
    )
    assert not row["worse"] and row["verdict"] == "ok"


def test_bound_on_a_higher_is_better_metric():
    base = [2.0, 2.1, 2.2, 2.0, 2.1]
    (row,) = ab_pairs.summarize(
        _pairs(base, [b * 0.7 for b in base], name="rank_per_row"),
        [("rank_per_row", "higher", 0.25)],
    )
    assert row["worse"]
    (row,) = ab_pairs.summarize(
        _pairs(base, [b + 0.5 for b in base], name="rank_per_row"),
        [("rank_per_row", "higher", 0.25)],
    )
    assert not row["worse"] and row["wins"] == 5


# a peak_rss_mb-like base whose (q3 - q1) / median (0.3 / 50.25, about 0.6%)
# is wider than a bound of 0.5%
_WIDE_BASE = [50.0, 50.4, 50.1, 50.5, 50.0, 50.4, 50.1, 50.5, 50.2, 50.3]


@pytest.mark.parametrize(
    "change, verdict",
    [
        # worse by more than the bound: WORSE, whatever the base's spread
        ([b + 0.5 for b in _WIDE_BASE], "WORSE"),
        # the same runs again: a shift within the bound cannot be told apart
        (list(_WIDE_BASE), "unresolved"),
        # every change run beats every base run: the spread does not matter
        ([49.5] * 10, "ok"),
    ],
    ids=["worse", "unresolved", "ok"],
)
def test_no_regression_verdict(change, verdict):
    metrics = [("peak_rss_mb", "lower", 0.005)]
    (row,) = ab_pairs.summarize(_pairs(_WIDE_BASE, change, name="peak_rss_mb"), metrics)
    assert (row["base"][2] - row["base"][1]) / row["base"][0] > 0.005
    assert row["verdict"] == verdict
    assert row["worse"] == (verdict == "WORSE")
    assert ab_pairs.format_rows([row]).splitlines()[1].endswith(verdict)

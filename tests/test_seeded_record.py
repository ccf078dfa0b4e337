"""Seeded results against the committed record (``seeded_record.txt``)."""

import seeded_record


def test_seeded_numbers_match_the_record():
    result = seeded_record.compare(seeded_record.compute(), seeded_record.load())
    print(result.summary())
    assert result.ok, result.summary()


def test_comparison_reports_deviation_and_exactness():
    want = {"a": [1.0, 2e6], "b": [0.0], "gone": [1.0]}
    got = {"a": [1.0, 2e6 * (1 + 5e-10)], "b": [3e-10], "new": [1.0]}
    result = seeded_record.compare(got, want)
    assert not result.exact and result.missing == ["gone"] and result.extra == ["new"]
    assert abs(result.deviations["a"] - 5e-10) < 1e-15 and result.deviations["b"] == 3e-10
    assert not result.ok  # the record and the code name different entries
    del want["gone"], got["new"]
    assert seeded_record.compare(got, want).ok
    got["b"] = [2e-9]
    assert not seeded_record.compare(got, want).ok
    got["b"] = [0.0, 0.0]
    assert seeded_record.compare(got, want).deviations["b"] is None
    assert seeded_record.compare(want, want).exact

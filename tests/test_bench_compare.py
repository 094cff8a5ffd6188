"""Summary arithmetic of the paired benchmark driver, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "bench" / "compare.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = [{"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _pairs(base, change):
    return [{"base": {"wall_s": b, "peak_rss_mb": 100.0},
             "change": {"wall_s": c, "peak_rss_mb": 120.0 if k else 100.0}}
            for k, (b, c) in enumerate(zip(base, change))]


def test_summary_medians_spread_wins_and_bounds():
    summary = _load().summarize(_pairs(range(10, 20), range(5, 15)), SPEC)
    wall = summary["wall_s"]
    assert (wall["base_q1"], wall["base_median"], wall["base_q3"]) == (12.25, 14.5, 16.75)
    assert wall["base_spread"] == 4.5 and wall["change_median"] == 9.5
    assert (wall["wins"], wall["losses"], wall["ties"]) == (10, 0, 0)
    assert wall["gain_shown"] and wall["within_bound"]
    assert wall["worse_over_bound"] == pytest.approx(-5.0 / 14.5 / 0.25)
    rss = summary["peak_rss_mb"]
    # one tie, nine losses, median 20% worse against a 10% bound
    assert (rss["wins"], rss["losses"], rss["ties"]) == (0, 9, 1)
    assert not rss["within_bound"] and not rss["gain_shown"]
    assert rss["worse_over_bound"] == pytest.approx(2.0)


def test_gain_needs_nine_tenths_and_more_than_the_spread():
    compare = _load()
    # eight wins of ten: not enough, however large the difference
    base, change = [10.0] * 10, [5.0] * 8 + [11.0] * 2
    assert not compare.summarize(_pairs(base, change), SPEC)["wall_s"]["gain_shown"]
    # every pair won, but by less than the base's quartile spread
    base = [float(v) for v in range(10, 20)]
    change = [v - 0.5 for v in base]
    wall = compare.summarize(_pairs(base, change), SPEC)["wall_s"]
    assert wall["wins"] == 10 and not wall["gain_shown"]


def test_summary_line_per_workload_and_seed():
    compare = _load()
    summary = compare.summarize(_pairs(range(10, 20), range(5, 15)), SPEC)
    line = compare.summary_line({"workload": "band-path", "seed": 104729,
                                 "summary": summary})
    assert line == (
        "band-path seed 104729: "
        "wall_s 14.5 -> 9.5 (10/0, within_bound True, gain_shown True); "
        "peak_rss_mb 100 -> 120 (0/9, within_bound False, gain_shown False)")


def _items(seconds, **outputs):
    return {"items": {name: {"median_s": s, "digest": None, **outputs.get(name, {})}
                      for name, s in seconds.items()}}


def test_item_summary_medians_and_identical_details():
    compare = _load()
    pairs = [{"base": _items({"pair": 2.0 + k, "cert": 1.0}, pair={"residual_s1": 3e-7}),
              "change": _items({"pair": 1.0 + k, "cert": 1.5}, pair={"residual_s1": 3e-7})}
             for k in range(5)]
    # one pair's change reports a different detail for cert, another a different digest
    pairs[3]["change"]["items"]["cert"]["certificate"] = 2.43
    items = compare.item_summary(pairs)
    assert items["pair"] == {"base_median_s": 4.0, "change_median_s": 3.0,
                             "details_identical": True}
    assert items["cert"] == {"base_median_s": 1.0, "change_median_s": 1.5,
                             "details_identical": False}
    pairs[3]["change"]["items"]["cert"].pop("certificate")
    assert compare.item_summary(pairs)["cert"]["details_identical"]
    pairs[0]["base"]["items"]["pair"]["digest"] = "d232de27"
    assert not compare.item_summary(pairs)["pair"]["details_identical"]
    # an item that only one side runs has no median on the other side
    pairs[1]["change"]["items"]["extra"] = {"median_s": 0.5, "digest": None}
    extra = compare.item_summary(pairs)["extra"]
    assert extra["base_median_s"] is None and not extra["details_identical"]
    lines = compare.item_lines({"items": compare.item_summary(pairs)})
    assert lines == ["  cert: median_s 1 -> 1.5 (details_identical True)",
                     "  extra: median_s missing -> missing (details_identical False)",
                     "  pair: median_s 4 -> 3 (details_identical False)"]


def test_item_summary_reports_how_far_numeric_details_moved():
    compare = _load()
    base = {"rhs_true": 1.1250708641261422, "ratio_flat": [1.272519823819568, 2.0],
            "status": "ok"}
    change = {"rhs_true": 1.1250708641261424, "ratio_flat": [1.2725198238195685, 2.0],
              "status": "ok"}
    pairs = [{"base": _items({"wind": 1.5, "poly": 1.0}, wind=base, poly={"err": 0.0}),
              "change": _items({"wind": 1.0, "poly": 1.0}, wind=dict(change),
                               poly={"err": 0.0})} for _ in range(3)]
    pairs[2]["change"]["items"]["wind"]["rhs_true"] = 1.0
    items = compare.item_summary(pairs)
    assert "max_rel_diff" not in items["poly"] and items["poly"]["details_identical"]
    wind = items["wind"]
    assert not wind["details_identical"]
    assert set(wind["max_rel_diff"]) == {"rhs_true", "ratio_flat"}
    # the largest over the pairs, relative to the larger magnitude
    moved = wind["max_rel_diff"]["rhs_true"]
    assert moved == pytest.approx(0.1250708641261424 / 1.1250708641261424)
    assert wind["max_rel_diff"]["ratio_flat"] == pytest.approx(4.4e-16 / 1.2725, rel=0.1)
    assert compare.item_lines({"items": {"wind": wind}}) == [
        "  wind: median_s 1.5 -> 1 (details_identical False; ratio_flat moved 3.49e-16; "
        "rhs_true moved 0.111)"]

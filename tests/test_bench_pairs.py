"""tools/bench_pairs.py on synthetic run.py result lines."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result_line(op_ms, items, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 5, "failed": failed,
                       "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"},
                                   "items_per_s": {"value": items,
                                                   "unit": "1/s"}}})


def write(directory, name, *lines):
    (directory / name).write_text("\n".join(("progress text",) + lines) + "\n")


def test_pairs_summarize_in_the_committed_layout(tmp_path):
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [60.0, 120.0, 50.0, 70.0, 65.0]
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        write(tmp_path, f"search-2-4-{seed}-parent.json", result_line(p, 1000 / p))
        write(tmp_path, f"search-2-4-{seed}-change.json", result_line(c, 1000 / c))
        write(tmp_path, f"pairs-mixed-{seed}-parent.json", result_line(1.0, 700))
        write(tmp_path, f"pairs-mixed-{seed}-change.json",
              result_line(1.0, 700, failed=seed == 2))
    # a seed run on one side only is not a pair
    write(tmp_path, "search-2-4-6-parent.json", result_line(1.0, 1.0))
    (tmp_path / "notes.txt").write_text("not a result")
    assert bench_pairs.main(["--label", "t", "--parent", "p0", "--change",
                             "c0", "--out-dir", str(tmp_path),
                             str(tmp_path)]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    # benchmark order, not file order
    assert list(out["workloads"]) == ["search-2-4", "pairs-mixed"]
    wl = out["workloads"]["search-2-4"]
    assert wl["pairs"] == 5 and wl["seeds"] == [1, 2, 3, 4, 5]
    assert wl["all_correct"] and wl["failed"] == {"parent": 0, "change": 0}
    assert wl["attempted"] == {"parent": 25, "change": 25}
    op = wl["metrics"]["op_ms_p50"]
    assert op["parent"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert op["change"] == {"median": 65.0, "q1": 60.0, "q3": 70.0}
    assert op["change_vs_parent_median"] == -0.35
    assert op["change_wins"] == 4 and op["better"] == "lower"
    assert op["parent_runs"] == parent and op["change_runs"] == change
    assert wl["metrics"]["items_per_s"]["change_wins"] == 4
    assert out["workloads"]["pairs-mixed"]["failed"] == {"parent": 0,
                                                         "change": 1}
    # 4 wins of 5 pairs are fewer than 9 of 10, though the change's median
    # is better by more than the parent's spread
    assert op["within_bound"] and not op["meets_claim_rule"]
    # the layout of the committed result files, verdicts included
    committed = json.loads((ROOT / "BENCH_pr28.json").read_text())
    assert out.keys() == committed.keys() - {"notes"}
    ref = committed["workloads"]["search-2-4"]
    assert wl.keys() == ref.keys()
    assert op.keys() == ref["metrics"]["op_ms_p50"].keys()
    # notes are listed only when given
    assert bench_pairs.main(["--label", "t", "--parent", "p0", "--change",
                             "c0", "--out-dir", str(tmp_path), "--note", "a",
                             "--note", "b c", str(tmp_path)]) == 0
    noted = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert noted["notes"] == ["a", "b c"]
    assert {k: v for k, v in noted.items() if k != "notes"} == out


def test_bad_result_line_is_a_one_line_error(tmp_path, capsys):
    write(tmp_path, "search-2-4-1-parent.json", "Traceback (most recent call)")
    assert bench_pairs.main(["--label", "t", "--parent", "p", "--change", "c",
                             str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: search-2-4-1-parent.json")
    assert err.count("\n") == 1
    assert not (ROOT / "BENCH_t.json").exists()


def pairs_dir(directory, parent, change):
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        write(directory, f"twist-5-3-{seed}-parent.json", result_line(p, 1000 / p))
        write(directory, f"twist-5-3-{seed}-change.json", result_line(c, 1000 / c))
    assert bench_pairs.main(["--label", "v", "--parent", "p", "--change", "c",
                             "--out-dir", str(directory), str(directory)]) == 0
    return json.loads((directory / "BENCH_v.json").read_text())[
        "workloads"]["twist-5-3"]["metrics"]


def test_verdicts_follow_the_bound_and_the_claim_rule(tmp_path):
    # within_bound: the change's median is worse than the parent's by at
    # most BENCHMARK.json's bound (0.20 for op_ms_p50 and items_per_s);
    # meets_claim_rule: at least 9 of 10 pairs won and a median better by
    # more than the parent's q3 - q1
    spec = {m["name"]: m for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert spec["op_ms_p50"]["bound"] == spec["items_per_s"]["bound"] == 0.2
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    # nine wins, median 85 against 100, parent quartiles 99-101
    out = pairs_dir(tmp_path, parent, [85.0] * 9 + [104.0])
    for name in ("op_ms_p50", "items_per_s"):
        assert out[name]["change_wins"] == 9
        assert out[name]["within_bound"] and out[name]["meets_claim_rule"]
    # eight wins are too few
    verdict = bench_pairs.verdicts
    change = [85.0] * 8 + [104.0, 104.0]
    assert verdict(parent, change, True, 0.2, 8) == {
        "within_bound": True, "meets_claim_rule": False}
    # ten wins, but the medians differ by less than the parent's spread
    wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    assert verdict(wide, [w - 1 for w in wide], True, 0.2, 10) == {
        "within_bound": True, "meets_claim_rule": False}
    # a change 25% slower is out of bound, 15% slower within it; a rate
    # (higher is better) 25% lower is out of bound, 15% lower within it
    rates = [1000 / p for p in parent]
    for slow, inside in ((0.25, False), (0.15, True)):
        assert verdict(parent, [p * (1 + slow) for p in parent], True,
                       0.2, 0) == {"within_bound": inside,
                                   "meets_claim_rule": False}
        assert verdict(rates, [r * (1 - slow) for r in rates], False,
                       0.2, 0) == {"within_bound": inside,
                                   "meets_claim_rule": False}
    # the same verdicts come out of a run of the script
    out = pairs_dir(tmp_path, parent, [p * 1.25 for p in parent])
    assert not out["op_ms_p50"]["within_bound"]
    assert not out["op_ms_p50"]["meets_claim_rule"]

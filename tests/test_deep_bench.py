"""The parent-against-change runner, tools/deep_bench.py, on one small pair."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_depth_four_pair_of_head_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "deep_bench.py"), "--out", str(out),
         "--parent", "HEAD", "--change", "HEAD", "--pairs", "1",
         "--run", "tree4", "--depth 4 tree", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    assert result["commits"] == {"parent": head, "change": head}
    assert result["src_lines"]["parent"] == result["src_lines"]["change"] > 0
    assert result["claim"] is None and result["workloads"] == {}
    entry = result["deep"]["tree4"]
    assert entry["command"] == "python3 -m markovj --depth 4 tree"
    (run,) = entry["runs"]
    assert (run["pair"], run["first"]) == (1, "parent")
    for side in ("parent", "change"):
        assert run[side]["rc"] == 0
        assert run[side]["wall_s"] > 0 and run[side]["cpu_s"] > 0
        # The child's own peak: the interpreter and markovj, not a copy of a larger parent.
        assert 5 < run[side]["peak_rss_mb"] < 100
        assert entry["median"][side]["peak_rss_mb"] == run[side]["peak_rss_mb"]
    assert set(entry["summary"]) == {"wall_s", "cpu_s", "peak_rss_mb"}
    assert result["imports"]["same"] and result["imports"]["count"]["parent"] > 0
    modules = result["imports"]["modules"]
    assert modules["parent"] == modules["change"] and "markovj.cli" in modules["parent"]
    assert len(modules["parent"]) == result["imports"]["count"]["parent"]
    # The copies of the two sides are removed.
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]

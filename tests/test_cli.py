import csv
import hashlib
import io
import json
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from markovj import cli
from markovj.cf import format_period
from markovj.cli import RunConfig, main
from markovj.tree import build_tree

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(depth=0)
        with pytest.raises(ValueError):
            RunConfig(tol=1e-3)
        with pytest.raises(ValueError):
            RunConfig(series_order=10)
        with pytest.raises(ValueError):
            RunConfig(series_order=1001)
        RunConfig(series_order=1000)
        with pytest.raises(ValueError):
            RunConfig(fmt="xml")


class TestTree:
    def test_depth_two(self, capsys):
        code, out, _ = run(capsys, "--depth", "2", "tree")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        fracs = {f"{r['p']}/{r['q']}" for r in rows}
        assert fracs == {"0/1", "1/2", "1/3", "1/4", "2/5"}
        by_frac = {f"{r['p']}/{r['q']}": r for r in rows}
        assert by_frac["1/3"]["period"] == "2,3,4"
        assert by_frac["1/4"]["period"] == "2,3_2,4"

    def test_json_depth_one(self, capsys):
        code, out, _ = run(capsys, "--depth", "1", "--format", "json", "tree")
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_invalid_depth(self, capsys):
        code, _, err = run(capsys, "--depth", "0", "tree")
        assert code == 2
        assert "depth" in err

    def test_depth_twelve_listing_unchanged(self, capsys):
        # SHA-256 of the listing, pinned so no change to the word
        # format can alter it.
        code, out, _ = run(capsys, "--depth", "12", "tree")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "78378a99ea1d36844206f9cf386c11b13e71d2f63ae94106f38ff1c213672f50")

    def test_texts_match_format_period_to_depth_twelve(self):
        nodes = build_tree(12)
        texts = cli._period_texts(nodes)
        assert len(texts) == len(nodes)
        for node in nodes:
            assert texts[node.path] == format_period(node.period), node.path

    def test_in_order_sort_is_fraction_sort(self):
        nodes = build_tree(12)
        random.Random(0).shuffle(nodes)
        got = [n.path for n in cli._sorted_by_fraction(nodes)]
        want = [n.path for n in sorted(nodes, key=lambda n: Fraction(n.farey.p, n.farey.q))]
        assert got == want
        assert (got[0], got[-1]) == ("0/1", "1/2")

    @pytest.mark.parametrize("depth", [1, 2, 8])
    def test_formats_only_unjoined_words(self, capsys, monkeypatch, depth):
        # The tips, the root and the branch from the left tip.
        calls = []

        def counting(period):
            calls.append(period)
            return format_period(period)

        monkeypatch.setattr(cli, "format_period", counting)
        code, _, _ = run(capsys, "--depth", str(depth), "tree")
        assert code == 0
        assert 0 < len(calls) <= depth + 3


class TestValue:
    def test_left_tip(self, capsys):
        code, out, _ = run(capsys, "value", "0/1")
        assert code == 0
        assert "1359.56741044" in out

    def test_published_row(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "value", "12/25")
        assert code == 0
        rec = json.loads(out)
        assert rec["j_re"].startswith("709.773605298")
        assert rec["j_im"].startswith("-0.033413159")

    def test_off_tree_fraction(self, capsys):
        code, _, err = run(capsys, "value", "3/5")
        assert code == 2
        assert "0/1" in err and "1/2" in err

    def test_series_order_too_high(self, capsys):
        # Past order ~3180 the coefficients overflow float64; the run is
        # refused up front with one line instead of a traceback.
        code, out, err = run(capsys, "--series-order", "3300", "value", "1/3")
        assert code == 2
        assert out == ""
        assert err == "error: series order must be in [20, 1000]\n"

    def test_path_target(self, capsys):
        code, out, _ = run(capsys, "value", "RL")
        assert code == 0
        assert "3/8" in out


class TestTable:
    def test_layout_and_order(self, capsys):
        code, out, _ = run(capsys, "--depth", "2", "--tol", "1e-8", "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "path,level,p,q,c,Jq_re,Jq_im,j_re,j_im,log_eps,quad_err"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["p"] == "0" and rows[-1]["p"] + "/" + rows[-1]["q"] == "1/2"
        assert float(rows[0]["Jq_re"]) == pytest.approx(1359.56741044, rel=1e-8)

    def test_warm_cache_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        args = ("--depth", "2", "--tol", "1e-8", "--cache", cache, "table")
        _, cold, _ = run(capsys, *args)
        cache_bytes = (tmp_path / "cache.jsonl").read_bytes()
        _, warm, _ = run(capsys, *args)
        assert warm == cold
        assert (tmp_path / "cache.jsonl").read_bytes() == cache_bytes

    def test_default_tol_at_depth_ten(self, capsys):
        # The adaptive rule's absolute per-panel tolerance raised here.
        code, out, err = run(capsys, "--depth", "10", "table")
        assert code == 0 and err == ""
        assert len(out.strip().splitlines()) == 1 + 2 + 2**10 - 1

    @pytest.fixture
    def computed(self, monkeypatch):
        """The nodes the cli computes instead of reading from the cache."""
        import markovj.cli as cli

        nodes = []
        compute = cli.compute_values

        def counting(missing, **kwargs):
            nodes.extend(missing)
            return compute(missing, **kwargs)

        monkeypatch.setattr(cli, "compute_values", counting)
        return nodes

    def test_cache_not_served_across_series_order(self, capsys, tmp_path, computed):
        cache = str(tmp_path / "cache.jsonl")
        run(capsys, "--depth", "2", "--series-order", "40", "--cache", cache, "table")
        computed.clear()
        _, warm, _ = run(capsys, "--depth", "2", "--series-order", "30",
                         "--cache", cache, "table")
        assert len(computed) == 5
        records = [json.loads(line) for line in Path(cache).read_text().splitlines()]
        assert {rec["series_order"] for rec in records} == {30}
        _, cold, _ = run(capsys, "--depth", "2", "--series-order", "30", "table")
        assert warm == cold

    def test_cache_not_served_across_tol(self, capsys, tmp_path, computed):
        cache = str(tmp_path / "cache.jsonl")
        run(capsys, "--depth", "2", "--tol", "1e-8", "--cache", cache, "table")
        computed.clear()
        run(capsys, "--depth", "2", "--tol", "1e-8", "--cache", cache, "table")
        assert computed == []
        run(capsys, "--depth", "2", "--tol", "1e-9", "--cache", cache, "table")
        assert len(computed) == 5

    def test_warm_run_does_not_rewrite_cache(self, capsys, tmp_path, monkeypatch):
        import markovj.cli as cli

        cache = str(tmp_path / "cache.jsonl")
        args = ("--depth", "2", "--tol", "1e-8", "--cache", cache, "table")
        run(capsys, *args)
        writes = []
        write = cli.write_cache

        def counting(values, path):
            writes.append(path)
            return write(values, path)

        monkeypatch.setattr(cli, "write_cache", counting)
        run(capsys, *args)
        assert writes == []

    def test_shallower_run_keeps_deeper_cache(self, capsys, tmp_path, computed):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "3", "--tol", "1e-8", "--cache", str(cache), "table")
        cache_bytes = cache.read_bytes()
        computed.clear()
        code, _, _ = run(capsys, "--depth", "2", "--tol", "1e-8", "--cache", str(cache), "table")
        assert code == 0 and computed == []
        assert cache.read_bytes() == cache_bytes

    def test_corrupted_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"schema": 0}\n')
        code, _, err = run(capsys, "--depth", "2", "--cache", str(cache), "table")
        assert code == 2
        assert "schema" in err

    @pytest.mark.parametrize("damage", ["root_without_q", "not_an_object", "without_J_re"])
    def test_malformed_cache_record_is_one_line(self, capsys, tmp_path, damage):
        # Each once printed a traceback: KeyError 'q', AttributeError,
        # KeyError 'J_re'.
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "2", "--cache", str(cache), "table")
        lines = cache.read_text().splitlines()
        rec = json.loads(lines[1])
        del rec["J_re"]
        lines[1] = {"root_without_q": '{"schema": 2, "path": ""}',
                    "not_an_object": "[1,2]",
                    "without_J_re": json.dumps(rec)}[damage]
        cache.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "--depth", "2", "--cache", str(cache), "table")
        assert code == 2 and out == ""
        assert err == f"error: {cache} line 2 is not a schema-2 cache record\n"

    def test_unwritable_cache_names_its_path(self, capsys, tmp_path):
        # Once named the temp file beside it, "<cache>.tmp".
        cache = tmp_path / "missing" / "x.jsonl"
        code, out, err = run(capsys, "--depth", "3", "--cache", str(cache), "table")
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{cache}'\n"

    @pytest.mark.parametrize("command", ["table", "interlace", "verify"])
    def test_unwritable_cache_refused_before_computing(self, capsys, tmp_path, computed,
                                                       command):
        cache = tmp_path / "missing" / "x.jsonl"
        code, out, err = run(capsys, "--depth", "3", "--cache", str(cache), command)
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{cache}'\n"
        assert computed == []
        assert list(tmp_path.iterdir()) == []


class TestFailures:
    def test_quadrature_error_is_one_line(self, capsys, monkeypatch):
        from markovj.integrals import ArcIntegrator, QuadratureError

        def failing(self, states, tol):
            raise QuadratureError("estimate 1 exceeds tol", 1.0)

        monkeypatch.setattr(ArcIntegrator, "integrate_states", failing)
        for argv, node in ((("--depth", "2", "table"), "0/1 (path '0/1')"),
                           (("value", "RL"), "3/8 (path 'RL')")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: estimate 1 exceeds tol at {node}\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tol_below_rounding_names_the_node(self, capsys, jobs):
        # With two jobs the error crosses the process pool.
        code, out, err = run(capsys, "--depth", "3", "--jobs", jobs,
                             "--tol", "1e-16", "table")
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: quadrature estimate \S+ exceeds tol 1e-16 "
                            r"relative to \|value\| = \S+ at 0/1 \(path '0/1'\)\n", err)


class TestRunSizes:
    def test_jobs_above_cpus_refused_before_any_pool(self, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for jobs in (cpus + 1, 10**6):
            code, out, err = run(capsys, "--depth", "3", "--jobs", str(jobs), "table")
            assert code == 2 and out == ""
            assert err == (f"error: jobs must be in [1, {cpus}], "
                           "the CPUs this process may use\n")

    def test_depth_above_eighteen_refused(self, capsys):
        for command in ("tree", "table", "interlace", "verify"):
            code, out, err = run(capsys, "--depth", "19", command)
            assert code == 2 and out == ""
            assert err == ("error: depth 19 exceeds 18: its words alone would "
                           "take over 1.7 GB\n")

    def test_asymptotics_builds_no_tree(self, capsys):
        code, out, _ = run(capsys, "--depth", "400", "asymptotics")
        assert code == 0
        assert "result: PASS" in out


class TestReports:
    def test_interlace(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--depth", "3", "--tol", "1e-8", "interlace")
        assert code == 0
        assert "result: PASS" in out

    def test_asymptotics_json(self, capsys):
        code, out, _ = run(capsys, "--depth", "20", "--format", "json", "asymptotics")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("depth", ["1", "2"])
    def test_asymptotics_shallow_depth(self, capsys, depth):
        # Only three or four denominators are <= depth + 2 here.
        code, out, _ = run(capsys, "--depth", depth, "asymptotics")
        assert code == 0
        assert "[PASS] ordering head" in out

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bounds", "--k0", "12")
        assert code == 0
        rec = json.loads(out)
        assert rec["re_delta_bound"] == pytest.approx(1.41173, abs=1e-3)

    def test_tree_fault_is_one_line_error(self, capsys, monkeypatch):
        from markovj import analysis

        monkeypatch.setattr(analysis, "_mat_mul", lambda A, B: ((0, 0), (0, 0)))
        code, _, err = run(capsys, "--depth", "4", "verify")
        assert code == 2
        assert err.startswith("error: matrix recursion fails at ")
        assert len(err.splitlines()) == 1

    def test_verify_small_depth(self, capsys):
        code, out, _ = run(capsys, "--depth", "3", "--tol", "1e-8", "verify")
        assert code == 0
        assert "verify: PASS" in out

    def test_verify_golden_depth_seven(self, capsys):
        code, out, _ = run(capsys, "--depth", "7", "verify")
        assert code == 0
        assert out == (DATA / "verify_depth7.txt").read_text()

    @pytest.mark.parametrize("command", ["verify", "interlace"])
    def test_one_tree_per_run(self, capsys, monkeypatch, command):
        from markovj import analysis, cli, tree

        calls = []
        build = tree.build_tree

        def counting(depth):
            calls.append(depth)
            return build(depth)

        for module in (tree, cli, analysis):
            monkeypatch.setattr(module, "build_tree", counting, raising=False)
        code, _, _ = run(capsys, "--depth", "5", command)
        assert code == 0
        assert calls == [5]

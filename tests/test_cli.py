import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import markovj
from markovj import analysis, cli, tree
from markovj.cf import format_period
from markovj.cli import main
from markovj.integrals import cached_value
from markovj.tree import build_tree, joins_neighbours, node_at, period_texts

DATA = Path(__file__).parent / "data"


def count_words(monkeypatch) -> list[tuple[int, int]]:
    """The p/q of every word the tree makes from here on."""
    made = []
    build = tree.markov_word

    def counting(p, q):
        made.append((p, q))
        return build(p, q)

    monkeypatch.setattr(tree, "markov_word", counting)
    return made


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, *argv) -> str:
    """The one stderr line of a run that exits 2 with nothing on stdout,
    whether main returns the code or argparse raises SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert len(out.err.splitlines()) == 1 and out.err.endswith("\n"), out.err
    assert out.err.startswith("error: "), out.err
    return out.err


@pytest.fixture
def computed(monkeypatch):
    """The nodes the cli computes instead of reading from the cache."""
    import markovj.integrals as integrals

    nodes = []
    compute = integrals.compute_values

    def counting(missing, **kwargs):
        nodes.extend(missing)
        return compute(missing, **kwargs)

    monkeypatch.setattr(integrals, "compute_values", counting)
    return nodes


class TestConfig:
    def test_validation(self, capsys):
        assert refused(capsys, "--depth", "0", "tree") == "error: depth must be >= 1\n"
        assert refused(capsys, "--tol", "1e-3", "tree") == "error: tol must be in (0, 1e-4]\n"
        assert "invalid choice: 'xml'" in refused(capsys, "--format", "xml", "tree")

    @pytest.mark.parametrize("argv", [
        ["--depth", "abc", "tree"],
        ["--format", "xml", "tree"],
        ["--tol", "x", "table"],
        ["--jobs", "x", "tree"],
        [],
        ["bogus"],
        ["value"],
        ["bounds", "--k0", "x"],
    ], ids=["depth_abc", "format_xml", "tol_x", "jobs_x", "no_command", "bogus_command",
            "value_no_target", "k0_x"])
    def test_parse_error_is_one_line(self, capsys, argv):
        # argparse's own refusals, the subcommands' included, print no
        # usage block.
        refused(capsys, *argv)


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

    def test_texts_match_format_period_to_depth_twelve(self, monkeypatch):
        nodes = build_tree(12)
        made = count_words(monkeypatch)
        # Each word is made once, from its own p/q.
        words = [node.period for node in nodes]
        assert made == [(node.p, node.q) for node in nodes]
        texts = list(period_texts(nodes))
        assert len(texts) == len(nodes)
        for node, word, text in zip(nodes, words, texts):
            assert text == format_period(word), node.path
        # One node on its own, the nodes out of order, and a subsequence
        # of new nodes in the order of p/q get the same words and texts.
        index = {node.path: i for i, node in enumerate(nodes)}
        for path in ("", "L", "R", "RL", "LRRLRL", "RLRLRLRLRLR"):
            node = node_at(path)
            assert node.period == words[index[path]], path
            assert list(period_texts([node])) == [texts[index[path]]], path
        assert [node.period for node in nodes[::-1]] == words[::-1]
        assert list(period_texts(nodes[::-1])) == texts[::-1]
        fresh = build_tree(12)[::7]
        assert [node.period for node in fresh] == words[::7]
        assert list(period_texts(fresh)) == texts[::7]

    def test_in_order_sort_is_fraction_sort(self):
        # build_tree walks the tree in order, which is the order of p/q.
        for depth in (1, 2, 12):
            fractions = [Fraction(n.p, n.q) for n in build_tree(depth)]
            assert len(fractions) == 2 ** depth + 1, depth
            assert all(a < b for a, b in zip(fractions, fractions[1:])), depth
            assert (fractions[0], fractions[-1]) == (0, Fraction(1, 2)), depth

    @pytest.mark.parametrize("depth", [1, 2, 8])
    def test_formats_only_unjoined_words(self, capsys, monkeypatch, depth):
        # The tips, the root and the branch from the left tip, once each.
        calls = []

        def counting(period):
            calls.append(period)
            return format_period(period)

        monkeypatch.setattr(tree, "format_period", counting)
        code, _, _ = run(capsys, "--depth", str(depth), "tree")
        assert code == 0
        assert len(calls) == depth + 2

    def test_lists_without_joining_a_word(self, capsys, monkeypatch):
        # Only the tips', the root's and the left branch's words are made.
        _, want, _ = run(capsys, "--depth", "8", "tree")
        made = count_words(monkeypatch)
        code, out, _ = run(capsys, "--depth", "8", "tree")
        assert (code, out) == (0, want)
        unjoined = [node for node in build_tree(8) if not joins_neighbours(node.left)]
        assert sorted(made) == sorted((node.p, node.q) for node in unjoined)
        assert len(made) == 8 + 2


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

    def test_series_order_is_not_a_flag(self, capsys):
        # Every order from 14 up gives the same values, so it is fixed.
        with pytest.raises(SystemExit) as exc:
            main(["--series-order=40", "value", "1/3"])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert out.err.endswith("error: unrecognized arguments: --series-order=40\n")

    def test_path_below_the_deepest_level(self, capsys):
        code, out, err = run(capsys, "value", "L" * 200)
        assert code == 2 and out == ""
        assert err == "error: a path of 200 steps reaches level 201, below the deepest level 200\n"

    def test_longest_word_meets_the_default_tol(self, capsys):
        # The zigzag node of level 18, q = MAX_Q = 10 946: its quadrature
        # bound, which grows with q, is still below 1e-10 relative.
        code, out, err = run(capsys, "value", "RL" * 8 + "R")
        assert (code, err) == (0, "")
        assert out.startswith("node      4181/10946  ")

    def test_word_longer_than_the_deepest_tree(self, capsys):
        code, out, err = run(capsys, "value", "RL" * 9)
        assert code == 2 and out == ""
        assert err.startswith("error: node ") and len(err.splitlines()) == 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python does not limit int-to-text conversion")
    def test_c_past_the_int_digit_limit(self, capsys):
        # c of 1 005 digits, over the lowest limit Python allows; admitted
        # nodes reach 4 570 digits (59/10946), over its default of 4 300.
        c = str(cli.node_at("RL" * 7).c)
        assert len(c) == 1005
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "value", "RL" * 7)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and err == ""
        assert f"c         {c}\n" in out

    def test_value_reads_and_fills_the_cache(self, capsys, tmp_path, computed):
        cache = tmp_path / "cache.jsonl"
        _, cold, _ = run(capsys, "value", "RL")
        computed.clear()
        code, out, _ = run(capsys, "--cache", str(cache), "value", "RL")
        assert (code, out) == (0, cold)
        assert [node.path for node in computed] == ["RL"]
        assert [json.loads(line)["path"] for line in cache.read_text().splitlines()] == ["RL"]
        cache_bytes = cache.read_bytes()
        computed.clear()
        code, out, _ = run(capsys, "--cache", str(cache), "value", "RL")
        assert (code, out, computed) == (0, cold, [])
        assert cache.read_bytes() == cache_bytes

    def test_path_target(self, capsys):
        code, out, _ = run(capsys, "value", "RL")
        assert code == 0
        assert "3/8" in out

    @pytest.mark.parametrize("target", ["1/3/4", "x/3", "1/"])
    def test_target_not_two_integers_refused(self, capsys, target):
        code, out, err = run(capsys, "value", target)
        assert code == 2 and out == ""
        assert err == f"error: cannot interpret {target!r} as p/q or an L/R path\n"


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

    def test_joins_each_joined_word_once(self, capsys, monkeypatch):
        # One word for each of the 65 nodes, made from its own p/q.
        made = count_words(monkeypatch)
        code, _, _ = run(capsys, "--depth", "6", "table")
        assert code == 0
        nodes = build_tree(6)
        assert len(made) == len(nodes) == 65
        assert sorted(made) == sorted((node.p, node.q) for node in nodes)

    def test_default_tol_at_depth_ten(self, capsys):
        # Every node to depth 10 has a quadrature bound below the default tol.
        code, out, err = run(capsys, "--depth", "10", "table")
        assert code == 0 and err == ""
        assert len(out.strip().splitlines()) == 1 + 2 + 2**10 - 1

    def test_cache_not_served_across_series_order(self, capsys, tmp_path, computed):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "2", "--cache", str(cache), "table")
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        records[2]["series_order"] = 30
        cache.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        computed.clear()
        _, warm, _ = run(capsys, "--depth", "2", "--cache", str(cache), "table")
        assert [node.path for node in computed] == [records[2]["path"]]
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        assert {rec["series_order"] for rec in records} == {40}
        _, cold, _ = run(capsys, "--depth", "2", "table")
        assert warm == cold

    def test_cache_served_across_tol(self, capsys, tmp_path, computed):
        # tol admits values and changes none, so it is not part of the key.
        cache = tmp_path / "cache.jsonl"
        _, cold, _ = run(capsys, "--depth", "2", "--tol", "1e-8", "--cache", str(cache), "table")
        cache_bytes = cache.read_bytes()
        computed.clear()
        code, warm, _ = run(capsys, "--depth", "2", "--tol", "1e-9", "--cache", str(cache),
                            "table")
        assert (code, warm, computed) == (0, cold, [])
        assert cache.read_bytes() == cache_bytes

    def test_cached_bound_above_tol_refused(self, capsys, tmp_path, computed):
        # A tol between the nodes' bounds: the records that meet it are
        # served, the others are recomputed, and integrate_J refuses the
        # first of them, naming it.
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "3", "--cache", str(cache), "table")
        cache_bytes = cache.read_bytes()
        records = {rec["path"]: rec for rec in map(json.loads, cache.read_text().splitlines())}
        rel = sorted(rec["quad_err"] / abs(complex(rec["J_re"], rec["J_im"]))
                     for rec in records.values())
        tol = (rel[4] + rel[5]) / 2
        over = [node for node in build_tree(3) if not records[node.path]["quad_err"]
                <= tol * abs(complex(records[node.path]["J_re"], records[node.path]["J_im"]))]
        assert 0 < len(over) < 9
        computed.clear()
        err = refused(capsys, "--depth", "3", "--tol", repr(tol), "--cache", str(cache), "table")
        assert re.fullmatch(rf"error: quadrature bound \S+ exceeds tol {tol:g} relative to "
                            rf"\|value\| = \S+ at {over[0].p}/{over[0].q} "
                            rf"\(path '{over[0].path}'\)\n", err)
        assert computed == over
        assert cache.read_bytes() == cache_bytes

    def test_serves_records_with_the_older_fields(self, capsys, tmp_path, computed):
        # Records of this schema once also held level, p, j, log eps and
        # the tol of the run that wrote them, 15 fields; they are served.
        cache = tmp_path / "cache.jsonl"
        _, cold, _ = run(capsys, "--depth", "2", "--cache", str(cache), "table")
        nodes = {node.path: node for node in build_tree(2)}
        lines = []
        for rec in map(json.loads, cache.read_text().splitlines()):
            node = nodes[rec["path"]]
            value = cached_value(rec, node, 1e-10)
            rec.update(level=node.level, p=node.p, j_re=value.j.real, j_im=value.j.imag,
                       log_eps=value.log_eps, tol=1e-10)
            assert len(rec) == 15
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
        cache.write_text("".join(lines))
        cache_bytes = cache.read_bytes()
        computed.clear()
        code, warm, _ = run(capsys, "--depth", "2", "--cache", str(cache), "table")
        assert (code, warm, computed) == (0, cold, [])
        assert cache.read_bytes() == cache_bytes

    def test_warm_run_does_not_rewrite_cache(self, capsys, tmp_path, monkeypatch):
        import markovj.integrals as integrals

        cache = str(tmp_path / "cache.jsonl")
        args = ("--depth", "2", "--tol", "1e-8", "--cache", cache, "table")
        run(capsys, *args)
        writes = []
        write = integrals.write_cache

        def counting(values, path):
            writes.append(path)
            return write(values, path)

        monkeypatch.setattr(integrals, "write_cache", counting)
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

    def test_rewrite_keeps_other_nodes_records(self, capsys, tmp_path, computed):
        # A rewrite once kept only the run's nodes: the depth-2 run left
        # 5 of 17 records, and the next depth-4 run recomputed 12.  The
        # depth-2 run's own records are dropped first, so it rewrites.
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "4", "--cache", str(cache), "table")
        before = cache.read_text().splitlines()
        assert len(before) == 17
        shallow = {node.path for node in build_tree(2)}
        kept = [line for line in before if json.loads(line)["path"] not in shallow]
        cache.write_text("".join(line + "\n" for line in kept))
        computed.clear()
        run(capsys, "--depth", "2", "--cache", str(cache), "table")
        assert {node.path for node in computed} == shallow
        after = cache.read_text().splitlines()
        assert len(after) == 17 and len(kept) == 12
        assert [line for line in after if json.loads(line)["path"] not in shallow] == kept
        computed.clear()
        run(capsys, "--depth", "4", "--cache", str(cache), "table")
        assert computed == []
        assert cache.read_text().splitlines() == before

    def test_symlinked_cache_written_through(self, capsys, tmp_path):
        # The rewrite once replaced the link with a regular file of 9
        # records and left the 5 of its target stale.
        real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        run(capsys, "--depth", "2", "--cache", str(real), "table")
        link.symlink_to(real.name)
        code, _, _ = run(capsys, "--depth", "3", "--cache", str(link), "table")
        assert code == 0 and link.is_symlink()
        assert len(real.read_text().splitlines()) == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]

    def test_cache_directory_refused_before_reading(self, capsys, tmp_path, computed):
        err = refused(capsys, "--depth", "2", "--cache", str(tmp_path), "table")
        assert err == f"error: cache {str(tmp_path)!r} is not a regular file\n"
        assert computed == [] and list(tmp_path.iterdir()) == []

    def test_cache_fifo_refused_without_reading(self, tmp_path):
        # Reading a FIFO with no writer once blocked the run for good.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        env = dict(os.environ, PYTHONPATH=str(Path(markovj.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "markovj", "--depth", "1", "--cache",
                               str(fifo), "table"], capture_output=True, text=True,
                              timeout=60, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: cache {str(fifo)!r} is not a regular file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

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

    @pytest.mark.parametrize("command", ["table", "verify"])
    def test_non_finite_cache_record_is_one_line(self, capsys, tmp_path, command):
        # A NaN value was once served: the table printed nan, and verify
        # passed without checking the node.
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "3", "--cache", str(cache), "table")
        lines = cache.read_text().splitlines()
        rec = json.loads(lines[0])  # the root's: records are in path order
        assert rec["path"] == ""
        rec["J_re"] = float("nan")
        lines[0] = json.dumps(rec)
        cache.write_text("\n".join(lines) + "\n")
        assert refused(capsys, "--depth", "3", "--cache", str(cache), command) == (
            f"error: {cache} line 1 is not a schema-2 cache record\n")

    @pytest.mark.parametrize("argv", [["value", "1/3"], ["table"], ["verify"]])
    def test_negative_error_bound_in_cache_is_one_line(self, capsys, tmp_path, argv):
        # value once served the root's record and printed "quad err  -1".
        cache = tmp_path / "cache.jsonl"
        run(capsys, "--depth", "2", "--cache", str(cache), "table")
        lines = cache.read_text().splitlines()
        rec = json.loads(lines[0])
        assert rec["path"] == ""
        rec["quad_err"] = -1.0
        lines[0] = json.dumps(rec)
        cache.write_text("\n".join(lines) + "\n")
        assert refused(capsys, "--depth", "2", "--cache", str(cache), *argv) == (
            f"error: {cache} line 1 is not a schema-2 cache record\n")

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


class TestRowWriter:
    """The rows as text, against csv.writer and the outputs it and json.dump wrote."""

    # Every character a field can hold: digits, period texts, L/R paths,
    # signs and exponents, and the letters of nan and inf.
    FIELD = st.text(alphabet="0123456789,_/-+.eLRnaif", max_size=12)
    HEADERS = [cli.CSV_HEADER, ["path", "level", "p", "q", "c", "period"]]

    @staticmethod
    def _written(header, rows, fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_rows(header, rows, fmt)
        return out.getvalue()

    @given(st.sampled_from(HEADERS), st.data())
    def test_csv_is_csv_writer_output(self, header, data):
        rows = data.draw(st.lists(st.lists(self.FIELD, min_size=len(header),
                                           max_size=len(header)), max_size=5))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert self._written(header, rows, "csv") == want.getvalue()

    @staticmethod
    def _dumped(header, rows):
        want = io.StringIO()
        json.dump([dict(zip(header, row)) for row in rows], want, indent=2)
        return want.getvalue() + "\n"

    @staticmethod
    def _tree_rows(depth):
        nodes = build_tree(depth)
        return [[n.path, str(n.level), str(n.p), str(n.q), str(n.c), text]
                for n, text in zip(nodes, period_texts(nodes))]

    @pytest.mark.parametrize("rows", [[], [["", "1", "1", "3", "5", "2,3,4"]], "depth 6"],
                             ids=["empty", "one_row", "depth_six"])
    def test_json_rows_are_written_as_they_arrive(self, rows):
        # Each row is on the output before the next is drawn, and the
        # output is what json.dump writes for the list of rows.
        header = self.HEADERS[1]
        rows = self._tree_rows(6) if rows == "depth 6" else rows
        out = io.StringIO()

        def drawn():
            for i, row in enumerate(rows):
                assert out.getvalue().count("{") == i
                yield row
            assert out.getvalue().count("{") == len(rows)

        with contextlib.redirect_stdout(out):
            cli._write_rows(header, drawn(), "json")
        assert out.getvalue() == self._dumped(header, rows)

    def test_json_tree_is_json_dump_output(self, capsys):
        code, out, err = run(capsys, "--format", "json", "--depth", "6", "tree")
        assert (code, err) == (0, "")
        assert out == self._dumped(self.HEADERS[1], self._tree_rows(6))

    @pytest.mark.parametrize("argv, sha", [
        (["--format", "json", "--depth", "3", "tree"],
         "ee73be0a85dab8e31c2e065478b0a65fc8a70cdf4427ee856ad1c3a0dbe0afee"),
        (["--format", "json", "--depth", "3", "table"],
         "2a072b12d0d4ea2ecc1923bdbd5e90b5206d3113df3952953d80fa98caf4c214"),
        (["--depth", "9", "table"],
         "10a818f3536743e3c58d17b5401ed98cff81288d4444c0df8a02adafd97c0eca"),
    ], ids=["json_tree", "json_table", "cold_table_depth_nine"])
    def test_output_unchanged(self, capsys, argv, sha):
        # SHA-256 of each output as the csv and json modules wrote it.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestFailures:
    def test_quadrature_error_is_one_line(self, capsys, monkeypatch):
        from markovj import integrals
        from markovj.cf import CycleStates, cycle_states

        def outside(word):
            states = cycle_states(word)
            return CycleStates(values=-states.values, conj_values=states.conj_values)

        monkeypatch.setattr(integrals, "cycle_states", outside)
        for argv, node in ((("--depth", "2", "table"), "0/1 (path '0/1')"),
                           (("value", "RL"), "3/8 (path 'RL')")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: cycle state outside the certified box at {node}\n"

    @pytest.mark.parametrize("jobs", ["1"])  # the only --jobs admitted
    def test_tol_below_rounding_names_the_node(self, capsys, jobs):
        code, out, err = run(capsys, "--depth", "3", "--jobs", jobs,
                             "--tol", "1e-16", "table")
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: quadrature bound \S+ exceeds tol 1e-16 "
                            r"relative to \|value\| = \S+ at 0/1 \(path '0/1'\)\n", err)


class TestRunSizes:
    @pytest.mark.parametrize("jobs", ["2", "0"])
    def test_jobs_other_than_one_refused_before_any_value(self, capsys, monkeypatch, jobs):
        import markovj.integrals as integrals

        def too_late(*args, **kwargs):
            raise AssertionError("a tree was built or a value computed")

        monkeypatch.setattr(integrals, "compute_values", too_late)
        monkeypatch.setattr(cli, "build_tree", too_late)
        code, out, err = run(capsys, "--depth", "3", "--jobs", jobs, "table")
        assert code == 2 and out == ""
        assert err == "error: jobs must be 1: values are computed in one process\n"

    def test_jobs_one_is_the_default(self, capsys):
        # The benchmark's command lines pass --jobs 1.
        _, with_jobs, _ = run(capsys, "--depth", "3", "--jobs", "1", "table")
        _, without, _ = run(capsys, "--depth", "3", "table")
        assert with_jobs == without

    def test_depth_above_eighteen_refused(self, capsys):
        for command in ("tree", "table", "interlace", "verify"):
            code, out, err = run(capsys, "--depth", "19", command)
            assert code == 2 and out == ""
            assert err == ("error: depth 19 exceeds 18: listing the 262145 nodes "
                           "of depth 18 takes 7-11 s and 185 MB\n")

    def test_asymptotics_depth_above_cap_refused_before_enumerating(self, capsys, monkeypatch):
        def no_enumeration(qmax):
            raise AssertionError("denominators enumerated")

        monkeypatch.setattr(analysis, "denominator_sequence", no_enumeration)
        cap = analysis.MAX_ASYMPTOTICS_DEPTH
        assert cap == 1200
        for depth in (cap + 1, 100_000):
            code, out, err = run(capsys, "--depth", str(depth), "asymptotics")
            assert code == 2 and out == ""
            assert err == (f"error: depth {depth} exceeds 1200, "
                           "the deepest asymptotics report\n")

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

    def test_bounds_default_k0(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        assert out.startswith(f"k0 = {analysis.CHAIN_K0}\n") and analysis.CHAIN_K0 == 12

    def test_bounds_k0_past_float_range(self, capsys):
        code, out, err = run(capsys, "bounds", "--k0", "1" + "0" * 400)
        assert code == 2 and out == ""
        assert err == "error: k0 must be at most 1.79769e+308, the largest float\n"
        code, out, _ = run(capsys, "bounds", "--k0", "100000000")
        assert code == 0
        assert "|Re delta|/q <= 0.00000\n" in out

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

    def test_verify_depth_one_names_no_node(self, capsys):
        # Once "max |delta|/bound over levels 2..1 at ''" and "holds from
        # level 2", over no node at all.
        code, out, _ = run(capsys, "--depth", "1", "verify")
        assert code == 0 and out.endswith("verify: PASS\n")
        lines = out.splitlines()
        assert lines[1] == "[PASS] exact recursions  measured=0  no node of level >= 2 checked"
        assert lines[5] == ("[PASS] componentwise betweenness  measured=0  bound=1e-06  "
                            "no node of level >= 2 checked")
        assert lines[9] == ("[PASS] |delta| within geometric bound  measured=0  bound=1  "
                            "margin=1  no node of level >= 2 checked")
        code, out, _ = run(capsys, "--format", "json", "--depth", "1", "verify")
        rec = json.loads(out)
        assert code == 0 and rec["passed"] is True
        assert [r["checks"][0]["details"] for r in rec["reports"][:3]] == [
            analysis.NONE_CHECKED, analysis.NONE_CHECKED, analysis.NONE_CHECKED]
        assert analysis.NONE_CHECKED == "no node of level >= 2 checked"

    @pytest.mark.parametrize("fail", [False, True], ids=["pass", "fail"])
    def test_verify_json(self, capsys, monkeypatch, fail):
        if fail:
            monkeypatch.setattr(analysis, "INTERLACE_HARD_TOL", -1.0)
        code, out, _ = run(capsys, "--format", "json", "--depth", "3", "verify")
        rec = json.loads(out)
        assert code == (1 if fail else 0)
        assert rec["passed"] is (code == 0)
        assert [r["title"] for r in rec["reports"]] == [
            "q recursions to depth 3",
            "interlacing to depth 3 (componentwise)",
            "local recursion errors to depth 3",
            "g/g' ranges on the state boxes",
            "coincidence bound to depth 3",
        ]
        assert [r["passed"] for r in rec["reports"]] == [True, not fail, True, True, True]
        assert rec["bound_chain"] == {"k0": analysis.CHAIN_K0, "consistent": True,
                                      "re_delta_bound": pytest.approx(1.41173, abs=1e-3)}

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


class TestFreshInterpreter:
    """Each command as the first thing a new interpreter runs.  Tests in
    this process have every layer loaded already, so only a child can
    show that a layer a command needs is imported when it runs.  PROBE
    prints the exit code and whether numpy, dataclasses and inspect
    (which dataclasses imports: about 12 ms of a start) were loaded;
    the records are plain classes and NamedTuples, so none of these
    commands loads the last two."""

    ENV = dict(os.environ, PYTHONPATH=str(Path(markovj.__file__).parents[1]))
    PROBE = ("import json, sys\n"
             "from markovj import cli\n"
             "try:\n"
             "    rc = cli.main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"
             "    rc = exc.code\n"
             "print(json.dumps([rc] + [name in sys.modules for name in "
             "('numpy', 'dataclasses', 'inspect')]), file=sys.stderr)\n")

    @pytest.mark.parametrize("argv, rc", [
        (["--depth", "3", "tree"], 0),
        (["--help"], 0),
        (["--depth", "0", "tree"], 2),
        (["--depth", "19", "tree"], 2),
        (["--depth", "3", "--jobs", "2", "table"], 2),
        (["--depth", "abc", "tree"], 2),
        (["--depth", "3", "asymptotics"], 0),
    ], ids=["tree", "help", "depth_0", "depth_19", "jobs_2", "depth_abc", "asymptotics"])
    def test_tree_and_refusals_load_no_numpy(self, argv, rc):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv], capture_output=True,
                              text=True, timeout=120, env=self.ENV)
        assert json.loads(proc.stderr.splitlines()[-1]) == [rc, False, False, False], proc.stderr

    @pytest.mark.parametrize("command", [["verify"], ["interlace"], ["bounds"], ["value", "RL"]],
                             ids=["verify", "interlace", "bounds", "value"])
    def test_warm_cache_commands_load_no_numpy(self, command, tmp_path):
        # numpy computes values; with every value in the cache, these
        # commands read them back and check them in plain Python.
        cache = str(tmp_path / "cache.jsonl")
        fill = subprocess.run([sys.executable, "-m", "markovj", "--depth", "5", "--cache", cache,
                               "table"], capture_output=True, timeout=120, env=self.ENV)
        assert fill.returncode == 0, fill.stderr
        proc = subprocess.run([sys.executable, "-c", self.PROBE, "--depth", "5", "--cache", cache,
                               *command], capture_output=True, text=True, timeout=120,
                              env=self.ENV)
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, False, False, False], proc.stderr

    @pytest.mark.parametrize("command", [["--depth", "3", "table"], ["value", "RL"]],
                             ids=["table", "value"])
    def test_cold_values_load_no_numpy_polynomial(self, command, tmp_path):
        # The rule's nodes and weights are built by Newton's method in
        # floats: computing values loads numpy, but not numpy.polynomial.
        probe = ("import sys\n"
                 "from markovj import cli\n"
                 "rc = cli.main(sys.argv[1:])\n"
                 "print(rc, 'numpy' in sys.modules, 'numpy.polynomial' in sys.modules, "
                 "file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", probe, "--cache",
                               str(tmp_path / "cache.jsonl"), *command],
                              capture_output=True, text=True, timeout=120, env=self.ENV)
        assert proc.stderr == "0 True False\n"

    def test_tree_loads_no_fractions(self):
        # fractions imports decimal: about 3 ms of every start.
        probe = ("import sys\n"
                 "from markovj import cli\n"
                 "rc = cli.main(sys.argv[1:])\n"
                 "print(rc, 'fractions' in sys.modules, 'decimal' in sys.modules, "
                 "file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", probe, "--depth", "3", "tree"],
                              capture_output=True, text=True, timeout=120, env=self.ENV)
        assert proc.stderr == "0 False False\n"

    @pytest.mark.parametrize("argv, sha", [
        (["--depth", "3", "table"],
         "eea2ab4134dc8f6c6c6bc8eabab35e21060bc98bf1c97d57c91ded6487d87fab"),
        (["--depth", "3", "verify"],
         "64d61b0d31eb54dde8939eaeccd9e68f963086bf8f2f0657d7194490783a9376"),
        (["value", "RL"], "e3e2c1c49522a69632a804b573a83c9ffd1d3fe0b1b27478aa3a2331bf481716"),
        (["bounds"], "435e7fe6b763bc4fe59ce9e615896c2dc576a562ab535dfd3bd5388f9a78ef51"),
    ], ids=["table", "verify", "value", "bounds"])
    def test_value_commands_load_their_layers(self, argv, sha):
        # SHA-256 of each output as it was when every layer loaded with
        # the package.
        proc = subprocess.run([sys.executable, "-m", "markovj", *argv], capture_output=True,
                              timeout=120, env=self.ENV)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == sha

    @pytest.mark.parametrize("argv, lines", [
        (["--depth", "12", "tree"], 1),
        (["--depth", "9", "table"], 1),
        (["--depth", "2", "tree"], 0),
    ], ids=["tree", "table", "reader_gone_before_output"])
    def test_closed_pipe_is_not_an_error(self, argv, lines):
        # The tree and the table are longer than a 64 KiB pipe holds, so the
        # child is still writing when the reader closes after the header
        # line; the short tree is still in the child's buffer, to be flushed
        # at the end, when the reader is gone.  stdout is block-buffered,
        # as it is unless PYTHONUNBUFFERED is set.
        env = {k: v for k, v in self.ENV.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "markovj", *argv], bufsize=0,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            head = [proc.stdout.readline() for _ in range(lines)]  # unbuffered: these only
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert all(line.startswith(b"path,level,p,q,c,") for line in head)
        assert (proc.returncode, err) == (1, b"")

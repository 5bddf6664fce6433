"""Command-line surface: spec strings, output formats, exit codes, cache."""

import json
import os
import subprocess
import sys

import pytest

import circreg
import circreg.cli as cli
import circreg.verify as verify
from circreg.cli import main, parse_graph_spec
from circreg.graphs import circulant, family_b, moebius


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGraphSpecs:
    def test_circulant_spec(self):
        assert parse_graph_spec("circulant:10:1,3") == circulant(10, {1, 3})

    def test_named_specs(self):
        assert parse_graph_spec("moebius:4") == moebius(4)
        assert parse_graph_spec("B:2") == family_b(2)

    def test_json_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(circulant(6, {1}).to_json_dict(), sort_keys=True))
        assert parse_graph_spec(str(path)) == circulant(6, {1})

    @pytest.mark.parametrize("bad", ["circulant:10", "wheel:4", "circulant:4:9", "A:x"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


class TestCommands:
    def test_gen_emits_sorted_json(self, capsys):
        code, out, _ = run(capsys, "gen", "circulant:4:1,2")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4 and len(data["edges"]) == 6

    def test_reg_k4(self, capsys):
        code, out, _ = run(capsys, "reg", "circulant:4:1,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"reg": 2, "pd": 2, "reg_quotient": 1, "pd_quotient": 3}

    def test_reg_zero_ideal(self, capsys):
        code, out, _ = run(capsys, "betti", "circulant:4:")
        assert code == 0
        assert "zero ideal" in out

    def test_betti_csv_and_json(self, capsys):
        code, out, _ = run(capsys, "betti", "circulant:4:1", "--nonzero")
        assert code == 0
        assert out.splitlines()[0] == "i,j,beta"
        assert "0,2,4" in out
        code, out, _ = run(capsys, "betti", "circulant:4:1", "--json")
        data = json.loads(out)
        assert data["reg"] == 2 and data["entries"][0] == [0, 2, 4]

    def test_euler_three_ways(self, capsys):
        code, out, _ = run(capsys, "euler", "circulant:10:1,5", "--json", "--field", "2", "--field", "Q")
        assert code == 0
        data = json.loads(out)
        assert data["f_vector"] == data["neg_indpoly"] == 1
        assert data["homology"] == {"2": 1, "Q": 1}
        assert data["agree"] is True

    def test_indpoly(self, capsys):
        code, out, _ = run(capsys, "indpoly", "moebius:3", "--json")
        assert json.loads(out) == {"coeffs": [1, 6, 6, 2]}
        code, out, _ = run(capsys, "indpoly", "moebius:3")
        assert out.strip() == "1 + 6x + 6x^2 + 2x^3"

    def test_formula_subcommands(self, capsys):
        assert run(capsys, "formula", "reg-hat-j", "8", "2", "--json")[1].strip() == '{"value": 3}'
        assert run(capsys, "formula", "reg-cubic", "5", "1", "--json")[1].strip() == '{"value": 4}'
        code, out, _ = run(capsys, "formula", "hoshino", "2", "--json")
        assert json.loads(out) == {"coeffs": [1, 4]}
        code, out, _ = run(capsys, "formula", "bounds", "A", "2", "--json")
        assert json.loads(out) == {"pd_bound": 4, "reg_bound": 3}

    def test_field_option(self, capsys):
        code, out, _ = run(capsys, "reg", "circulant:5:1", "--field", "Q", "--json")
        assert code == 0 and json.loads(out)["reg"] == 3

    @pytest.mark.parametrize(
        "suite, flags, params",
        [
            ("theorem1", ["--nmax", "5", "--field", "3"], {"nmax": 5, "field": "3"}),
            ("theorem2", ["--nmax", "3", "--field", "Q"], {"nmax": 3, "field": "Q"}),
            (
                "lemmas",
                ["--tmax", "2", "--nmax", "4", "--field", "3"],
                {"tmax": 2, "nmax": 4, "field": "3"},
            ),
            # hoshino takes no field, so an invalid one is not even parsed.
            ("hoshino", ["--nmax", "3", "--field", "6"], {"nmax": 3}),
            (
                "properties",
                ["--count", "2", "--seed", "9", "--nmax", "5", "--field", "Q"],
                {"count": 2, "seed": 9, "nmax": 5, "field": "Q"},
            ),
        ],
    )
    def test_verify_routes_flags_to_suite(self, capsys, suite, flags, params):
        code, out, _ = run(capsys, "verify", suite, "--json", "--workers", "3", *flags)
        assert code == 0
        assert json.loads(out)["params"] == params


class TestExitCodes:
    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "reg", "wheel:9")
        assert code == 2 and "unrecognized" in err

    def test_vertex_limit_exits_2(self, capsys):
        code, _, err = run(capsys, "reg", "circulant:12:1", "--limit-vertices", "10")
        assert code == 2 and "10" in err

    def test_vertex_limit_names_the_cli_flag(self, capsys):
        code, _, err = run(capsys, "reg", "circulant:22:1")
        assert code == 2
        assert "22 vertices" in err and "--limit-vertices" in err and "vertex_limit" not in err
        code, out, _ = run(capsys, "reg", "circulant:22:1", "--json")
        assert code == 2
        error = json.loads(out)["error"]
        assert "22 vertices" in error and "--limit-vertices" in error and "vertex_limit" not in error

    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 3, "edges": 5},
            {"n": True, "edges": []},
            {"n": 3, "edges": [[True, 2]]},
            # json.load recurses once per level and raises RecursionError
            pytest.param("[" * 100_000, id="deep_nesting"),
        ],
    )
    def test_bad_graph_json_exits_2(self, capsys, tmp_path, graph):
        path = tmp_path / "g.json"
        path.write_text(graph if isinstance(graph, str) else json.dumps(graph))
        code, _, err = run(capsys, "gen", str(path))
        assert code == 2 and "bad graph JSON" in err

    def test_json_error_payload(self, capsys):
        code, out, _ = run(capsys, "reg", "wheel:9", "--json")
        assert code == 2
        assert "error" in json.loads(out)

    def test_verify_pass_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "hoshino", "--nmax", "4")
        assert code == 0 and "passed" in out

    def test_verify_mismatch_exits_1(self, capsys, monkeypatch):
        def fake(name, **kwargs):
            return {
                "suite": name,
                "params": {},
                "instances": [{"inputs": {"n": 1}, "pass": False}],
                "summary": {"total": 1, "passed": 0, "failed": 1},
                "ok": False,
            }

        monkeypatch.setattr(cli, "run_suite", fake)
        code, out, _ = run(capsys, "verify", "hoshino")
        assert code == 1 and "FAIL" in out

    def test_verify_bad_field_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem1", "--field", "6")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "theorem1", "--nmax", "3"),
            ("verify", "theorem2", "--nmax", "1"),
            ("verify", "hoshino", "--nmax", "0"),
            ("verify", "properties", "--count", "0"),
        ],
    )
    def test_verify_bad_range_exits_2(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


    @pytest.mark.parametrize(
        "argv, vertices",
        [
            (("verify", "theorem1", "--nmax", "21"), 21),
            (("verify", "theorem2", "--nmax", "11"), 22),
            (("verify", "lemmas", "--tmax", "9"), 22),
            (("verify", "lemmas", "--nmax", "11"), 22),
            (("verify", "properties", "--nmax", "21"), 21),
        ],
    )
    def test_verify_over_vertex_limit_exits_2_before_sweeping(self, capsys, monkeypatch, argv, vertices):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept a graph before refusing the suite")

        monkeypatch.setattr(verify, "hochster_betti_table", no_sweep)
        monkeypatch.setattr(verify, "induced_betti_tables", no_sweep)
        monkeypatch.setattr(verify, "chi_report", no_sweep)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        error = json.loads(out)["error"]
        assert f"{vertices} vertices" in error and "20" in error
        assert "vertex_limit" not in error


class TestCacheAndDeterminism:
    def test_cache_hit_equals_cold(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold, _ = run(capsys, "betti", "moebius:4", "--json", "--cache", cache)
        _, warm, _ = run(capsys, "betti", "moebius:4", "--json", "--cache", cache)
        _, nocache, _ = run(capsys, "betti", "moebius:4", "--json", "--cache", cache, "--no-cache")
        assert cold == warm == nocache
        assert list((tmp_path / "cache").iterdir())

    def test_truncated_cache_entry_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _, cold, _ = run(capsys, "betti", "circulant:8:1,4", "--json", "--cache", str(cache))
        (entry,) = cache.iterdir()
        entry.write_text(entry.read_text()[:20])
        code, warm, _ = run(capsys, "betti", "circulant:8:1,4", "--json", "--cache", str(cache))
        assert code == 0 and warm == cold
        assert list(cache.iterdir()) == [entry]
        assert json.loads(entry.read_text()) == json.loads(cold)

    def test_deeply_nested_cache_entry_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _, cold, _ = run(capsys, "betti", "circulant:8:1,4", "--json", "--cache", str(cache))
        (entry,) = cache.iterdir()
        entry.write_text("[" * 100_000)
        code, warm, _ = run(capsys, "betti", "circulant:8:1,4", "--json", "--cache", str(cache))
        assert code == 0 and warm == cold
        assert json.loads(entry.read_text()) == json.loads(cold)

    def test_tampered_cache_entry_is_not_served(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _, cold, _ = run(capsys, "reg", "circulant:8:1,4", "--json", "--cache", str(cache))
        (entry,) = cache.iterdir()
        data = json.loads(entry.read_text())
        data["entries"] = [[0, 2, 999], [1, 8, 1]]
        entry.write_text(json.dumps(data))
        code, warm, _ = run(capsys, "reg", "circulant:8:1,4", "--json", "--cache", str(cache))
        assert code == 0 and warm == cold
        assert json.loads(cold)["reg"] == 3

    def _tamper(self, capsys, monkeypatch, tmp_path, command, spec, edit):
        """The output of *command* on a cold cache, and after *edit* has
        rewritten the stored table's JSON dict in place.  The untouched
        entry must be served without a sweep."""
        cache = str(tmp_path / "cache")
        _, cold, _ = run(capsys, command, spec, "--json", "--cache", cache)
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept a graph whose table is cached")

        with monkeypatch.context() as m:
            m.setattr(cli, "hochster_betti_table", no_sweep)
            assert run(capsys, command, spec, "--json", "--cache", cache) == (0, cold, "")
        (entry,) = (tmp_path / "cache").iterdir()
        data = json.loads(entry.read_text())
        edit(data)
        entry.write_text(json.dumps(data))
        code, warm, _ = run(capsys, command, spec, "--json", "--cache", cache)
        assert code == 0
        return cold, warm

    def test_planted_entry_of_an_edgeless_graph_is_recomputed(self, capsys, monkeypatch, tmp_path):
        spec = tmp_path / "e3.json"
        spec.write_text(json.dumps({"n": 3, "edges": []}))
        cold, warm = self._tamper(
            capsys, monkeypatch, tmp_path, "betti", str(spec), lambda d: d["entries"].append([1, 3, 7])
        )
        assert warm == cold
        assert json.loads(cold)["entries"] == []

    def test_added_cell_beyond_n_is_recomputed(self, capsys, monkeypatch, tmp_path):
        cold, warm = self._tamper(
            capsys, monkeypatch, tmp_path, "reg", "circulant:8:1,4", lambda d: d["entries"].append([6, 9, 1])
        )
        assert warm == cold
        assert json.loads(cold)["pd"] == 5

    def test_changed_betti_number_is_recomputed(self, capsys, monkeypatch, tmp_path):
        def bump(d):
            cell = d["entries"].index([1, 3, 24])
            d["entries"][cell] = [1, 3, 25]

        cold, warm = self._tamper(capsys, monkeypatch, tmp_path, "betti", "circulant:8:1,4", bump)
        assert warm == cold
        assert [1, 3, 24] in json.loads(cold)["entries"]

    def test_cell_moved_within_its_column_is_recomputed(self, capsys, monkeypatch, tmp_path):
        # (1,3) -> (3,3) keeps every column's alternating sum, so only the
        # shape i + 2 <= j <= 2i + 2 of an edge ideal's table rejects it.
        def move(d):
            cell = d["entries"].index([1, 3, 24])
            d["entries"][cell] = [3, 3, 24]

        cold, warm = self._tamper(capsys, monkeypatch, tmp_path, "betti", "circulant:8:1,4", move)
        assert warm == cold
        assert [1, 3, 24] in json.loads(cold)["entries"]

    def test_non_integer_betti_number_is_recomputed(self, capsys, monkeypatch, tmp_path):
        def stringify(d):
            cell = d["entries"].index([1, 3, 24])
            d["entries"][cell] = [1, 3, "24"]

        cold, warm = self._tamper(capsys, monkeypatch, tmp_path, "betti", "circulant:8:1,4", stringify)
        assert warm == cold

    @pytest.mark.parametrize(
        "cell, n", [([1, 3, 24.0], 8), ([True, 3, 24], 8), ([1, 3, 24], 8.0)], ids=["float-beta", "bool-i", "float-n"]
    )
    def test_float_or_boolean_in_entry_is_recomputed(self, capsys, monkeypatch, tmp_path, cell, n):
        # In JSON 24.0 == 24 and true == 1, so the table's checks alone pass them.
        def retype(d):
            d["entries"][d["entries"].index([1, 3, 24])] = cell
            d["n"] = n

        cold, warm = self._tamper(capsys, monkeypatch, tmp_path, "betti", "circulant:8:1,4", retype)
        assert warm == cold

    def test_cache_path_that_is_a_file_exits_2(self, capsys, tmp_path):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        code, out, _ = run(capsys, "betti", "moebius:3", "--json", "--cache", str(not_a_dir))
        assert code == 2
        assert "cache" in json.loads(out)["error"]

    def test_workers_byte_identical(self, capsys):
        _, a, _ = run(capsys, "betti", "moebius:5", "--json", "--workers", "1")
        _, b, _ = run(capsys, "betti", "moebius:5", "--json", "--workers", "8")
        assert a == b

    def test_verify_reports_deterministic(self, capsys):
        def normalize(text):
            data = json.loads(text)
            for rec in data["instances"]:
                rec.pop("wall_ms", None)
            return data

        _, a, _ = run(capsys, "verify", "theorem1", "--nmax", "7", "--json", "--workers", "1")
        _, b, _ = run(capsys, "verify", "theorem1", "--nmax", "7", "--json", "--workers", "2")
        assert normalize(a) == normalize(b)

    def test_properties_seeded_reproducible(self, capsys):
        _, a, _ = run(capsys, "verify", "properties", "--count", "5", "--seed", "9", "--json")
        _, b, _ = run(capsys, "verify", "properties", "--count", "5", "--seed", "9", "--json")

        def normalize(text):
            data = json.loads(text)
            for rec in data["instances"]:
                rec.pop("wall_ms", None)
            return data

        assert normalize(a) == normalize(b)


def test_import_loads_no_process_pool():
    # The sweep is serial, so no CLI start should pay for importing a
    # process pool.
    probe = (
        "import sys, circreg, circreg.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(circreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"

"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph.io import write_edge_list
from repro.graph.generators import road_network


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.command == "stats"
        assert args.scale == 0.5

    def test_query_parsing(self):
        args = build_parser().parse_args(
            ["query", "3", "9", "--fail", "1,2", "--fail", "4,5"]
        )
        assert args.source == 3
        assert args.target == 9
        assert args.fail == ["1,2", "4,5"]

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestMain:
    def test_stats(self, capsys):
        assert main(["stats", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "NY" in out

    def test_query_on_dataset(self, capsys):
        code = main(
            [
                "query", "0", "50",
                "--dataset", "NY",
                "--scale", "0.2",
                "--oracle", "diso",
                "--fail", "0,1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distance" in out
        assert "DISO" in out

    def test_query_on_file(self, tmp_path, capsys):
        graph = road_network(6, 6, seed=1)
        path = tmp_path / "g.tsv"
        write_edge_list(graph, path)
        code = main(
            ["query", "0", "35", "--graph-file", str(path), "--tau", "2"]
        )
        assert code == 0
        assert "reachable     : True" in capsys.readouterr().out

    def test_query_dijkstra_oracle(self, capsys):
        code = main(
            ["query", "0", "10", "--dataset", "NY", "--scale", "0.2",
             "--oracle", "dijkstra"]
        )
        assert code == 0
        assert "DI" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_experiment_table6(self, capsys):
        assert main(["experiment", "table6", "--scale", "0.2"]) == 0
        assert "Index size" in capsys.readouterr().out

    def test_experiment_theta(self, capsys):
        code = main(
            ["experiment", "theta", "--scale", "0.2", "--queries", "3"]
        )
        assert code == 0
        assert "theta" in capsys.readouterr().out

    def test_build_and_query_with_index(self, tmp_path, capsys):
        index = tmp_path / "index.json"
        code = main(
            [
                "build", str(index),
                "--dataset", "NY",
                "--scale", "0.2",
                "--tau", "3",
            ]
        )
        assert code == 0
        assert index.exists()
        capsys.readouterr()
        code = main(
            ["query", "0", "40", "--index-file", str(index), "--fail", "0,1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distance" in out

    def test_malformed_fail_flag(self):
        with pytest.raises(SystemExit):
            main(
                ["query", "0", "1", "--dataset", "NY", "--scale", "0.2",
                 "--fail", "nonsense"]
            )
        with pytest.raises(SystemExit):
            main(
                ["query", "0", "1", "--dataset", "NY", "--scale", "0.2",
                 "--fail", "a,b"]
            )

    def test_query_dimacs_graph_file(self, tmp_path, capsys):
        from repro.graph.io import write_dimacs

        graph = road_network(6, 6, seed=1)
        path = tmp_path / "g.gr"
        write_dimacs(graph, path)
        code = main(
            ["query", "0", "35", "--graph-file", str(path),
             "--format", "dimacs", "--tau", "2"]
        )
        assert code == 0
        assert "distance" in capsys.readouterr().out

    def test_experiment_replay(self, capsys):
        code = main(
            ["experiment", "replay", "--scale", "0.2", "--queries", "4"]
        )
        assert code == 0
        assert "DSO (DISO)" in capsys.readouterr().out

    def test_build_adiso(self, tmp_path, capsys):
        index = tmp_path / "adiso.json"
        code = main(
            [
                "build", str(index),
                "--oracle", "adiso",
                "--dataset", "NY",
                "--scale", "0.2",
            ]
        )
        assert code == 0
        assert "ADISO" in capsys.readouterr().out


class TestServingCommands:
    def test_snapshot_then_serve_bench(self, tmp_path, capsys):
        snap = tmp_path / "ny.dsosnap"
        code = main(
            ["snapshot", str(snap), "--dataset", "NY", "--scale", "0.1",
             "--tau", "3"]
        )
        assert code == 0
        assert snap.exists()
        out = capsys.readouterr().out
        assert "engine        : FrozenDISO" in out
        assert "sections" in out

        code = main(
            ["serve-bench", str(snap), "--workers", "1,2", "--queries", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seq" in out
        assert "speedup" in out

    def test_snapshot_adiso(self, tmp_path, capsys):
        snap = tmp_path / "ny-adiso.dsosnap"
        code = main(
            ["snapshot", str(snap), "--dataset", "NY", "--scale", "0.1",
             "--oracle", "adiso", "--tau", "3"]
        )
        assert code == 0
        assert "FrozenADISO" in capsys.readouterr().out

    def test_serve_bench_zipf_cached(self, tmp_path, capsys):
        snap = tmp_path / "ny-cache.dsosnap"
        main(
            ["snapshot", str(snap), "--dataset", "NY", "--scale", "0.1",
             "--tau", "3"]
        )
        capsys.readouterr()
        code = main(
            ["serve-bench", str(snap), "--workers", "1", "--queries", "60",
             "--workload", "zipf", "--cache-size", "256"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "zipf workload" in out
        assert "cache     : 256 entries" in out
        assert "hit%" in out
        # Zipf repeats pairs within one batch: the dedup stage alone
        # guarantees a non-zero hit count on the very first run.
        row = next(
            line for line in out.splitlines()
            if line.strip().startswith("1 ")
        )
        assert float(row.split()[7].rstrip("%")) > 0.0

    def test_serve_bench_rejects_bad_workers(self, tmp_path):
        snap = tmp_path / "x.dsosnap"
        main(
            ["snapshot", str(snap), "--dataset", "NY", "--scale", "0.1",
             "--tau", "3"]
        )
        with pytest.raises(SystemExit):
            main(["serve-bench", str(snap), "--workers", "zero"])
        with pytest.raises(SystemExit):
            main(["serve-bench", str(snap), "--workers", "0"])

    def test_build_boosted_families(self, tmp_path, capsys):
        for name in ("diso-s", "adiso-p"):
            index = tmp_path / f"{name}.json"
            code = main(
                ["build", str(index), "--oracle", name, "--dataset", "NY",
                 "--scale", "0.1", "--tau", "3"]
            )
            assert code == 0
            assert index.exists()
        capsys.readouterr()
        code = main(
            ["query", "0", "20", "--index-file", str(tmp_path / "diso-s.json")]
        )
        assert code == 0
        assert "DISO-S" in capsys.readouterr().out


class TestLint:
    def test_lint_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert args.output_format == "text"

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("rows = [1, 2, 3]\n", encoding="utf-8")
        assert main(["lint", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_lint_dirty_file_exits_one(self, tmp_path, capsys):
        dirty = tmp_path / "src" / "repro" / "oracle"
        dirty.mkdir(parents=True)
        target = dirty / "dirty.py"
        target.write_text(
            "rows = [n for n in set(values)]\n", encoding="utf-8"
        )
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "DSO101" in out

    def test_lint_json_output_file(self, tmp_path, capsys):
        import json as json_module

        dirty = tmp_path / "src" / "repro" / "oracle"
        dirty.mkdir(parents=True)
        (dirty / "dirty.py").write_text(
            "bad = answer == QUERY_ERROR\n", encoding="utf-8"
        )
        report_path = tmp_path / "lint.json"
        code = main(
            ["lint", str(dirty), "--format", "json",
             "--output", str(report_path)]
        )
        assert code == 1
        capsys.readouterr()
        payload = json_module.loads(
            report_path.read_text(encoding="utf-8")
        )
        assert payload["findings"][0]["rule"] == "DSO301"

    def test_lint_show_suppressed(self, tmp_path, capsys):
        source = (
            "rows = [n for n in set(values)]"
            "  # dsolint: disable=DSO101 -- fixture justification\n"
        )
        scoped = tmp_path / "src" / "repro" / "oracle"
        scoped.mkdir(parents=True)
        (scoped / "waived.py").write_text(source, encoding="utf-8")
        assert main(["lint", str(scoped), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "fixture justification" in out

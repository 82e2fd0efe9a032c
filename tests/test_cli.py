import csv
import io
import json

import pytest
from click.testing import CliRunner

from alteration_lab.cli import main
from alteration_lab.graphs import Graph, UniformHypergraph, complete_graph, complete_uniform
from alteration_lab.randomness import RandomSource, sample_gnp


def invoke(*args):
    runner = CliRunner()
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def write_host(tmp_path, n=12, p=0.4, seed=3):
    g = sample_gnp(n, p, RandomSource(seed).stream("host"))
    path = tmp_path / "host.txt"
    path.write_text(g.to_text())
    return path, g


def test_density_command():
    out = json.loads(invoke("density", "K3"))
    assert out["value"] == "2" and out["strictly_balanced"]


def test_density_core_and_csv():
    out = json.loads(invoke("density", "C5", "--core"))
    assert out["minimal_core"]["m"] == 5
    csv_out = invoke("density", "K4", "--format", "csv")
    assert csv_out.startswith("key,value")


def test_csv_summary_is_the_written_summary(tmp_path):
    out = tmp_path / "out"
    args = ("witness", "--pattern", "K3", "--k", 12, "--n", 12, "--p", 0.4, "--delta", 1.0)
    stdout = invoke(*args, "--format", "csv", "--out", out)
    rows = list(csv.reader(io.StringIO(stdout)))
    with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
        assert rows == list(csv.reader(fh))
    assert ["pattern", json.dumps(complete_graph(3).to_json_obj(), sort_keys=True)] in rows


def test_density_hypergraph_pattern():
    out = json.loads(invoke("density", "K4r3"))
    assert out["uniformity"] == 3 and out["value"] == "3"


def test_copies_command(tmp_path):
    path, _ = write_host(tmp_path)
    out = json.loads(invoke("copies", path, "--pattern", "K3", "--k-set", "0,1,2,3,4"))
    assert "copies" in out and out["k_reports"][0]["bound_holds"]


def test_alter_command_round_trip(tmp_path):
    path, g = write_host(tmp_path)
    text = invoke("alter", path, "--pattern", "K3", "--method", "refined")
    altered = Graph.from_text(text)
    assert altered.edge_set <= g.edge_set

    out_file = tmp_path / "out.txt"
    summary = json.loads(
        invoke("alter", path, "--pattern", "K3", "--method", "disjoint-collection", "--out", out_file)
    )
    assert out_file.exists()
    assert summary["method"] == "disjoint-collection"
    assert summary["kept"] == Graph.from_text(out_file.read_text()).num_edges

    greedy_text = invoke(
        "alter", path, "--pattern", "K3", "--method", "greedy", "--order", "random", "--seed", 5
    )
    assert Graph.from_text(greedy_text).edge_set <= g.edge_set


def test_alpha_command(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    out = json.loads(invoke("alpha", path))
    assert out["alpha"] == 2 and out["exact"]


def test_certify_command(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    out = json.loads(invoke("certify", path, "--pattern", "K3", "--k", 3))
    assert out["holds"] and out["status"] == "certified"


def test_concentration_command_with_outputs(tmp_path):
    out_dir = tmp_path / "results"
    out = json.loads(
        invoke(
            "concentration",
            "--pattern", "K3", "--k", 6, "--C", 0.5, "--c", 8,
            "--trials", 4, "--k-samples", 4, "--seed", 2, "--out", out_dir,
        )
    )
    assert "freq_y_ok" in out
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "trials.jsonl").exists()
    lines = (out_dir / "trials.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4


def test_lemma5_command():
    out = json.loads(
        invoke("lemma5", "--pattern", "K3", "--k", 40, "--C", 4, "--c", 0.2, "--trials", 5, "--seed", 3)
    )
    assert out["identity_violations"] == 0


def test_tail_command(tmp_path):
    out_dir = tmp_path / "tail"
    out = json.loads(
        invoke("tail", "--n", 10, "--p", 0.3, "--trials", 500, "--seed", 1, "--out", out_dir)
    )
    assert out["members"] == 36
    assert (out_dir / "plot.csv").exists()


def test_tail_command_explicit_grid():
    out = json.loads(
        invoke("tail", "--n", 10, "--p", 0.3, "--trials", 300, "--seed", 2, "--x", 3, "--x", 4)
    )
    assert out["grid"] == [3, 4]


def test_witness_command():
    out = json.loads(invoke("witness", "--pattern", "K3", "--k", 12, "--n", 12, "--p", 0.4, "--delta", 1.0))
    assert out["holds"]


def test_ramsey_search_command():
    out = json.loads(
        invoke("ramsey-search", "--pattern", "K3", "--k", 3, "--C", 1.4, "--c", 0.7, "--trials", 40, "--seed", 11)
    )
    assert out["found"] and out["best"]["n"] == 5


def test_rps_command():
    out = json.loads(
        invoke("rps", "--pattern", "K3", "--k", 6, "--n", 10, "--p", 0.4, "--trials", 3, "--seed", 4)
    )
    assert out["mode"] == "rps"


def test_builder_game_command():
    out = json.loads(
        invoke(
            "builder-game", "--pattern", "K3", "--k", 9, "--n", 16, "--p", 0.5,
            "--trials", 3, "--seed", 4, "--builder", "pump",
        )
    )
    assert out["red_core_violations"] == 0


def test_pattern_flag_accepts_files(tmp_path):
    pattern_file = tmp_path / "pattern.txt"
    pattern_file.write_text(complete_pattern_text())
    out = json.loads(
        invoke("rps", "--pattern", pattern_file, "--k", 5, "--n", 8, "--p", 0.3, "--trials", 2, "--seed", 1)
    )
    assert out["mode"] == "rps"


def test_malformed_files_are_usage_errors(tmp_path):
    good, _ = write_host(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    runner = CliRunner()
    for args in (
        ("copies", bad, "--pattern", "K3"),
        ("copies", good, "--pattern", bad),
        ("alter", bad, "--pattern", "K3", "--method", "refined"),
        ("alpha", empty),
        ("certify", bad, "--pattern", "K3", "--k", 3),
        ("density", "K9x"),
    ):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 2, (args, result.output)
        assert "Invalid value" in result.output
        assert "Traceback" not in result.output
    result = runner.invoke(main, ["copies", str(bad), "--pattern", "K3"])
    assert "line 2" in result.output


def test_malformed_config_is_a_usage_error(tmp_path):
    runner = CliRunner()
    for name, text in (
        ("bad.json", "{bad"),
        ("list.json", "[1, 2]"),
        ("inner.json", '{"density": 5}'),
        ("binary.json", b"\xff\xfe{"),
    ):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        result = runner.invoke(main, ["--config", str(path), "density", "K3"])
        assert result.exit_code == 2, (name, result.output)
        assert "Invalid value for '--config'" in result.output
        assert "Traceback" not in result.output


def test_json_missing_keys_are_usage_errors(tmp_path):
    runner = CliRunner()
    for name, text, key in (
        ("no_edges.json", '{"n": 3}', "edges"),
        ("no_n.json", '{"edges": [[0, 1]]}', "n"),
        ("no_edges_r3.json", '{"n": 4, "r": 3}', "edges"),
        ("text_n.json", '{"n": "3", "edges": []}', "n"),
        ("int_edges.json", '{"n": 3, "edges": 5}', "edges"),
        ("text_r.json", '{"n": 4, "r": "3", "edges": [[0, 1, 2]]}', "r"),
        ("wide_edge.json", '{"n": 4, "edges": [[0, 1, 2]]}', "edges"),
    ):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["copies", str(path), "--pattern", "K3"])
        assert result.exit_code == 2, result.output
        assert f"'{key}'" in result.output
        assert "Traceback" not in result.output
    bad = tmp_path / "token.txt"
    bad.write_text("3 1\n0 x\n")
    result = runner.invoke(main, ["copies", str(bad), "--pattern", "K3"])
    assert result.exit_code == 2, result.output
    assert "line 2" in result.output


def complete_pattern_text():
    return "3 3\n0 1\n0 2\n1 2\n"


def test_family_mode_flags():
    out = json.loads(
        invoke(
            "concentration",
            "--family", "K3", "--family", "C4", "--k", 6, "--C", 0.5, "--c", 8,
            "--trials", 3, "--k-samples", 3, "--seed", 5,
        )
    )
    assert out["params"]["family_mode"]


def test_config_file_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"density": {"core": True}}))
    out = json.loads(invoke("--config", config, "density", "C5"))
    assert "minimal_core" in out


def test_r_flag_validation(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["concentration", "--pattern", "K3", "--k", "6", "--r", "3", "--trials", "2"],
    )
    assert result.exit_code != 0
    assert "disagrees" in result.output


@pytest.mark.parametrize(
    "args, code, message",
    [
        ("tail --n 6 --p 1.5", 2, "p must lie in [0, 1], got 1.5"),
        ("tail --n 5 --k-size 8 --p 0.5 --trials 10", 2, "K contains vertices outside 0..4"),
        ("concentration --pattern K3 --k 2", 2, "k must be at least 3, got 2"),
        ("rps --pattern K3 --k 6 --n 10 --p 2", 2, "p override must lie in [0, 1], got 2.0"),
        ("witness --k 50 --n 10 --p 0.3", 2, "k=50 exceeds n=10"),
        ("builder-game --pattern K3 --k 1", 2, "k must be at least 3, got 1"),
        ("witness --k 5 --n 10 --p 0.9 --delta 1", 1, "infeasible planting: v_H*t = 3*3 = 9 exceeds k = 5"),
        ("tail --n 10 --p 0.3 --cap 3", 1, "36 packing members exceed cap 3"),
        ("concentration --pattern K3 --k 40 --n 2000 --p 0.5 --trials 100", 1, "estimated 2.00e+08 sampled cells"),
        ("density K25", 2, "exact density scans all 2^n vertex subsets; a pattern on 25 vertices exceeds the limit of 24"),
        ("rps --pattern K30 --k 40 --trials 1", 2, "exact density scans all 2^n vertex subsets; a pattern on 30 vertices exceeds the limit of 24"),
        ("tail --n 6 --p 0.5 --trials 0", 2, "trials must be at least 1, got 0"),
        ("concentration --pattern K3 --k 5 --trials 0", 2, "trials must be at least 1, got 0"),
        ("lemma5 --pattern K4 --k 5 --trials -1", 2, "trials must be at least 1, got -1"),
        ("ramsey-search --k 4 --trials -2", 2, "trials must be at least 1, got -2"),
        ("rps --pattern K3 --k 5 --trials 0", 2, "trials must be at least 1, got 0"),
        ("builder-game --pattern K3 --k 5 --trials 0", 2, "trials must be at least 1, got 0"),
    ],
)
def test_driver_input_errors_show_without_traceback(args, code, message):
    result = CliRunner().invoke(main, args.split(), catch_exceptions=False)
    assert result.exit_code == code, result.output
    assert f"Error: {message}" in result.output
    assert ("Usage:" in result.output) == (code == 2)


def test_two_uniform_input_runs_as_a_graph(tmp_path):
    # An r=2 pattern name or hypergraph file is the graph it spells.
    args = ("--k", 10, "--trials", 2)
    assert invoke("concentration", "--pattern", "K3r2", *args) == invoke(
        "concentration", "--pattern", "K3", *args
    )
    _, g = write_host(tmp_path)
    for name, obj in (("graph.json", g.to_json_obj()), ("h.json", {**g.to_json_obj(), "r": 2})):
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "h.txt").write_text(UniformHypergraph.from_graph(g).to_text())
    expected = invoke("copies", tmp_path / "graph.json", "--pattern", "K3")
    assert json.loads(expected)["copies"] > 0
    for host in ("h.json", "h.txt"):
        assert invoke("copies", tmp_path / host, "--pattern", "K3") == expected
        assert invoke("copies", tmp_path / host, "--pattern", "K3r2") == expected


def test_uniformity_errors_show_without_traceback(tmp_path):
    host, _ = write_host(tmp_path)
    hyper = tmp_path / "hyper.txt"
    hyper.write_text(complete_uniform(5, 3).to_text())
    runner = CliRunner()
    result = runner.invoke(main, ["copies", str(host), "--pattern", "K4r3"], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "Error: uniformity mismatch: host r=2, pattern r=3" in result.output
    # Every command that needs a graph turns a hypergraph away as it loads.
    for args in (
        "density K4r3 --core",
        f"alter {host} --pattern K4r3 --method refined",
        f"alter {hyper} --pattern K3 --method greedy",
        f"alpha {hyper}",
        "tail --n 6 --p 0.5 --pattern K4r3",
        "witness --pattern K4r3 --k 6 --n 8 --p 0.5",
        "ramsey-search --pattern K4r3 --k 4",
        f"certify {host} --pattern K4r3 --k 4",
        f"certify {hyper} --pattern K3 --k 4",
    ):
        result = runner.invoke(main, args.split(), catch_exceptions=False)
        assert result.exit_code == 2, (args, result.output)
        assert "this command runs on graphs, got an r=3 hypergraph" in result.output
        assert "Traceback" not in result.output


def test_seed_outside_64_bits_is_a_usage_error(tmp_path):
    host, _ = write_host(tmp_path)
    runner = CliRunner()
    for seed in ("-1", str(2**64)):
        for args in (
            ["tail", "--n", "6", "--p", "0.5", "--trials", "2"],
            ["concentration", "--pattern", "K3", "--k", "6", "--trials", "1"],
            ["alter", str(host), "--pattern", "K3", "--method", "greedy", "--order", "random"],
        ):
            result = runner.invoke(main, [*args, "--seed", seed], catch_exceptions=False)
            assert result.exit_code == 2, (args, seed, result.output)
            assert "seed must satisfy 0 <= seed < 2**64" in result.output
            assert "Traceback" not in result.output

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uppertail.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_analyze_pattern(capsys):
    code, payload = run_cli(capsys, "analyze-pattern", "star:3")
    assert code == 0
    result = payload["result"]
    assert result["alpha_star"] == 3.0
    assert result["aut"] == 6
    assert result["v"] == 4 and result["e"] == 3
    assert result["max_degree"] == 3
    assert result["h_star"] == {"v": 1, "e": 0}
    assert result["qh_size"] == 1
    assert result["sigma"] == 1.0
    assert payload["version"]
    assert "wall_seconds" in payload


def test_rate_path4(capsys):
    code, payload = run_cli(capsys, "rate", "--pattern", "path:4", "--delta", "1")
    assert code == 0
    assert payload["result"]["rate"] == pytest.approx(0.5, abs=1e-12)
    assert payload["result"]["theorem"] == "localized-I"


def test_rate_star_with_rho(capsys):
    code, payload = run_cli(
        capsys, "rate", "--pattern", "star:2", "--delta", "1.5", "--rho", "1.0"
    )
    assert code == 0
    assert payload["result"]["rate"] == pytest.approx((1 + math.sqrt(0.5)) / 2, abs=1e-12)


def test_rate_with_regime(capsys):
    code, payload = run_cli(
        capsys, "rate", "--pattern", "star:2", "--delta", "1",
        "--n", "1000000", "--p", str(1e6 ** -0.4),
    )
    assert code == 0
    assert payload["result"]["regime"] == "LocalizedI"
    assert payload["result"]["speed"] > 0
    assert payload["result"]["margins"]


def test_tail_exact(capsys):
    code, payload = run_cli(
        capsys, "tail", "--pattern", "star:2", "--n", "3", "--p", "0.5",
        "--method", "exact", "--threshold", "2",
    )
    assert code == 0
    assert payload["result"]["point"] == pytest.approx(0.5, abs=1e-12)


def test_count_command(capsys, tmp_path):
    f = tmp_path / "k4.txt"
    f.write_text("n 4\n" + "\n".join(f"{u} {v}" for u in range(4) for v in range(u + 1, 4)))
    code, payload = run_cli(capsys, "count", "--pattern", "clique:3", "--graph", str(f))
    assert code == 0
    assert payload["result"]["count"] == 24
    assert payload["result"]["aut"] == 6
    code, payload = run_cli(
        capsys, "count", "--pattern", "clique:3", "--graph", str(f), "--unlabelled"
    )
    assert payload["result"]["count"] == 4
    code, payload = run_cli(
        capsys, "count", "--pattern", "star:2", "--graph", str(f), "--edge", "0,1"
    )
    assert payload["result"]["count"] == 4 + 4


def test_count_edge_unlabelled(capsys, tmp_path):
    # The only triangle is {0, 1, 2}: one copy through 0-1, none through 2-3.
    f = tmp_path / "g5.txt"
    f.write_text("n 5\n0 1\n1 2\n0 2\n2 3\n3 4\n")
    count = ["count", "--pattern", "cycle:3", "--graph", str(f), "--edge"]
    code, payload = run_cli(capsys, *count, "0,1", "--unlabelled")
    assert code == 0
    assert payload["result"]["count"] == 1
    assert payload["inputs"]["unlabelled"] is True
    code, payload = run_cli(capsys, *count, "0,1")
    assert payload["result"]["count"] == 6
    code, payload = run_cli(capsys, *count, "2,3", "--unlabelled")
    assert payload["result"]["count"] == 0


def test_detect_command(capsys, tmp_path):
    f = tmp_path / "k28.txt"
    edges = [(u, v) for u in (0, 1) for v in range(2, 10)]
    f.write_text("n 10\n" + "\n".join(f"{u} {v}" for u, v in edges))
    code, payload = run_cli(
        capsys, "detect", "--graph", str(f), "--event", "hub",
        "--degree-threshold", "7", "--edge-threshold", "16",
    )
    assert code == 0
    assert payload["result"]["found"] == "yes-with-witness"
    code, payload = run_cli(
        capsys, "detect", "--graph", str(f), "--event", "highdeg", "--threshold", "8",
    )
    assert payload["result"]["found"] == "yes-with-witness"


def test_core_command(capsys, tmp_path):
    f = tmp_path / "g.txt"
    edges = [(0, v) for v in range(1, 6)] + [(1, 2), (3, 4)]
    f.write_text("n 6\n" + "\n".join(f"{u} {v}" for u, v in edges))
    code, payload = run_cli(
        capsys, "core", "--graph", str(f), "--pattern", "star:2", "--star",
        "--delta", "1", "--epsilon", "0.1", "--n", "6", "--p", "0.3",
    )
    assert code == 0
    assert payload["result"]["edges_after"] <= payload["result"]["edges_before"]


def test_meanfield_command(capsys):
    code, payload = run_cli(
        capsys, "meanfield", "--r", "2", "--n", "2000", "--p", "0.01", "--delta", "1",
    )
    assert code == 0
    result = payload["result"]
    assert result["psi_upper"] > 0
    assert "k" in result["witness_summary"]
    assert result["ratio"] > 0


def test_experiment_poisson(capsys):
    p = 18 ** (1 / 3) / 60
    code, payload = run_cli(
        capsys, "experiment", "poisson-fit", "--pattern", "clique:3",
        "--n", "60", "--p", str(p), "--samples", "2000", "--seed", "5",
    )
    assert code == 0
    assert payload["result"]["tv_distance"] < 0.2


def test_reproducible_output(capsys, tmp_path):
    f = tmp_path / "k4.txt"
    f.write_text("n 4\n" + "\n".join(f"{u} {v}" for u in range(4) for v in range(u + 1, 4)))
    commands = [
        ["analyze-pattern", "path:4"],
        ["rate", "--pattern", "path:4", "--delta", "1", "--n", "1000", "--p", "0.05"],
        ["count", "--pattern", "clique:3", "--graph", str(f)],
        ["detect", "--graph", str(f), "--event", "highdeg", "--threshold", "2"],
        ["core", "--graph", str(f), "--pattern", "star:2", "--star",
         "--delta", "1", "--epsilon", "0.1", "--n", "4", "--p", "0.3"],
        ["meanfield", "--r", "2", "--n", "500", "--p", "0.02", "--delta", "0.5"],
        ["tail", "--pattern", "clique:3", "--n", "3", "--p", "0.5",
         "--method", "direct", "--threshold", "6", "--samples", "20000", "--seed", "9"],
        ["experiment", "poisson-fit", "--pattern", "clique:3", "--n", "40",
         "--p", str(18 ** (1 / 3) / 40), "--samples", "500", "--seed", "2"],
    ]
    for argv in commands:
        out1 = main(list(argv))
        raw1 = capsys.readouterr().out
        out2 = main(list(argv))
        raw2 = capsys.readouterr().out
        assert out1 == out2 == 0
        p1, p2 = json.loads(raw1), json.loads(raw2)
        for payload in (p1, p2):
            payload.pop("wall_seconds")
            payload["result"].pop("seconds", None)
        assert p1 == p2, argv


def test_validation_exit_codes(capsys, tmp_path):
    code = main(["rate", "--pattern", "path:4", "--delta", "1", "--n", "100", "--p", "1.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    code = main(["rate", "--pattern", "path:4", "--delta", "-0.5"])
    assert code == 2
    capsys.readouterr()
    code = main(["tail", "--pattern", "star:2", "--n", "3", "--p", "0.5", "--method", "exact"])
    assert code == 2  # neither threshold nor delta
    code = main(["count", "--pattern", "clique:3", "--graph", "/nonexistent/file.txt"])
    assert code == 2
    malformed = tmp_path / "bad.txt"
    malformed.write_text("not an edge list\n")
    code = main(["count", "--pattern", "clique:3", "--graph", str(malformed)])
    assert code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--nonsense"])
    assert exc.value.code == 2


def test_budget_exit_code(capsys, tmp_path):
    f = tmp_path / "k12.txt"
    f.write_text("n 12\n" + "\n".join(f"{u} {v}" for u in range(12) for v in range(u + 1, 12)))
    code = main(["count", "--pattern", "path:4", "--graph", str(f), "--budget", "10"])
    assert code == 3
    code = main(["count", "--pattern", "path:4", "--graph", str(f), "--budget", "0"])
    assert code == 3


def test_config_file_and_env(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("# defaults\nsamples = 5000\nseed = 4\n")
    code, payload = run_cli(
        capsys, "--config", str(cfg), "tail", "--pattern", "clique:3",
        "--n", "3", "--p", "0.5", "--threshold", "6",
    )
    assert code == 0
    assert payload["inputs"]["samples"] == 5000
    assert payload["seed"] == 4
    monkeypatch.setenv("UPPERTAIL_THREADS", "2")
    code, payload = run_cli(
        capsys, "tail", "--pattern", "clique:3", "--n", "3", "--p", "0.5",
        "--threshold", "6", "--samples", "1000",
    )
    assert code == 0
    assert payload["inputs"]["threads"] == 2


def test_payload_envelope_schema(capsys):
    code, payload = run_cli(capsys, "analyze-pattern", "path:3")
    assert code == 0
    for key in ("version", "command", "inputs", "seed", "result", "wall_seconds"):
        assert key in payload


def test_output_file_flag(capsys, tmp_path):
    target = tmp_path / "payload.json"
    code, payload = run_cli(
        capsys, "--output", str(target), "analyze-pattern", "cycle:4"
    )
    assert code == 0
    assert json.loads(target.read_text()) == payload


TAIL = ["tail", "--pattern", "star:2", "--n", "5", "--p", "0.3", "--threshold", "8"]
POISSON = ["experiment", "poisson-fit", "--pattern", "clique:3", "--n", "60",
           "--p", str(18 ** (1 / 3) / 60)]
GRAPH = "<graph>"  # stands for a small edge-list file written by the test
COUNT_EDGE = ["count", "--pattern", "star:2", "--graph", GRAPH, "--edge"]
CORE = ["core", "--graph", GRAPH, "--pattern", "star:2", "--delta", "1", "--n", "4", "--p", "0.3"]


@pytest.mark.parametrize(
    "threads_env, argv",
    [
        (None, TAIL + ["--replicas", "0"]),
        (None, TAIL + ["--method", "importance", "--planting", "hub:x"]),
        (None, TAIL + ["--method", "importance", "--samples", "0"]),
        (None, POISSON + ["--samples", "0"]),
        ("abc", TAIL + ["--samples", "100"]),
        (None, POISSON + ["--samples", "100", "--seed", "-1"]),
        (None, TAIL + ["--method", "direct", "--samples", "100", "--seed", "-3"]),
        (None, COUNT_EDGE + ["0"]),
        (None, COUNT_EDGE + ["a,b"]),
        (None, COUNT_EDGE + ["9,0"]),
        (None, ["experiment", "conditioned", "--pattern", "star:2", "--n", "40", "--p", "0.05",
                "--delta", "1", "--samples", "0"]),
        (None, ["count", "--pattern", "star:2", "--graph", GRAPH, "--budget", "-1"]),
        (None, CORE + ["--budget", "-3"]),
    ],
    ids=["replicas-0", "planting-hub-x", "importance-samples-0", "poisson-samples-0",
         "threads-env-abc", "poisson-seed-negative", "direct-seed-negative", "edge-one-vertex",
         "edge-not-integers", "edge-out-of-range", "conditioned-samples-0",
         "count-budget-negative", "core-budget-negative"],
)
def test_bad_values_exit_2_without_traceback(capsys, monkeypatch, tmp_path, threads_env, argv):
    graph = tmp_path / "g.txt"
    graph.write_text("n 4\n0 1\n1 2\n2 3\n")
    argv = [str(graph) if arg == GRAPH else arg for arg in argv]
    if threads_env is None:
        monkeypatch.delenv("UPPERTAIL_THREADS", raising=False)
    else:
        monkeypatch.setenv("UPPERTAIL_THREADS", threads_env)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_highdeg_threshold_needs_a_star(capsys, tmp_path):
    conditioned = ["experiment", "conditioned", "--pattern", "clique:3", "--n", "12",
                   "--p", "0.3", "--delta", "0.5"]
    assert main(conditioned) == 2
    assert capsys.readouterr().err.startswith("error:")
    code, payload = run_cli(capsys, *conditioned, "--detector", "highdeg:6",
                            "--samples", "2000", "--min-accepted", "10")
    assert code == 0
    assert payload["inputs"]["detector_threshold"] == 6.0
    # Both commands derive the default threshold delta^(1/r) n^(1+1/r) p alike.
    code, payload = run_cli(capsys, "experiment", "conditioned", "--pattern", "star:2",
                            "--n", "40", "--p", "0.05", "--delta", "1", "--samples", "2000",
                            "--min-accepted", "1")
    assert code == 0
    threshold = payload["inputs"]["detector_threshold"]
    assert threshold == pytest.approx(40**1.5 * 0.05)
    f = tmp_path / "hub.txt"
    f.write_text("n 40\n" + "\n".join(f"0 {v}" for v in range(1, 13)))
    code, payload = run_cli(capsys, "detect", "--graph", str(f), "--event", "highdeg",
                            "--n", "40", "--p", "0.05", "--delta", "1", "--r", "2")
    assert code == 0
    assert payload["result"]["certificate"] == {"threshold": threshold, "max_degree": 12}
    assert main(["detect", "--graph", str(f), "--event", "highdeg", "--n", "40",
                 "--p", "0.05", "--delta", "1", "--r", "0"]) == 2


@pytest.mark.parametrize("delta, near", [(0.5, False), (61.25, True)])
def test_rate_near_jump_only_at_positive_integers(capsys, delta, near):
    # rho_hat = 40 * 0.02^2 = 0.016: delta * rho_hat is 0.008, then 0.98.
    code, payload = run_cli(capsys, "rate", "--pattern", "star:2", "--delta", str(delta),
                            "--n", "40", "--p", "0.02")
    assert code == 0
    assert payload["result"]["regime"] == "LocalizedII-Star"
    assert payload["result"]["near_jump"] is near


PATTERN_SPECS = st.one_of(
    st.sampled_from(["star:2", "star:3", "path:3", "path:4", "cycle:3", "cycle:4", "clique:3",
                     "biclique:1,2"]),
    st.sampled_from(["star:0", "path:x", "cycle:2", "wheel:4", "", "file:/nonexistent"]),
)
EDGE_TEXTS = st.one_of(
    st.none(),
    st.sampled_from(["0", "a,b", "0,0", "1,2,3", ",", "", "-1,2", " 1, 2"]),
    st.builds("{},{}".format, st.integers(-2, 9), st.integers(-2, 9)),
)
TINY_GRAPHS = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
    max_size=14) if n > 1 else st.just([])))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    command=st.sampled_from(["count", "core"]),
    graph=TINY_GRAPHS,
    spec=PATTERN_SPECS,
    edge=EDGE_TEXTS,
    budget=st.one_of(st.none(), st.integers(-3, 50)),
    flags=st.sets(st.sampled_from(["--unlabelled", "--star", "--strong"])),
)
def test_count_and_core_keep_the_cli_contract(tmp_path_factory, command, graph, spec, edge,
                                              budget, flags):
    """Any argv of ``count`` and ``core``: exit 0, 2 or 3, no traceback, and
    exactly one JSON line on stdout on success, none otherwise."""
    n, edges = graph
    path = tmp_path_factory.mktemp("g") / "g.txt"
    path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    if command == "count":
        argv = ["count", "--pattern", spec, "--graph", str(path)]
        argv += ["--unlabelled"] if "--unlabelled" in flags else []
        argv += [] if edge is None else ["--edge", edge]
    else:
        argv = ["core", "--graph", str(path), "--pattern", spec, "--delta", "1",
                "--n", str(n), "--p", "0.3"]
        argv += sorted(flags - {"--unlabelled"})
    argv += [] if budget is None else ["--budget", str(budget)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    lines = out.getvalue().splitlines()
    assert code in (0, 2, 3), argv
    assert len(lines) == (code == 0), argv
    for line in lines:
        assert json.loads(line)["command"] == command
    assert "Traceback" not in err.getvalue()

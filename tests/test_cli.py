import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uppertail import cli, counting
from uppertail.cli import main
from uppertail.graphs import pattern_from_shorthand


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
    assert payload["result"]["theorem"] == "LocalizedI"


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


def test_importance_at_one_vertex(capsys):
    # One vertex has no pairs, so the proposal has no probabilities and
    # every weight is 1.
    for planting in ("highdeg", "none"):
        code, payload = run_cli(
            capsys, "tail", "--pattern", "star:2", "--n", "1", "--p", "0.3", "--threshold", "1",
            "--method", "importance", "--samples", "10", "--planting", planting,
        )
        assert code == 0
        assert (payload["result"]["point"], payload["result"]["mean_weight"]) == (0.0, 1.0)


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


def test_count_unlabelled_searches_the_orbits_once(capsys, tmp_path, monkeypatch):
    # |Aut(H)| divides the count and is reported: one count computes it once.
    f = tmp_path / "k4.txt"
    f.write_text("n 4\n" + "\n".join(f"{u} {v}" for u in range(4) for v in range(u + 1, 4)))
    orbit_searches = []
    embed = counting._embed

    def counted_embed(*args, **kwargs):
        orbit_searches.append(kwargs.get("leaf") is counting._stop)
        return embed(*args, **kwargs)

    monkeypatch.setattr(counting, "_embed", counted_embed)
    counting.automorphism_count.__wrapped__(pattern_from_shorthand("cycle:4"))
    once = sum(orbit_searches)
    orbit_searches.clear()
    counting.automorphism_count.cache_clear()
    code, payload = run_cli(
        capsys, "count", "--pattern", "cycle:4", "--graph", str(f), "--unlabelled"
    )
    assert code == 0 and (payload["result"]["count"], payload["result"]["aut"]) == (3, 8)
    assert sum(orbit_searches) == once > 0


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
        "--delta", "1", "--epsilon", "0.1", "--n", "6", "--p", "0.3", "--budget", "100",
    )
    assert code == 0
    assert payload["result"]["edges_after"] <= payload["result"]["edges_before"]
    assert payload["inputs"]["budget"] == 100


def test_core_on_a_star_pattern_is_not_charged_the_budget(capsys, tmp_path):
    # A star is counted in closed form under every threshold, so --budget,
    # which charges the enumerator, cannot end a star core with exit 3.
    f = tmp_path / "g.txt"
    f.write_text("n 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n")
    argv = ["core", "--graph", str(f), "--pattern", "star:2", "--delta", "1", "--n", "6",
            "--p", "0.5", "--c-bar", "0.06"]
    code, free = run_cli(capsys, *argv)
    assert code == 0 and free["result"]["removed"] == [[4, 5], [3, 4]]
    code, charged = run_cli(capsys, *argv, "--budget", "1")
    assert code == 0 and charged["result"] == free["result"]


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


@pytest.mark.parametrize("method", ["direct", "importance"])
def test_sampled_tail_refuses_a_huge_n_before_sizing_arrays(capsys, method):
    # The pair limit is checked before the proposal's per-vertex arrays exist.
    code = main(["tail", "--pattern", "star:2", "--n", str(10**400), "--p", "0.5",
                 "--threshold", "3", "--method", method, "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error:") and captured.err.count("\n") == 1


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
CONFIG = "<config>"  # stands for a config file holding "threads = 0"
BAD_HEADER = "<bad-header>"  # an edge-list file whose header is "n abc"
NOT_UTF8 = "<not-utf8>"  # an edge-list file that is not UTF-8 text, also read as a config
NO_EQUALS = "<no-equals>"  # a config file holding the line "threads 2", which has no "="
TYPO = "<typo>"  # a config file holding "sampels = 10", a key the CLI does not know
COUNT_EDGE = ["count", "--pattern", "star:2", "--graph", GRAPH, "--edge"]
CORE = ["core", "--graph", GRAPH, "--pattern", "star:2", "--delta", "1", "--n", "4", "--p", "0.3"]
CORE_K3 = ["core", "--graph", GRAPH, "--pattern", "clique:3", "--epsilon", "0.5", "--p", "0.5"]
RATE = ["rate", "--pattern", "star:2", "--delta", "1"]
CONDITIONED = ["experiment", "conditioned", "--pattern", "star:2", "--n", "40", "--p", "0.05",
               "--delta", "1"]
POISSON_N8 = ["experiment", "poisson-fit", "--pattern", "clique:3", "--n", "8", "--p", "0.3"]
DETECT = ["detect", "--graph", GRAPH, "--event"]
HUGE_N = str(10**400)  # a 401-digit n: n^v overflows a float
IMPORTANCE = ["tail", "--pattern", "star:2", "--n", "5", "--p", "0.3", "--threshold", "8",
              "--method", "importance", "--samples", "100", "--planting"]


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
        (None, CORE + ["--star", "--budget", "-3"]),
        (None, CORE + ["--strong", "--budget", "-3"]),
        (None, CORE_K3 + ["--delta", "1", "--n", "0"]),
        (None, CORE_K3 + ["--delta", "1", "--n", "0", "--star"]),
        (None, CORE + ["--star", "--n", "0"]),
        (None, CORE + ["--strong", "--n", "0"]),
        (None, CORE_K3 + ["--delta", "1", "--n=-3"]),
        (None, CORE_K3 + ["--delta", "inf", "--n", "4"]),
        (None, CORE_K3 + ["--delta", "nan", "--n", "4"]),
        (None, CORE_K3 + ["--delta", "1", "--n", "4", "--c-bar", "0"]),
        (None, CORE_K3 + ["--delta", "1", "--n", "4", "--c-bar=-1"]),
        (None, CORE_K3 + ["--delta", "1", "--n", "4", "--c-bar", "nan"]),
        (None, CORE + ["--star", "--strong", "--c-bar-star", "0"]),
        (None, ["meanfield", "--r", "2", "--n", "40", "--p", "0.05", "--delta", "nan"]),
        (None, RATE[:-1] + ["nan"]),
        (None, RATE[:-1] + ["inf"]),
        (None, RATE + ["--n", "10000", "--p", "0.01", "--slack", "nan"]),
        (None, RATE + ["--n", "10000"]),
        (None, RATE + ["--p", "0.01"]),
        (None, TAIL + ["--samples", "100", "--threads", "0"]),
        (None, POISSON + ["--samples", "100", "--threads", "-1"]),
        ("0", TAIL + ["--samples", "100"]),
        (None, ["--config", CONFIG] + TAIL + ["--samples", "100"]),
        (None, CONDITIONED[:7] + ["1.3"] + CONDITIONED[8:] + ["--samples", "100"]),
        (None, CONDITIONED + ["--samples", "100", "--min-accepted", "-5"]),
        (None, IMPORTANCE + ["clique:-1"]),
        (None, IMPORTANCE + ["hub:9"]),
        (None, POISSON_N8[:-1] + ["nan", "--samples", "10"]),
        (None, POISSON_N8[:-1] + ["1.5", "--samples", "10"]),
        (None, TAIL + ["--method", "exact", "--threads", "0"]),
        (None, CONDITIONED + ["--samples", "100", "--threads", "0"]),
        (None, DETECT + ["highdeg", "--threshold", "nan"]),
        (None, DETECT + ["hub", "--degree-threshold", "nan", "--edge-threshold", "1"]),
        (None, DETECT + ["hub", "--degree-threshold", "1", "--edge-threshold", "inf"]),
        (None, DETECT + ["tildehub", "--u-size", "1", "--u-degree-threshold", "nan",
                         "--extra-degree-threshold", "1"]),
        (None, ["count", "--pattern", "path:2", "--graph", BAD_HEADER]),
        (None, ["count", "--pattern", "path:2", "--graph", NOT_UTF8]),
        (None, ["--config", NOT_UTF8, "analyze-pattern", "cycle:4"]),
        (None, TAIL[:3] + ["--n=-1"] + TAIL[5:] + ["--method", "exact"]),
        (None, TAIL[:3] + ["--n=0"] + TAIL[5:] + ["--samples", "100"]),
        (None, TAIL[:7] + ["--delta", "1e308", "--samples", "10"]),
        (None, CONDITIONED[:-1] + ["1e308"]),
        (None, ["analyze-pattern", "star:99"]),
        (None, RATE[:2] + ["star:40"] + RATE[3:] + ["--n", "1000", "--p", "0.01"]),
        (None, CORE_K3 + ["--delta", "1", "--n", HUGE_N]),
        (None, CORE[:8] + [HUGE_N] + CORE[9:] + ["--star"]),
        (None, CORE[:8] + [HUGE_N] + CORE[9:] + ["--strong"]),
        (None, RATE[:2] + ["path:4"] + RATE[3:] + ["--n", HUGE_N, "--p", "0.5"]),
        (None, RATE + ["--n", HUGE_N, "--p", "0.5"]),
        (None, DETECT + ["highdeg", "--n", HUGE_N, "--p", "0.5", "--delta", "1", "--r", "2"]),
        (None, ["meanfield", "--r", "2", "--n", HUGE_N, "--p", "0.05", "--delta", "1"]),
        (None, CONDITIONED[:5] + [HUGE_N] + CONDITIONED[6:] + ["--samples", "10"]),
        (None, POISSON_N8[:5] + [HUGE_N] + POISSON_N8[6:] + ["--samples", "10"]),
        (None, CORE_K3 + ["--delta", "1", "--n", "4", "--star"]),
        (None, DETECT + ["hub"]),
        (None, DETECT + ["clique"]),
        (None, DETECT + ["highdeg", "--n", "40", "--p", "0.05", "--delta", "-1", "--r", "2"]),
        (None, CONDITIONED + ["--samples", "100", "--detector", "hub:3"]),
        (None, CONDITIONED[:-2] + ["--samples", "100"]),
        (None, ["--config", NO_EQUALS, "analyze-pattern", "cycle:4"]),
        (None, ["--config", TYPO] + TAIL),
        (None, POISSON_N8[:5] + ["0"] + POISSON_N8[6:-1] + ["0", "--seed", "-3"]),
        (None, POISSON_N8[:-1] + ["0", "--seed", "-3"]),
        (None, POISSON_N8[:-1] + ["0", "--samples", "-5"]),
        (None, DETECT + ["highdeg", "--n=-5", "--p", "0.1", "--delta", "1", "--r", "2"]),
        (None, DETECT + ["highdeg", "--n", "40", "--p", "2", "--delta", "1", "--r", "2"]),
        (None, DETECT + ["highdeg", "--n", "40", "--p=-0.5", "--delta", "1", "--r", "2"]),
        (None, CONDITIONED + ["--samples", "100", "--detector", "highdeg:nan"]),
        (None, CONDITIONED + ["--samples", "100", "--detector", "highdeg:inf"]),
        (None, ["rate", "--pattern", "path:1", "--delta", "1"]),
        (None, ["meanfield", "--r", "2", "--n=0", "--p", "0.05", "--delta", "1"]),
    ],
    ids=["replicas-0", "planting-hub-x", "importance-samples-0", "poisson-samples-0",
         "threads-env-abc", "poisson-seed-negative", "direct-seed-negative", "edge-one-vertex",
         "edge-not-integers", "edge-out-of-range", "conditioned-samples-0",
         "count-budget-negative", "core-budget-negative", "core-star-budget-negative",
         "core-strong-budget-negative", "core-n-0", "core-clique-star-n-0", "core-star-n-0",
         "core-strong-n-0", "core-n-negative", "core-delta-inf", "core-delta-nan",
         "core-c-bar-0", "core-c-bar-negative", "core-c-bar-nan", "core-strong-c-bar-star-0",
         "meanfield-delta-nan", "rate-delta-nan",
         "rate-delta-inf", "rate-slack-nan", "rate-n-without-p", "rate-p-without-n",
         "direct-threads-0", "poisson-threads-negative", "threads-env-0", "threads-config-0",
         "conditioned-p-above-1", "conditioned-min-accepted-negative", "planting-size-negative",
         "planting-size-above-n", "poisson-p-nan", "poisson-p-above-1", "exact-threads-0",
         "conditioned-threads-0",
         "detect-highdeg-nan", "detect-hub-degree-nan",
         "detect-hub-edge-inf", "detect-tildehub-nan", "graph-header-not-integer",
         "graph-not-utf8", "config-not-utf8", "exact-n-negative", "direct-n-0",
         "tail-delta-1e308", "conditioned-delta-1e308", "analyze-star-99", "rate-star-40",
         "core-huge-n", "core-star-huge-n", "core-strong-huge-n", "rate-path-huge-n",
         "rate-star-huge-n", "detect-highdeg-huge-n", "meanfield-huge-n",
         "conditioned-huge-n", "poisson-huge-n", "core-clique-star", "detect-hub-no-thresholds",
         "detect-clique-no-size", "detect-highdeg-delta-negative", "conditioned-detector-hub",
         "conditioned-no-delta", "config-line-without-equals", "config-unknown-key",
         "poisson-p-0-n-0", "poisson-p-0-seed-negative", "poisson-p-0-samples-negative",
         "detect-highdeg-n-negative", "detect-highdeg-p-2", "detect-highdeg-p-negative",
         "conditioned-highdeg-nan", "conditioned-highdeg-inf", "rate-edgeless", "meanfield-n-0"],
)
def test_bad_values_exit_2_without_traceback(capsys, monkeypatch, tmp_path, threads_env, argv):
    graph = tmp_path / "g.txt"
    graph.write_text("n 4\n0 1\n1 2\n2 3\n")
    config = tmp_path / "threads.conf"
    config.write_text("threads = 0\n")
    bad_header = tmp_path / "bad_header.txt"
    bad_header.write_text("n abc\n0 1\n")
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes(b"n 4\n0 1\n\xff\xfe 2\n")
    no_equals = tmp_path / "no_equals.conf"
    no_equals.write_text("threads 2\n")
    typo = tmp_path / "typo.conf"
    typo.write_text("sampels = 10\n")
    files = {GRAPH: graph, CONFIG: config, BAD_HEADER: bad_header,
             NOT_UTF8: not_utf8, NO_EQUALS: no_equals, TYPO: typo}
    argv = [str(files.get(arg, arg)) for arg in argv]
    if threads_env is None:
        monkeypatch.delenv("UPPERTAIL_THREADS", raising=False)
    else:
        monkeypatch.setenv("UPPERTAIL_THREADS", threads_env)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    if "1e308" in argv:
        assert "delta = 1e+308" in captured.err
    if "star:99" in argv or "star:40" in argv:
        assert captured.err == "error: pattern too large\n"
    if HUGE_N in argv:
        assert captured.err.startswith("error: an input overflowed float arithmetic")
    if argv[0] == "meanfield" and "--n=0" in argv:
        assert captured.err == "error: n must lie in [3, inf), got 0\n"


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 931. GiB for an array"),
     "Unable to allocate 931. GiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch, error, message):
    def handler(args, started):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "tail", handler)
    code = main(TAIL + ["--samples", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"resource error: {message}\n"


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
                     "biclique:1,2", "star:10", "star:11", "star:12", "path:12", "clique:7",
                     "biclique:4,4", "clique:10", "clique:11", "clique:12", "biclique:6,6"]),
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


def _assert_cli_contract(command, argv):
    """Exit 0, 2 or 3, no traceback, and exactly one JSON line on stdout on
    success, none otherwise."""
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
    assert "Traceback" not in err.getvalue(), argv


def _write_graph(tmp_path_factory, graph):
    n, edges = graph
    path = tmp_path_factory.mktemp("g") / "g.txt"
    path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


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
    """Any argv of ``count`` and ``core`` keeps the CLI contract."""
    path = _write_graph(tmp_path_factory, graph)
    if command == "count":
        argv = ["count", "--pattern", spec, "--graph", path]
        argv += ["--unlabelled"] if "--unlabelled" in flags else []
        argv += [] if edge is None else ["--edge", edge]
    else:
        argv = ["core", "--graph", path, "--pattern", spec, "--delta", "1",
                "--n", str(graph[0]), "--p", "0.3"]
        argv += sorted(flags - {"--unlabelled"})
    argv += [] if budget is None else ["--budget", str(budget)]
    _assert_cli_contract(command, argv)


# Most drawn values are valid, so that most examples get past parsing; the
# rest are nan, inf, -inf, 0 or negative, and a size may also have 401
# digits, so that n^v overflows a float.  Numbers print with repr, and the
# --name=value form passes negative values to argparse as values.
BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


def _mostly(valid, bad):
    """``valid`` three times in four (``st.one_of`` would merge repeated branches)."""
    return st.sampled_from([valid, valid, valid, bad]).flatmap(lambda strategy: strategy)


FLOATS = _mostly(st.floats(0.05, 3.0), BAD_NUMBERS)
PROBS = _mostly(st.floats(0.05, 0.95), st.one_of(BAD_NUMBERS, st.sampled_from([1.0, 1.3])))
SIZES = _mostly(st.integers(3, 8), st.one_of(st.integers(-1, 2), st.just(10**400)))
COUNTS = _mostly(st.integers(1, 200), st.integers(-1, 0))
THREADS = _mostly(st.integers(1, 4), st.integers(-1, 0))
SPECS = _mostly(st.sampled_from(["star:2", "star:3", "path:3", "path:4", "cycle:3", "cycle:4",
                                 "clique:3", "star:10", "star:11", "star:12", "path:12",
                                 "clique:7", "biclique:4,4", "clique:10", "clique:11",
                                 "clique:12", "biclique:6,6"]), PATTERN_SPECS)


def _opt(name, values, required=False):
    given = values.map(lambda v: [f"--{name}={v}" if isinstance(v, str) else f"--{name}={v!r}"])
    return given if required else _mostly(given, st.just([]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for part in ps for arg in part])


PATTERN_OPT = _opt("pattern", SPECS, required=True)
N_AND_P = _argv(_opt("n", SIZES, True), _opt("p", PROBS, True))
OTHER_ARGV = {
    "analyze-pattern": SPECS.map(lambda spec: [spec]),
    "rate": _argv(PATTERN_OPT, _opt("delta", FLOATS, True), _opt("rho", FLOATS),
                  _opt("slack", FLOATS),
                  _mostly(N_AND_P, st.one_of(_opt("n", SIZES, True), _opt("p", PROBS, True)))),
    "detect": _argv(
        _opt("event", st.sampled_from(["hub", "clique", "highdeg", "tildehub"]), True),
        *(_opt(name, FLOATS, name != "chi") for name in (
            "chi", "degree-threshold", "edge-threshold", "size-threshold",
            "u-degree-threshold", "extra-degree-threshold")),
        _opt("threshold", FLOATS), _opt("u-size", SIZES),
        _opt("delta", FLOATS), _opt("r", st.integers(-1, 4)), N_AND_P),
    "meanfield": _argv(_opt("r", _mostly(st.integers(2, 4), st.integers(-1, 1)), True), N_AND_P,
                       _opt("delta", FLOATS, True), _opt("epsilon", FLOATS),
                       st.sampled_from([[], ["--literal-reading"]])),
    "tail": _argv(PATTERN_OPT, N_AND_P,
                  st.one_of(_opt("threshold", st.integers(-2, 30), True),
                            _opt("delta", FLOATS, True)),
                  _opt("method", st.sampled_from(["exact", "direct", "importance"]), True),
                  _opt("planting", st.sampled_from(["highdeg", "highdeg:nan", "hub:1", "hub:9",
                                                    "clique:-1", "clique:2:0.5", "none"])),
                  _opt("samples", COUNTS, True), _opt("seed", st.integers(-1, 5)),
                  _opt("replicas", st.integers(-1, 4)), _opt("threads", THREADS)),
    "experiment": _argv(st.sampled_from([["poisson-fit"], ["conditioned"]]), PATTERN_OPT,
                        N_AND_P, _opt("delta", FLOATS),
                        _opt("detector", st.sampled_from(["highdeg", "highdeg:2", "highdeg:nan",
                                                          "hub"])),
                        _opt("samples", COUNTS, True), _opt("seed", st.integers(-1, 5)),
                        _opt("min-accepted", st.integers(-5, 20)), _opt("threads", THREADS)),
}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(sorted(OTHER_ARGV)), graph=TINY_GRAPHS, data=st.data())
def test_every_other_command_keeps_the_cli_contract(tmp_path_factory, command, graph, data):
    """Any argv of the remaining subcommands keeps the CLI contract, with n <= 8,
    at most 200 samples and at most 4 threads; numbers include nan, inf, 0 and
    negative values."""
    argv = [command] + data.draw(OTHER_ARGV[command])
    if command == "detect":
        argv += ["--graph", _write_graph(tmp_path_factory, graph)]
    _assert_cli_contract(command, argv)


def test_direct_tail_counts_agree_across_threads(capsys):
    # cycle:4 at n = 20 is counted graph by graph by the enumerator, whose
    # cached plans the replica threads share; with empty caches and frequent
    # thread switches, more threads than cores race to fill them.
    argv = ["tail", "--pattern", "cycle:4", "--n", "20", "--p", "0.3", "--delta", "0.2",
            "--method", "direct", "--samples", "300", "--replicas", "4", "--seed", "11"]
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in ("1", "2", "4"):
            counting._order.cache_clear()
            counting._plan.cache_clear()
            code, payload = run_cli(capsys, *argv, "--threads", threads)
            assert code == 0
            results.append(payload["result"])
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]
    assert 0 < results[0]["point"] < 1


def test_conditioned_result_does_not_depend_on_threads(capsys, monkeypatch, tmp_path):
    # Replicas are tallied in order and the run stops after the one that
    # brings the accepts to --min-accepted, so the thread count, from the
    # argv, a config file or UPPERTAIL_THREADS, does not change the result.
    argv = CONDITIONED + ["--samples", "2000", "--min-accepted", "1"]
    threads_2 = tmp_path / "threads_2.conf"
    threads_2.write_text("threads = 2\n")
    monkeypatch.delenv("UPPERTAIL_THREADS", raising=False)
    payloads = [run_cli(capsys, *argv, "--threads", "1"), run_cli(capsys, *argv, "--threads", "2"),
                run_cli(capsys, "--config", str(threads_2), *argv)]
    monkeypatch.setenv("UPPERTAIL_THREADS", "2")
    payloads.append(run_cli(capsys, *argv))
    assert [code for code, _ in payloads] == [0] * 4
    assert all(payload["result"] == payloads[0][1]["result"] for _, payload in payloads)
    assert payloads[0][1]["result"]["accepted"] >= 1


def test_config_replicas_reach_the_experiments(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("UPPERTAIL_THREADS", raising=False)
    config = tmp_path / "replicas.conf"
    config.write_text("replicas = 4\n")
    argv = ["experiment", "poisson-fit", "--pattern", "clique:3", "--n", "200", "--p", "0.0131",
            "--samples", "4000"]
    code, plain = run_cli(capsys, *argv)
    assert code == 0 and plain["inputs"]["replicas"] == 32
    code, four = run_cli(capsys, "--config", str(config), *argv)
    assert code == 0 and four["inputs"]["replicas"] == 4
    assert four["result"] != plain["result"]
    code, payload = run_cli(capsys, "--config", str(config), *CONDITIONED, "--samples", "2000",
                            "--min-accepted", "1")
    assert code == 0 and payload["inputs"]["replicas"] == 4


# ---------------------------------------------------------------------------
# One parser for every call in a process
# ---------------------------------------------------------------------------

def _run_fresh(argv, threads_env=None, timeout=None):
    """``argv`` run in a new interpreter, as a ``CompletedProcess``."""
    env = {k: v for k, v in os.environ.items() if k != "UPPERTAIL_THREADS"}
    if threads_env is not None:
        env["UPPERTAIL_THREADS"] = threads_env
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "uppertail.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _fresh_process_payload(argv, threads_env=None):
    """The payload of ``argv`` run in a new interpreter."""
    child = _run_fresh(argv, threads_env)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parser_reuse_keeps_calls_apart(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("UPPERTAIL_THREADS", raising=False)
    cfg = tmp_path / "conf.txt"
    cfg.write_text("samples = 700\nseed = 4\nreplicas = 3\n")
    tail = ["tail", "--pattern", "star:2", "--n", "5", "--p", "0.3", "--threshold", "8"]
    calls = [
        # (argv, UPPERTAIL_THREADS, expected exit code)
        (["--config", str(cfg)] + tail, None, 0),
        (tail + ["--samples", "900"], None, 0),
        (["tail", "--n", "five"], None, "argparse"),
        (tail + ["--samples", "900"], "2", 0),
        (["--config", str(cfg), "analyze-pattern", "path:4"], "2", 0),
        (["rate", "--nonsense"], None, "argparse"),
        (tail + ["--samples", "900", "--method", "importance", "--planting", "hub:1"], None, 0),
        (tail + ["--samples", "900"], "0", 2),
        (tail + ["--method", "exact"], "3", 0),
    ]
    payloads = []
    for argv, threads_env, want in calls:
        if threads_env is None:
            monkeypatch.delenv("UPPERTAIL_THREADS", raising=False)
        else:
            monkeypatch.setenv("UPPERTAIL_THREADS", threads_env)
        if want == "argparse":
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            capsys.readouterr()
            continue
        code, payload = run_cli(capsys, *argv)
        assert code == want, argv
        if code == 0:
            payloads.append((argv, threads_env, payload))
    first, plain, threaded, pattern, importance, exact = (p for _, _, p in payloads)
    assert (first["inputs"]["samples"], first["seed"], first["inputs"]["replicas"]) == (700, 4, 3)
    assert (plain["inputs"]["samples"], plain["seed"], plain["inputs"]["replicas"]) == (900, 0, 32)
    assert (first["inputs"]["threads"], plain["inputs"]["threads"]) == (1, 1)
    assert threaded["inputs"]["threads"] == 2 and importance["inputs"]["threads"] == 1
    assert exact["inputs"]["threads"] == 3 and pattern["result"]["v"] == 4
    for argv, threads_env, payload in payloads:
        fresh = _fresh_process_payload(argv, threads_env)
        assert (fresh["inputs"], fresh["seed"], fresh["result"]) == (
            payload["inputs"], payload["seed"], payload["result"]), argv


# ---------------------------------------------------------------------------
# Automorphism counts under the node budget
# ---------------------------------------------------------------------------

@pytest.mark.child_process
def test_automorphism_counts_of_large_groups_return_at_once(tmp_path):
    # |Aut(H)| is a product of orbit sizes, each orbit found by existence
    # searches, so patterns with huge groups return at once: listing the
    # copies of star:11 in itself charged 108,505,123 nodes, over the
    # default budget of 5 * 10^7, and clique:12 has 12! copies.  The
    # timeouts catch a count that lists the automorphisms one at a time.
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    for spec, aut, mean in (("star:11", 39916800, "0.00205"), ("clique:12", 479001600, "4.75e-76"),
                            ("biclique:6,6", 1036800, "2.35e-34")):
        for argv in (
            ["analyze-pattern", spec],
            ["count", "--pattern", spec, "--graph", str(graph)],
            ["count", "--unlabelled", "--pattern", spec, "--graph", str(graph)],
        ):
            child = _run_fresh(argv, timeout=20)
            assert child.returncode == 0, (argv, child.stderr)
            assert json.loads(child.stdout)["result"]["aut"] == aut, argv
        # The Poisson fit gets past |Aut(H)| to its mean window, which the
        # mean 40^v 0.05^e / |Aut(H)| misses.
        child = _run_fresh(["experiment", "poisson-fit", "--pattern", spec, "--n", "40",
                            "--p", "0.05", "--samples", "10"], timeout=20)
        assert (child.returncode, child.stdout) == (2, ""), spec
        assert child.stderr == (f"error: expected unlabelled count {mean} outside window "
                                "(0.5, 20.0)\n"), spec

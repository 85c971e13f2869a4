"""The batched sample-and-count engine of the Monte Carlo estimators.

``_BatchCounter`` replaced several per-sample counting loops; those loops are
kept here as the reference oracle, and the engine must agree with them row
for row on batches converted from dense indicator matrices.  Its sparse
draws must have the right per-pair marginals and must not depend on the
batch size, and the single-graph samplers must return graph 0 of the same
stream.  Estimator outputs are pinned to the sparse-draw stream, and
large-n CLI runs must stay within fixed memory ceilings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uppertail.counting import count_labelled
from uppertail.errors import ValidationError
from uppertail.graphs import HostGraph, PatternGraph, clique, pattern_from_shorthand, star, star_arms
from uppertail.meanfield import EdgeProbabilityMatrix
from uppertail.montecarlo import (
    EdgeBatch,
    MAX_PAIRS,
    HighDegreeDetector,
    Planting,
    _BatchCounter,
    _SKIP_BLOCK,
    _draws,
    _pair_arrays,
    _pair_count,
    _pair_endpoints,
    _replica_rng,
    conditioned_structure_frequency,
    estimate_tail_direct,
    estimate_tail_importance,
    poisson_fit_experiment,
    sample_gnp,
    sample_inhom,
    star_count_samples,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Reference oracle: the per-sample counters the engine replaced
# ---------------------------------------------------------------------------

def oracle_degrees(n, present):
    pair_u, pair_v = _pair_arrays(n)
    return np.array(
        [np.bincount(pair_u[row], minlength=n) + np.bincount(pair_v[row], minlength=n)
         for row in present],
        dtype=np.int64,
    )


def oracle_counts(pattern, n, present):
    """Labelled counts per row: degree falling factorials for stars, Python
    bitset rows for triangles, and the generic counter otherwise."""
    pair_u, pair_v = _pair_arrays(n)
    r = star_arms(pattern)
    triangle = pattern.vertex_count == 3 and pattern.edge_count == 3
    out = []
    for row in present:
        edge_u, edge_v = pair_u[row], pair_v[row]
        if r is not None:
            deg = np.bincount(edge_u, minlength=n) + np.bincount(edge_v, minlength=n)
            value = np.ones(n, dtype=np.int64)
            for i in range(r):
                value *= deg - i
            out.append(int(value.sum()))
        elif triangle:
            us, vs = edge_u.tolist(), edge_v.tolist()
            rows = [0] * n
            for a, b in zip(us, vs):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
            unlabelled = sum((rows[a] & rows[b]).bit_count() for a, b in zip(us, vs)) // 3
            out.append(6 * unlabelled)
        else:
            out.append(count_labelled(pattern, HostGraph(n, zip(edge_u.tolist(), edge_v.tolist()))))
    return np.array(out, dtype=np.int64)


def as_batch(present):
    """The ``EdgeBatch`` of a dense indicator matrix, one row per graph."""
    graph, pair = np.nonzero(present)
    return EdgeBatch(graph, pair, len(present))


def _planted_probs(n):
    """Per-pair probabilities with a probability-1 hub and a boosted row."""
    pair_u, pair_v = _pair_arrays(n)
    planted = EdgeProbabilityMatrix.planted(n, 0.15, hubs=[1], boosted=0, boosted_value=0.7)
    return planted.to_dense()[pair_u, pair_v]


def _batches(n, seed):
    """Seeded indicator batches: constant p and one planted matrix."""
    rng = np.random.default_rng(seed)
    rows = 40 if n < 40 else 12
    return [rng.random((rows, n * (n - 1) // 2)) < p for p in (0.3, 0.1, _planted_probs(n))]


SPECS = ["star:2", "star:3", "path:4", "cycle:4", "clique:3"]
P3_K1 = PatternGraph(4, [(0, 1), (1, 2)])  # a path plus an isolated vertex


@pytest.mark.parametrize(
    "spec, n", [(spec, n) for n in (5, 12, 40) for spec in SPECS] + [("P3+K1", 5)])
def test_counts_and_degrees_match_oracle(spec, n):
    pattern = P3_K1 if spec == "P3+K1" else pattern_from_shorthand(spec)
    counter = _BatchCounter(pattern, n)
    assert (counter.masks is not None) == (n <= 6)
    for present in _batches(n, 1000 * n + len(spec)):
        batch = as_batch(present)
        assert np.array_equal(counter.degrees(batch), oracle_degrees(n, present))
        assert np.array_equal(counter.counts(batch), oracle_counts(pattern, n, present))
        degrees = counter.degrees(batch)
        assert np.array_equal(counter.counts(batch, degrees), counter.counts(batch))


@pytest.mark.parametrize("n, p, rows", [(130, 0.1, 6), (130, 0.3, 3), (300, 0.3, 2)])
@pytest.mark.parametrize("spec", ["star:2", "star:3", "clique:3"])
def test_multiword_rows_match_oracle(spec, n, p, rows):
    # n > 64 spreads each bit row over several words; n = 300, p = 0.3 is a
    # dense point with about 13,000 edges and 120,000 triangles per graph.
    pattern = pattern_from_shorthand(spec)
    counter = _BatchCounter(pattern, n)
    present = np.random.default_rng(n + rows).random((rows, n * (n - 1) // 2)) < p
    batch = as_batch(present)
    assert np.array_equal(counter.degrees(batch), oracle_degrees(n, present))
    assert np.array_equal(counter.counts(batch), oracle_counts(pattern, n, present))


def test_graphs_without_edges():
    counter = _BatchCounter(clique(3), 9)
    present = np.zeros((4, 36), dtype=bool)
    present[2] = True
    assert counter.counts(as_batch(present)).tolist() == [0, 0, 9 * 8 * 7, 0]
    assert counter.counts(as_batch(present[:0])).tolist() == []


def test_batch_rows_rule():
    assert _BatchCounter(star(2), 40).rows == 4096
    assert _BatchCounter(star(2), 63).rows == 4096  # 1953 pairs
    assert _BatchCounter(star(2), 64).rows == 8_000_000 // 2016
    assert _BatchCounter(star(2), 2000).rows == 4


def _drawn(counter, probs, m, rows, seed=7):
    """(graph, pair) of m graphs drawn in batches of ``rows`` graphs, with
    graph numbers counted over the whole draw, and the batch sizes."""
    rng = np.random.Generator(np.random.Philox(seed))
    graphs, pairs, sizes = [], [], []
    for batch in _draws(rng, probs, len(counter.pair_u), m, rows):
        graphs.append(batch.graph + sum(sizes))
        pairs.append(batch.pair)
        sizes.append(batch.size)
    return np.concatenate(graphs), np.concatenate(pairs), sizes


def test_draws_do_not_depend_on_batching():
    counter = _BatchCounter(star(2), 12)
    for probs in (0.3, _planted_probs(12)):
        graph, pair, sizes = _drawn(counter, probs, 10, 10)
        assert sizes == [10]
        assert np.all(np.diff(graph * 66 + pair) > 0)  # sorted by (graph, pair)
        for rows in (1, 3, 7, 4096):
            got_graph, got_pair, sizes = _drawn(counter, probs, 10, rows)
            assert sizes == [min(rows, 10 - done) for done in range(0, 10, rows)]
            assert np.array_equal(got_graph, graph) and np.array_equal(got_pair, pair)
        # A stream long enough to need several skip blocks gives the same edges.
        graph, pair, _ = _drawn(counter, probs, 9000, 4096, seed=3)
        assert len(pair) > 2 * _SKIP_BLOCK
        got_graph, got_pair, _ = _drawn(counter, probs, 9000, 1000, seed=3)
        assert np.array_equal(got_graph, graph) and np.array_equal(got_pair, pair)


@pytest.mark.parametrize("case", ["constant", "hub:4:0.55", "planted"])
def test_draws_have_the_right_marginals(case):
    n, m = (6, 40000) if case == "hub:4:0.55" else (12, 20000)
    counter = _BatchCounter(star(2), n)
    if case == "constant":
        probs = np.full(len(counter.pair_u), 0.3)
        drawn = 0.3
    elif case == "planted":
        probs = drawn = _planted_probs(n)
        assert probs.max() == 1.0 and 0.7 in probs and 0.15 in probs
    else:
        boosted = Planting.parse(case).boosted_pair_mask(counter.pair_u, counter.pair_v)
        probs = drawn = np.where(boosted, 0.55, 0.2)
    _, pair, _ = _drawn(counter, drawn, m, counter.rows)
    freq = np.bincount(pair, minlength=len(probs)) / m
    se = np.sqrt(probs * (1 - probs) / m)
    assert np.all(np.abs(freq - probs) <= 5 * se), np.max(np.abs(freq - probs) / np.maximum(se, 1e-12))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_pair_endpoints_follow_triu_order(n):
    u, v = _pair_endpoints(np.arange(n * (n - 1) // 2), n)
    want_u, want_v = np.triu_indices(n, k=1)
    assert np.array_equal(u, want_u) and np.array_equal(v, want_v)


def _graph_0_of_five(probs, n, seed, rows):
    """The edges of graph 0 of five graphs drawn from replica 0 of ``seed``."""
    batch = next(_draws(_replica_rng(seed, 0), probs, n * (n - 1) // 2, 5, rows))
    u, v = _pair_endpoints(batch.pair[batch.graph == 0], n)
    return set(zip(u.tolist(), v.tolist()))


@pytest.mark.parametrize("rows", [1, 5])
def test_sample_gnp_is_graph_0_of_the_estimator_stream(rows):
    for n, p, seed in [(12, 0.3, 1), (40, 0.05, 2), (200, 0.5, 3), (30, 1.0, 4)]:
        assert set(sample_gnp(n, p, seed).edges()) == _graph_0_of_five(p, n, seed, rows)


@pytest.mark.parametrize("rows", [1, 5])
def test_sample_inhom_is_graph_0_of_the_estimator_stream(rows):
    # Thinning uniforms follow each block of gaps, and a block is shorter than
    # _SKIP_BLOCK when the whole draw needs fewer candidates; at n = 400 a
    # single graph already fills a block, so one graph and five share blocks.
    n, seed = 400, 6
    planted = EdgeProbabilityMatrix.planted(n, 0.15, hubs=[1], boosted=0, boosted_value=0.7)
    assert n * (n - 1) // 2 > _SKIP_BLOCK
    graph = sample_inhom(planted, seed)
    assert set(graph.edges()) == _graph_0_of_five(_planted_probs(n), n, seed, rows)
    assert graph.degree(1) == n - 2 + graph.has_edge(0, 1)


def test_samplers_reject_bad_sizes():
    with pytest.raises(ValidationError):
        sample_gnp(0, 0.5, 1)
    with pytest.raises(ValidationError):
        sample_gnp(-3, 0.5, 1)
    with pytest.raises(ValidationError):
        _BatchCounter(star(2), 0)
    with pytest.raises(ValidationError):
        _BatchCounter(star(2), -1)
    with pytest.raises(ValidationError):
        sample_inhom(EdgeProbabilityMatrix.planted(4001, 0.1, hubs=[0]), 1)


def test_pinned_estimator_outputs():
    est = estimate_tail_direct(star(2), 40, 0.05, 321, 20000, 0)
    assert (est.point, est.extras["accepted"]) == (0.0027, 54)
    assert estimate_tail_direct(clique(3), 12, 0.3, 60, 3000, 3).extras["accepted"] == 474
    est = estimate_tail_importance(star(2), 6, 0.2, 50, Planting.parse("hub:4:0.55"), 20000, 5)
    assert est.point == 1.001893772843835e-04
    assert est.extras["effective_samples"] == 123.93297752574415
    out = conditioned_structure_frequency(
        star(2), 40, 0.05, 1.0, HighDegreeDetector(8), 160000, 0, min_accepted=160000
    )
    got = (out.accepted, out.freq_conditioned, out.freq_unconditioned)
    assert got == (398, 0.4221105527638191, 0.0233)
    counts = star_count_samples(EdgeProbabilityMatrix.constant(30, 0.3), 2, 4000, 5)
    assert int(counts.sum()) == 8_749_158
    fit = poisson_fit_experiment(clique(3), 200, 18 ** (1 / 3) / 200, 10000, 0)
    assert (fit.mean, fit.tv_distance) == (2.9281, 0.02736365843603086)


# Runs the CLI, then reports the process's own peak RSS on stderr.  The
# ru_maxrss that wait4 returns for a child also counts its parent's peak,
# which the child inherits across fork and exec.
_LAUNCHER = """
import sys
from uppertail.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _run_child(argv):
    """Run the CLI in a child process; return its exit code, its own peak RSS
    in MB, its stdout and the stderr lines before the peak."""
    env = {k: v for k, v in os.environ.items() if k != "UPPERTAIL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv], capture_output=True, text=True, env=env
    )
    *lines, peak = child.stderr.splitlines()  # "VmHWM:  123456 kB"
    return child.returncode, int(peak.split()[1]) / 1024, child.stdout, lines


def _peak_rss_mb(argv):
    """The child's own peak RSS in MB and its result."""
    code, peak_mb, stdout, lines = _run_child(argv)
    assert code == 0, lines
    return peak_mb, json.loads(stdout)["result"]


def test_peak_rss_is_the_childs_own():
    # About 300 MB held here must not show in a small child's peak.
    ballast = np.ones(300 * 2**20 // 8)
    peak_mb, result = _peak_rss_mb(["analyze-pattern", "cycle:4"])
    assert result["v"] == 4 and ballast.sum() == len(ballast)
    assert peak_mb < 150, peak_mb


def test_large_n_tail_memory():
    # A whole-budget batch at n = 2000 would hold 64 x 1,999,000 pair slots;
    # batches sized by the pair count stay far below that.
    argv = ["tail", "--pattern", "star:2", "--n", "2000", "--p", "0.001", "--delta", "1",
            "--samples", "64", "--replicas", "1", "--threads", "1"]
    peak_mb, result = _peak_rss_mb(argv)
    assert result["samples"] == 64
    assert peak_mb < 400, peak_mb


def test_dense_triangle_tail_memory():
    # Four graphs of G(1000, 0.5) hold about a million edges, a few int64
    # arrays of 8 MB each; their bit rows take 0.5 MB, and the gathered words
    # are counted in 2 MB chunks.  A (batch, n, n) tensor of one byte per pair
    # would add 64 MB, and uint64 words per pair 512 MB.
    argv = ["tail", "--pattern", "clique:3", "--n", "1000", "--p", "0.5", "--delta", "0",
            "--samples", "4", "--replicas", "1", "--threads", "1"]
    peak_mb, result = _peak_rss_mb(argv)
    assert result["samples"] == 4
    assert peak_mb < 250, peak_mb


def test_too_many_vertex_pairs_is_refused_up_front():
    # n = 10^6 has 5 * 10^11 vertex pairs: the pair tables alone would take
    # 3.64 TiB.  The run is refused before any table is built.
    argv = ["tail", "--pattern", "star:2", "--n", "1000000", "--p", "1e-6", "--delta", "1",
            "--samples", "1", "--replicas", "1", "--threads", "1"]
    code, peak_mb, stdout, lines = _run_child(argv)
    assert (code, stdout) == (3, "")
    assert lines == [f"resource error: n = 1000000 has 499999500000 vertex pairs; "
                     f"a sampled run holds at most {MAX_PAIRS} (n up to 10,000)"]
    assert peak_mb < 150, peak_mb
    assert _pair_count(10_000) <= MAX_PAIRS < _pair_count(10_001)


def test_count_graph_file_memory(tmp_path):
    # G(2000, 0.5) as a file: about 10^6 edges in 8.9 MB of text.  The
    # neighbour sets are the one structure that must scale with the edges;
    # the file is parsed in blocks, never held as lines or string pairs.
    n = 2000
    rng = np.random.default_rng(2000)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < 0.5
    edges = np.column_stack([u[keep], v[keep]])
    graph = tmp_path / "g.txt"
    np.savetxt(graph, edges, fmt="%d", header=f"n {n}", comments="")
    del u, v, keep
    peak_mb, result = _peak_rss_mb(["count", "--pattern", "path:2", "--graph", str(graph)])
    assert result["count"] == 2 * len(edges)
    assert peak_mb < 200, peak_mb

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uppertail.errors import ResourceBudgetError, ValidationError
from uppertail.graphs import HostGraph, PatternGraph, clique, cycle, path, star
from uppertail.counting import (
    count_labelled,
    count_labelled_using_edge,
    star_count_exact,
    star_count_using_edge,
    unlabelled_count,
)
from uppertail import counting
from uppertail.patterns import (
    _alpha,
    embedding_upper_bound,
    fractional_independence_number,
    independence_polynomial,
)
from conftest import host_of, seeded_hosts

K3_HOST = host_of(clique(3))
EDGE = PatternGraph(2, [(0, 1)])


def test_count_labelled_examples():
    assert count_labelled(EDGE, K3_HOST) == 6
    assert count_labelled(star(2), K3_HOST) == 6
    assert count_labelled(clique(3), HostGraph.complete(4)) == 24


def test_counting_leaves_no_reference_cycles():
    # A count must free the host rows its search closures hold when it
    # returns; left to the cyclic collector, a long-lived process holds the
    # previous host's neighbour sets while it builds the next.  The
    # automorphism searches, which a leaf ends by raising, must not leave a
    # cycle either.
    host = HostGraph(30, [(i, (7 * i + 3) % 30) for i in range(30) if i != (7 * i + 3) % 30]
                     + [(i, i + 1) for i in range(29)])
    enabled = gc.isenabled()
    gc.disable()
    try:
        for pattern in (path(4), cycle(4), star(3), clique(3)):
            count_labelled(pattern, host)  # plans are cached on the first call
            gc.collect()
            count_labelled(pattern, host)
            count_labelled_using_edge(pattern, host, (0, 1))
            counting._copy_edge_sets(pattern, host, None)
            counting.automorphism_count(pattern)
            assert gc.collect() == 0
        # Nor may the exact pattern analyses: the independence polynomial's
        # recursion is a closure, and alpha*'s matching is not.
        for pattern in (path(5), cycle(4), star(3)):
            _alpha.cache_clear()
            fractional_independence_number(pattern)
            independence_polynomial(pattern)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_count_using_edge_examples():
    assert count_labelled_using_edge(EDGE, K3_HOST, (0, 1)) == 2
    assert count_labelled_using_edge(star(2), K3_HOST, (0, 1)) == 4
    pendant = HostGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert count_labelled_using_edge(clique(3), pendant, (2, 3)) == 0
    with pytest.raises(ValidationError):
        count_labelled_using_edge(EDGE, K3_HOST, (0, 4))


def test_count_unlabelled_examples():
    k4 = HostGraph.complete(4)
    assert unlabelled_count(clique(3), count_labelled(clique(3), k4)) == 4
    assert unlabelled_count(EDGE, count_labelled(EDGE, K3_HOST)) == 3
    assert unlabelled_count(star(2), count_labelled(star(2), K3_HOST)) == 3


def test_unlabelled_count_refuses_a_non_divisible_count():
    assert unlabelled_count(path(3), 4) == 2
    with pytest.raises(RuntimeError, match="not divisible"):
        unlabelled_count(path(3), 3)
    # The check is a raise, not an assert, so ``python -O`` keeps it.
    paths = [str(Path(counting.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("from uppertail.counting import unlabelled_count\n"
            "from uppertail.graphs import path\n"
            "unlabelled_count(path(3), 3)")
    child = subprocess.run([sys.executable, "-O", "-c", code],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 1 and "not divisible" in child.stderr


def test_star_count_examples():
    assert star_count_exact(2, K3_HOST) == 6
    assert star_count_exact(3, host_of(star(3))) == 6
    assert star_count_exact(2, HostGraph(3, [(0, 1), (1, 2)])) == 2


def test_embedding_bound_examples():
    assert embedding_upper_bound(EDGE, K3_HOST) == 6
    assert embedding_upper_bound(star(2), K3_HOST) == 18
    assert embedding_upper_bound(clique(3), HostGraph.complete(4)) == 41


def test_star_global_bound_examples():
    # The star count is at most e(G)^r.
    for r, host in ((2, K3_HOST), (3, host_of(star(3))), (2, HostGraph(2, [(0, 1)]))):
        assert star_count_exact(r, host) <= host.edge_count**r


def test_fuzzed_counting_identities():
    patterns = [clique(3), path(4), star(3), cycle(4)]
    for host in seeded_hosts(12, (6, 10), 0.45, 101):
        for pat in patterns:
            total = count_labelled(pat, host)
            # edge-sum identity
            edge_sum = sum(
                count_labelled_using_edge(pat, host, e) for e in host.edges()
            )
            assert edge_sum == pat.edge_count * total
            # embedding bound dominates
            assert total <= embedding_upper_bound(pat, host)
            # divisibility by the automorphism count (raises if it fails)
            unlabelled_count(pat, total)
        for r in (2, 3, 4):
            assert star_count_exact(r, host) == count_labelled(star(r), host)
            assert star_count_exact(r, host) <= host.edge_count**r
            for e in host.edges():
                closed = star_count_using_edge(r, host, e)
                assert closed == count_labelled_using_edge(star(r), host, e)


def test_count_monotone_under_edge_addition():
    host = HostGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    pat = path(4)
    base = count_labelled(pat, host)
    grown = HostGraph(6, host.edges() + [(4, 5)])
    assert count_labelled(pat, grown) >= base


def test_counting_budget():
    with pytest.raises(ResourceBudgetError):
        count_labelled(path(4), HostGraph.complete(12), budget=10)


def test_counting_on_set_backed_host():
    n = 10_003
    # K4 on {0..3} plus a pendant, embedded in a huge sparse host
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(3, n - 1)]
    host = HostGraph(n, edges)
    assert count_labelled(clique(3), host) == 24
    assert star_count_exact(2, host) == count_labelled(star(2), host)
    assert count_labelled_using_edge(clique(3), host, (3, n - 1)) == 0


def test_count_labelled_brute_force():
    import itertools
    import random as _random

    rng = _random.Random(2718)
    for _ in range(25):
        nv = rng.randint(2, 5)
        pattern = PatternGraph(
            nv, [e for e in itertools.combinations(range(nv), 2) if rng.random() < 0.55]
        )
        nh = rng.randint(nv, 7)
        host = HostGraph(
            nh, [e for e in itertools.combinations(range(nh), 2) if rng.random() < 0.5]
        )
        want = 0
        for image in itertools.permutations(range(nh), nv):
            if all(host.has_edge(image[x], image[y]) for x, y in pattern.edges):
                want += 1
        assert count_labelled(pattern, host) == want


def test_star_closed_forms_refuse_bad_inputs():
    with pytest.raises(ValidationError, match=r"edge \(0,3\) not in host graph"):
        star_count_using_edge(2, host_of(path(4)), (0, 3))
    with pytest.raises(ValidationError, match=r"star arm count must lie in \[2, inf\), got 1"):
        star_count_exact(1, K3_HOST)

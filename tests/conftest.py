import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from uppertail.graphs import HostGraph, PatternGraph


@pytest.fixture
def rng():
    return random.Random(20240817)


def host_of(pattern: PatternGraph) -> HostGraph:
    """The pattern as a host graph on the same vertices."""
    return HostGraph(pattern.vertex_count, pattern.edges)


def seeded_hosts(count, n_range, p, seed):
    """Deterministic battery of sparse random hosts for fuzzing."""
    rng = random.Random(seed)
    hosts = []
    for _ in range(count):
        n = rng.randint(*n_range)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        hosts.append(HostGraph(n, edges))
    return hosts

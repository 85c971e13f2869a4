"""The four workloads: seeded inputs, oracle values, and one pass of CLI calls.

Each workload has ``prepare(seed, size, workdir) -> plan`` (run in a fresh
interpreter, outside the timed region: it writes the input files and the
independent oracle values into a JSON-able plan) and
``run_pass(plan, workdir, session) -> facts`` (a fixed list of
``session.call(label, argv)`` CLI invocations, each checked against the
plan by ``session.check``).  ``facts`` are counts read from the outputs that
the per-layer metrics need.  Sizes are fixed per workload, and hosts have a
fixed edge count, so the work in a pass does not drift with the seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracles

# Statistical checks allow Z standard errors.  Every run makes about a dozen
# such checks and the benchmark is run on many seeds, so at 3 SE a correct
# program would fail some run by chance; at 5 SE a false alarm is below one in
# a million checks, and a bias beyond 5 SE still fails.
Z = 5.0


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _cli_seed(seed: int, k: int) -> int:
    return seed * 16 + k


def _path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name)


# ---------------------------------------------------------------------------
# poisson_fit: criterion-8 parameters; montecarlo does nearly all the work
# ---------------------------------------------------------------------------

class PoissonFit:
    SIZES = {"full": {"n": 200, "samples": 10_000}, "tiny": {"n": 200, "samples": 2000}}

    @staticmethod
    def prepare(seed, size, workdir):
        cfg = PoissonFit.SIZES[size]
        n = cfg["n"]
        p = 18 ** (1 / 3) / n  # unlabelled triangle mean ~ 3
        mean, var = oracles.triangle_mean_var(n, p)
        return {"n": n, "p": p, "samples": cfg["samples"], "seed": _cli_seed(seed, 0),
                "oracle": {"mean": mean, "var": var}}

    @staticmethod
    def run_pass(plan, workdir, session):
        out = session.call("fit", [
            "experiment", "poisson-fit", "--pattern", "clique:3", "--n", str(plan["n"]),
            "--p", repr(plan["p"]), "--samples", str(plan["samples"]),
            "--seed", str(plan["seed"]), "--threads", "1"])
        res = out["result"] if out else {}
        se = math.sqrt(plan["oracle"]["var"] / plan["samples"])
        session.check("fit.samples", res.get("samples") == plan["samples"])
        session.check("fit.tv", res.get("tv_distance", 1.0) < 0.05)
        session.check("fit.mean", abs(res.get("mean", -1e9) - plan["oracle"]["mean"]) <= 4 * se)
        return {"graphs": plan["samples"]}


# ---------------------------------------------------------------------------
# tail_estimators: tiny dense graphs, mask tables, star closed forms
# ---------------------------------------------------------------------------

# The criterion-5 direct-vs-exact battery: (pattern, n, p, threshold).
BATTERY = [
    ("path:2", 2, 0.3, 2),
    ("star:2", 3, 0.5, 2),
    ("clique:3", 3, 0.5, 6),
    ("clique:3", 4, 0.3, 6),
    ("path:4", 5, 0.4, 12),
    ("cycle:4", 5, 0.35, 8),
    ("star:3", 6, 0.2, 24),
    ("clique:4", 6, 0.45, 24),
    ("star:2", 6, 0.2, 20),
    ("path:2", 6, 0.5, 20),
]
RARE = ("star:2", 6, 0.2, 50, "hub:4:0.55")  # exact tail ~ 1e-4


class TailEstimators:
    SIZES = {
        "full": {"direct": 20_000, "importance": 20_000, "star_direct": 20_000,
                 "conditioned": 160_000, "min_accepted": 300, "reference": 100_000},
        "tiny": {"direct": 4_000, "importance": 20_000, "star_direct": 4_000,
                 "conditioned": 50_000, "min_accepted": 30, "reference": 20_000},
    }
    STAR = {"n": 40, "p": 0.05, "delta": 1.0, "detector": 8}
    MEANFIELD = {"r": 2, "n": 1_000_000, "p": 1e6 ** -0.7, "delta": 1.0}

    @staticmethod
    def prepare(seed, size, workdir):
        cfg = TailEstimators.SIZES[size]
        star = TailEstimators.STAR
        threshold = math.ceil((1 + star["delta"]) * star["n"] ** 3 * star["p"] ** 2)
        ref = oracles.star2_reference(star["n"], star["p"], threshold, star["detector"],
                                      cfg["reference"], _rng(seed, 1))
        spec, n, p, t, _ = RARE
        return {
            "sizes": cfg,
            "seed": _cli_seed(seed, 0),
            "exact": [oracles.exact_tail(s, nn, pp, tt) for s, nn, pp, tt in BATTERY],
            "rare_exact": oracles.exact_tail(spec, n, p, t),
            "star_threshold": threshold,
            "star_reference": ref,
        }

    @staticmethod
    def run_pass(plan, workdir, session):
        cfg = plan["sizes"]
        seed = plan["seed"]
        graphs = 0
        for k, ((spec, n, p, t), want) in enumerate(zip(BATTERY, plan["exact"])):
            base = ["tail", "--pattern", spec, "--n", str(n), "--p", repr(p), "--threshold", str(t)]
            exact = session.call(f"battery.exact.{k}", base + ["--method", "exact"])
            got = exact["result"]["point"] if exact else -1.0
            session.check(f"battery.exact.{k}", abs(got - want) <= 1e-12 + 1e-9 * want)
            direct = session.call(f"battery.direct.{k}", base + [
                "--method", "direct", "--samples", str(cfg["direct"]),
                "--seed", str(seed + k), "--threads", "1"])
            point = direct["result"]["point"] if direct else -1.0
            se = math.sqrt(want * (1 - want) / cfg["direct"])
            session.check(f"battery.direct.{k}", abs(point - want) <= Z * se + 1e-12)
            graphs += cfg["direct"]

        spec, n, p, t, planting = RARE
        want = plan["rare_exact"]
        base = ["tail", "--pattern", spec, "--n", str(n), "--p", repr(p), "--threshold", str(t)]
        exact = session.call("rare.exact", base + ["--method", "exact"])
        session.check("rare.exact", exact is not None
                      and abs(exact["result"]["point"] - want) <= 1e-9 * want)
        imp = session.call("rare.importance", base + [
            "--method", "importance", "--planting", planting,
            "--samples", str(cfg["importance"]), "--seed", str(seed), "--threads", "1"])
        res = imp["result"] if imp else {"point": -1.0, "stderr": 1.0, "effective_samples": 0}
        session.check("rare.importance", abs(res["point"] - want) <= Z * res["stderr"])
        direct_se = math.sqrt(want * (1 - want) / cfg["importance"])
        session.check("rare.se_reduction", res["stderr"] > 0 and direct_se / res["stderr"] >= 5)
        graphs += cfg["importance"]

        star = TailEstimators.STAR
        ref = plan["star_reference"]
        common = ["--pattern", "star:2", "--n", str(star["n"]), "--p", repr(star["p"]),
                  "--delta", repr(star["delta"])]
        direct = session.call("star.direct", ["tail"] + common + [
            "--method", "direct", "--samples", str(cfg["star_direct"]),
            "--seed", str(seed), "--threads", "1"])
        res = direct["result"] if direct else {"point": -1.0}
        session.check("star.threshold",
                      direct is not None and direct["inputs"]["threshold"] == plan["star_threshold"])
        se = math.sqrt(ref["tail"] * (1 - ref["tail"]) * (1 / cfg["star_direct"] + 1 / ref["samples"]))
        session.check("star.direct", abs(res["point"] - ref["tail"]) <= Z * se)
        graphs += cfg["star_direct"]

        # --min-accepted equal to --samples draws the whole budget, so the work
        # does not depend on when the 300th acceptance arrives (P(UT) ~ 0.0025
        # gives ~400 accepted; fewer than 300 is a 5-sigma event).
        cond = session.call("star.conditioned", ["experiment", "conditioned"] + common + [
            "--detector", f"highdeg:{star['detector']}", "--samples", str(cfg["conditioned"]),
            "--min-accepted", str(cfg["conditioned"]), "--seed", str(seed), "--threads", "1"])
        res = cond["result"] if cond else {"accepted": 0, "samples": 1, "freq_conditioned": 0.0,
                                          "freq_unconditioned": 1.0, "acceptance": 0.0}
        session.check("star.accepted", res["accepted"] >= cfg["min_accepted"])
        session.check("star.directional", res["freq_conditioned"] > res["freq_unconditioned"])
        q = ref["high_degree"]
        se = math.sqrt(q * (1 - q) * (1 / res["samples"] + 1 / ref["samples"]))
        session.check("star.unconditioned", abs(res["freq_unconditioned"] - q) <= Z * se)
        graphs += res["samples"]

        _analytic_calls(session)
        return {"graphs": graphs, "effective": imp["result"]["effective_samples"] if imp else 0.0,
                "weighted": cfg["importance"], "accepted": res["accepted"], "drawn": res["samples"]}


def _analytic_calls(session):
    """The README's first calls, checked against closed forms."""
    out = session.call("analytic.pattern", ["analyze-pattern", "star:3"])
    res = out["result"] if out else {}
    session.check("analytic.pattern", all(res.get(k) == v for k, v in {
        "v": 4, "e": 3, "max_degree": 3, "aut": 6, "regular": False, "connected": True,
        "bipartite": True, "alpha_star": 3.0}.items()))

    # rate_localized_I(P4, 1) = 1/2 (criterion 1 golden value).
    out = session.call("analytic.rate.path4", ["rate", "--pattern", "path:4", "--delta", "1"])
    session.check("analytic.rate.path4", out is not None and abs(out["result"]["rate"] - 0.5) <= 1e-9)

    # Star at rho = n p^2 = 1: rate (floor(d rho) + frac^(1/2)) / (2 rho^(1/2)),
    # speed n^(3/2) p log n.
    n, p = 1_000_000, 1e-3
    out = session.call("analytic.rate.star2", [
        "rate", "--pattern", "star:2", "--delta", "1", "--n", str(n), "--p", repr(p)])
    res = out["result"] if out else {}
    speed = n**1.5 * p * math.log(n)
    session.check("analytic.rate.star2", res.get("regime") == "LocalizedII-Star"
                  and abs(res.get("rate", 0) - 0.5) <= 1e-9
                  and abs(res.get("speed", 0) - speed) <= 1e-9 * speed)

    # Criterion 6: bound within 15 % of (1/2) sqrt(delta) n^1.5 p log n.
    mf = TailEstimators.MEANFIELD
    out = session.call("analytic.meanfield", [
        "meanfield", "--r", str(mf["r"]), "--n", str(mf["n"]), "--p", repr(mf["p"]),
        "--delta", repr(mf["delta"])])
    res = out["result"] if out else {}
    theory = 0.5 * math.sqrt(mf["delta"]) * mf["n"] ** 1.5 * mf["p"] * math.log(mf["n"])
    session.check("analytic.meanfield", abs(res.get("theory_rate", 0) - theory) <= 1e-9 * theory
                  and 0.85 <= res.get("psi_upper", 0) / theory <= 1.15
                  and res.get("planted", {}).get("meets_target") is True)


# ---------------------------------------------------------------------------
# host_count: exact counting on one bitset host and one sets host
# ---------------------------------------------------------------------------

class HostCount:
    SIZES = {
        "full": {"n": 1500, "p": 0.008, "sets_n": 10_500, "sets_m": 12_000},
        "tiny": {"n": 300, "p": 0.02, "sets_n": 10_001, "sets_m": 3_000},
    }
    PATTERNS = ("path:4", "cycle:4", "clique:3", "star:3")
    AUT = {"path:4": 2, "cycle:4": 8, "clique:3": 6, "star:3": 6}

    @staticmethod
    def prepare(seed, size, workdir):
        cfg = HostCount.SIZES[size]
        n = cfg["n"]
        m = round(cfg["p"] * n * (n - 1) / 2)
        edges = oracles.gnm_edges(n, m, _rng(seed, 2))
        oracles.write_graph(_path(workdir, "bitset.txt"), n, edges)
        deg = oracles.degrees(n, edges)
        # Pin the edge whose endpoints have the largest degree product.
        u, v = (int(x) for x in edges[np.argmax(deg[edges[:, 0]] * deg[edges[:, 1]])])
        sets_edges = oracles.gnm_edges(cfg["sets_n"], cfg["sets_m"], _rng(seed, 3))
        oracles.write_graph(_path(workdir, "sets.txt"), cfg["sets_n"], sets_edges)
        return {
            "counts": oracles.dense_counts(n, edges),
            "edge": [u, v],
            "edge_cycle4": oracles.cycle4_through_edge(n, edges, u, v),
            "sets_path4": oracles.sparse_path4(cfg["sets_n"], sets_edges),
        }

    @staticmethod
    def run_pass(plan, workdir, session):
        graph = _path(workdir, "bitset.txt")
        for spec in HostCount.PATTERNS:
            out = session.call(f"count.{spec}", ["count", "--pattern", spec, "--graph", graph])
            session.check(f"count.{spec}", out is not None
                          and out["result"]["count"] == plan["counts"][spec]
                          and out["result"]["aut"] == HostCount.AUT[spec])
        u, v = plan["edge"]
        out = session.call("count.edge.cycle:4", [
            "count", "--pattern", "cycle:4", "--graph", graph, "--edge", f"{u},{v}"])
        session.check("count.edge.cycle:4",
                      out is not None and out["result"]["count"] == plan["edge_cycle4"])
        out = session.call("count.sets.path:4", [
            "count", "--pattern", "path:4", "--graph", _path(workdir, "sets.txt")])
        session.check("count.sets.path:4",
                      out is not None and out["result"]["count"] == plan["sets_path4"])
        return {}


# ---------------------------------------------------------------------------
# core_prune: per-edge recounts under deletion, and greedy hub detection
# ---------------------------------------------------------------------------

TRI_BASE = 20_250_000  # the stream of the fixed triangle-core hosts


class CorePrune:
    SIZES = {
        "full": {"star_n": 180, "star_p": 0.04, "star_hosts": 3, "tri_n": 60, "tri_p": 0.12, "tri_hosts": 3,
                 "hub_n": 400, "hub_m": 4000, "hub_pool": 150, "hub_prefix": 100},
        "tiny": {"star_n": 80, "star_p": 0.08, "star_hosts": 2, "tri_n": 40, "tri_p": 0.15, "tri_hosts": 2,
                 "hub_n": 100, "hub_m": 600, "hub_pool": 40, "hub_prefix": 25},
    }
    STAR = {"r": 2, "delta": 4.0, "epsilon": 0.5}
    TRIANGLE = {"delta": 1.0, "epsilon": 0.05}

    @staticmethod
    def prepare(seed, size, workdir):
        from uppertail.meanfield import planted_star_optimizer
        from uppertail.montecarlo import sample_inhom

        cfg = CorePrune.SIZES[size]
        st, tr = CorePrune.STAR, CorePrune.TRIANGLE
        plan = {"sizes": cfg}

        # Star cores on hosts drawn from the planted optimizer's measure.  The
        # edge and deletion counts of one draw vary with the seed (about
        # +-4 %), and the work goes as their product; three draws per pass
        # average that out.
        n, p = cfg["star_n"], cfg["star_p"]
        planted = planted_star_optimizer(n, p, st["r"], st["delta"], st["epsilon"]).matrix
        threshold = oracles.star_core_threshold(st["r"], n, p, st["delta"], st["epsilon"])
        c_bar = 4.0 / st["delta"]
        plan["star"] = []
        for j in range(cfg["star_hosts"]):
            edges = sorted(sample_inhom(planted, _cli_seed(seed, 1 + j)).edges())
            oracles.write_graph(_path(workdir, f"star{j}.txt"), n, edges)
            removed = oracles.prune_star2(n, edges, threshold)
            kept = sorted(set(edges) - set(removed))
            oracles.write_graph(_path(workdir, f"star{j}_core.txt"), n, kept)
            deg = oracles.degrees(n, np.array(kept).reshape(-1, 2))
            plan["star"].append({
                "threshold": threshold, "removed": removed,
                "hubs": sorted(planted.hubs | {planted.boosted}),
                "edges": edges,
                "copy_condition": bool(int((deg * (deg - 1)).sum())
                                       >= st["delta"] * (1 - 3 * st["epsilon"]) * n**3 * p**2),
                "edge_condition": bool(len(kept) <= c_bar * n**1.5 * p * math.log(1 / p)),
            })

        # Triangle cores with generic per-edge counts, on fixed G(n, m) hosts
        # whose vertices the seed relabels.  Pruning rescans the edges in
        # label order up to the first violator, so its work depends on where
        # violators fall in that order.  On seeded G(n, m) hosts the number of
        # deletions also varies (124 to 173 over ten seeds at G(80, 316
        # edges)); relabelled fixed hosts keep it constant, and three hosts
        # per pass average out the scan positions.
        n, p = cfg["tri_n"], cfg["tri_p"]
        threshold = oracles.core_threshold(3, 3, 2, n, p, tr["delta"], tr["epsilon"])
        plan["triangle"] = {"threshold": threshold, "removed": []}
        for j in range(cfg["tri_hosts"]):
            base = oracles.gnm_edges(n, round(p * n * (n - 1) / 2), _rng(TRI_BASE, j))
            label = _rng(seed, 40 + j).permutation(n)
            edges = sorted(tuple(sorted((int(label[u]), int(label[v])))) for u, v in base)
            oracles.write_graph(_path(workdir, f"tri{j}.txt"), n, edges)
            removed = oracles.prune_triangle(n, edges, threshold)
            kept = sorted(set(edges) - set(removed))
            oracles.write_graph(_path(workdir, f"tri{j}_core.txt"), n, kept)
            plan["triangle"]["removed"].append(removed)

        # Greedy hub detection: the pool exceeds the exhaustive limit (20).
        n = cfg["hub_n"]
        edges = oracles.gnm_edges(n, cfg["hub_m"], _rng(seed, 5))
        oracles.write_graph(_path(workdir, "hub.txt"), n, edges)
        deg = oracles.degrees(n, edges)
        degree_threshold = int(np.sort(deg)[::-1][cfg["hub_pool"] - 1])
        pool = oracles.hub_pool(n, edges, degree_threshold)
        edge_threshold = oracles.cross_edges(n, edges, pool[: cfg["hub_prefix"]])
        witness = oracles.greedy_hub(n, edges, degree_threshold, edge_threshold)
        plan["hub"] = {"degree_threshold": degree_threshold, "edge_threshold": edge_threshold,
                       "witness": list(witness), "pool": len(pool)}
        return plan

    @staticmethod
    def run_pass(plan, workdir, session):
        st, tr = CorePrune.STAR, CorePrune.TRIANGLE
        cfg = plan["sizes"]
        deletions = 0

        n, p = cfg["star_n"], cfg["star_p"]
        args = ["--pattern", "star:2", "--star", "--delta", repr(st["delta"]),
                "--epsilon", repr(st["epsilon"]), "--n", str(n), "--p", repr(p)]
        for j, star in enumerate(plan["star"]):
            name = f"core.star.{j}"
            out = session.call(name, ["core", "--graph", _path(workdir, f"star{j}.txt")] + args)
            res = out["result"] if out else {}
            removed = [tuple(e) for e in res.get("removed", [])]
            deletions += len(removed)
            session.check(f"{name}.threshold", abs(res.get("threshold", 0) - star["threshold"])
                          <= 1e-12 * star["threshold"])
            session.check(f"{name}.sequence", removed == [tuple(e) for e in star["removed"]])
            hubs = set(star["hubs"])
            kept = set(map(tuple, star["edges"])) - set(removed)
            session.check(f"{name}.hub_edges", all(u in hubs or v in hubs for u, v in kept))
            session.check(f"{name}.conditions", res.get("copy_condition") is True
                          and res.get("edge_condition") is True
                          and star["copy_condition"] and star["edge_condition"])
            again = session.call(f"{name}.again",
                                 ["core", "--graph", _path(workdir, f"star{j}_core.txt")] + args)
            session.check(f"{name}.fixed_point",
                          again is not None and again["result"]["removed"] == [])

        tri = plan["triangle"]
        n, p = cfg["tri_n"], cfg["tri_p"]
        args = ["--pattern", "clique:3", "--delta", repr(tr["delta"]),
                "--epsilon", repr(tr["epsilon"]), "--n", str(n), "--p", repr(p)]
        for j, want in enumerate(tri["removed"]):
            name = f"core.triangle.{j}"
            out = session.call(name, ["core", "--graph", _path(workdir, f"tri{j}.txt")] + args)
            res = out["result"] if out else {}
            removed = [tuple(e) for e in res.get("removed", [])]
            deletions += len(removed)
            session.check(f"{name}.threshold",
                          abs(res.get("threshold", 0) - tri["threshold"]) <= 1e-12 * tri["threshold"])
            session.check(f"{name}.sequence", removed == [tuple(e) for e in want])
            again = session.call(f"{name}.again",
                                 ["core", "--graph", _path(workdir, f"tri{j}_core.txt")] + args)
            session.check(f"{name}.fixed_point",
                          again is not None and again["result"]["removed"] == [])

        hub = plan["hub"]
        out = session.call("detect.hub", [
            "detect", "--graph", _path(workdir, "hub.txt"), "--event", "hub",
            "--degree-threshold", str(hub["degree_threshold"]),
            "--edge-threshold", str(hub["edge_threshold"])])
        res = out["result"] if out else {}
        session.check("detect.hub", res.get("found") == "yes-with-witness"
                      and res.get("witness") == hub["witness"]
                      and res.get("certificate", {}).get("pool_size") == hub["pool"])
        return {"deletions": deletions}


WORKLOADS = {
    "poisson_fit": PoissonFit,
    "tail_estimators": TailEstimators,
    "host_count": HostCount,
    "core_prune": CorePrune,
}

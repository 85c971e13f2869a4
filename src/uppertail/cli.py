"""Command-line interface: one binary, JSON on stdout, logs on stderr.

Every invocation prints a single JSON object carrying the package version,
the fully-resolved inputs (defaults included, so runs are self-describing),
the seed, and wall-clock seconds.  Exit codes: 0 success, 2 validation
error, 3 resource budget exceeded.

A plain-text config file of ``key = value`` lines can override defaults;
the UPPERTAIL_THREADS environment variable sets the default thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import ResourceBudgetError, UpperTailError, ValidationError
from . import counting, meanfield, montecarlo, patterns, rates, structures
from .graphs import (
    HostGraph,
    load_edge_list,
    pattern_from_shorthand,
    star,
    star_arms,
    validate_vertex_set,
)

DEFAULTS = {
    "chi": 0.1,
    "epsilon": 0.05,
    "seed": 0,
    "samples": 100_000,
    "replicas": 32,
}


def _load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file is not UTF-8 text: {exc}") from None
        for line in lines:
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"bad config line: {text!r}")
            key, _, value = text.partition("=")
            out[key.strip()] = value.strip()
    return out


def _json_ready(value):
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def _emit(command: str, inputs: dict, result: dict, seed, started: float, output: str = None) -> int:
    payload = {
        "version": __version__,
        "command": command,
        "inputs": _json_ready(inputs),
        "seed": seed,
        "result": _json_ready(result),
        "wall_seconds": round(time.perf_counter() - started, 6),
    }
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def _load_graph(path: str) -> HostGraph:
    graph, _ = load_edge_list(path)
    return graph


def _echo(args, names: str, **computed) -> dict:
    """The payload's inputs: the named arguments as resolved, plus computed values."""
    return {**{name: getattr(args, name) for name in names.split()}, **computed}


def _parse_number(name: str, kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{name} must be a {kind.__name__}, got {text!r}") from None


def _parse_edge(text: str, host: HostGraph) -> tuple[int, int]:
    """``u,v`` with two in-range integer vertices, or a ValidationError."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--edge must be u,v, got {text!r}")
    u, v = (_parse_number("--edge vertex", int, part) for part in parts)
    validate_vertex_set(host, (u, v))
    return u, v


def _hub_degree_threshold(r: int, n: int, p: float, delta: float) -> float:
    """delta^(1/r) n^(1+1/r) p: the degree of the one hub that carries the
    K_{1,r} upper tail in the localized regime."""
    if r < 1:
        raise ValidationError("star arm count r must be at least 1")
    if not 0 <= delta < math.inf:
        raise ValidationError("delta must be nonnegative and finite")
    return delta ** (1.0 / r) * n ** (1 + 1.0 / r) * p


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze_pattern(args, started) -> int:
    pattern = pattern_from_shorthand(args.pattern)
    report = patterns.analyze_pattern(pattern)
    result = {
        "v": report.vertex_count,
        "e": report.edge_count,
        "max_degree": report.delta,
        "regular": report.regular,
        "connected": report.connected,
        "bipartite": report.bipartite,
        "strictly_balanced": report.strictly_balanced,
        "aut": report.automorphisms,
        "alpha_star": float(report.alpha_star),
        "alpha_star_exact": str(report.alpha_star),
        "h_star": {"v": report.h_star_vertex_count, "e": report.h_star_edge_count},
        "core_independence_polynomial": list(report.core_polynomial),
        "qh_size": report.qh_size,
        "sigma": None if report.sigma is None else float(report.sigma),
    }
    return _emit("analyze-pattern", {"pattern": args.pattern}, result, None, started, args.output)


def _cmd_rate(args, started) -> int:
    res = rates.rate_for(pattern_from_shorthand(args.pattern), args.delta, args.n, args.p,
                         args.rho, args.slack)
    regime = res.regime  # its speed is reported only where it backs the theorem used
    result = {
        "regime": regime and regime.tag,
        "margins": regime.margins if regime else {},
        "speed": res.speed(args.n, args.p) if regime and regime.tag == res.theorem else None,
        "rate": res.rate,
        "theorem": res.theorem,
        **res.details,
    }
    inputs = _echo(args, "pattern delta n p rho slack")
    return _emit("rate", inputs, result, None, started, args.output)


def _cmd_count(args, started) -> int:
    pattern = pattern_from_shorthand(args.pattern)
    host = _load_graph(args.graph)
    inputs = _echo(args, "pattern graph edge unlabelled budget")
    t0 = time.perf_counter()
    if args.edge is not None:
        edge = _parse_edge(args.edge, host)
        value = counting.count_labelled_using_edge(pattern, host, edge, args.budget)
    else:
        value = counting.count_labelled(pattern, host, args.budget)
    if args.unlabelled:
        value = counting.unlabelled_count(pattern, value)
    seconds = time.perf_counter() - t0
    result = {
        "count": value,
        "aut": counting.automorphism_count(pattern),
        "seconds": round(seconds, 6),
    }
    return _emit("count", inputs, result, None, started, args.output)


def _cmd_detect(args, started) -> int:
    host = _load_graph(args.graph)
    inputs = _echo(args, "graph event chi degree_threshold edge_threshold size_threshold threshold "
                         "u_size u_degree_threshold extra_degree_threshold n p delta r")
    if args.event == "hub":
        if args.degree_threshold is None or args.edge_threshold is None:
            raise ValidationError("hub detection needs --degree-threshold and --edge-threshold")
        verdict = structures.detect_hub(host, args.chi, args.edge_threshold, args.degree_threshold)
    elif args.event == "clique":
        if args.size_threshold is None:
            raise ValidationError("clique detection needs --size-threshold")
        verdict = structures.detect_clique(host, args.chi, args.size_threshold)
    elif args.event == "highdeg":
        threshold = args.threshold
        if threshold is None:
            if None in (args.n, args.p, args.delta, args.r):
                raise ValidationError(
                    "highdeg detection needs --threshold or all of --n/--p/--delta/--r"
                )
            threshold = _hub_degree_threshold(args.r, args.n, args.p, args.delta)
        verdict = structures.detect_high_degree(host, threshold)
    elif args.event == "tildehub":
        if None in (args.u_size, args.u_degree_threshold, args.extra_degree_threshold):
            raise ValidationError(
                "tildehub detection needs --u-size, --u-degree-threshold, --extra-degree-threshold"
            )
        verdict = structures.detect_tilde_hub(
            host, args.u_size, args.u_degree_threshold, args.extra_degree_threshold
        )
    else:
        raise ValidationError(f"unknown event {args.event!r}")
    result = {
        "found": verdict.found,
        "witness": verdict.witness,
        "certificate": verdict.certificate,
    }
    return _emit("detect", inputs, result, None, started, args.output)


def _cmd_core(args, started) -> int:
    host = _load_graph(args.graph)
    pattern = pattern_from_shorthand(args.pattern)
    r = star_arms(pattern)
    if (args.star or args.strong) and r is None:
        raise ValidationError("--star and --strong are star-specific; pattern must be a star")
    cfg = structures.CoreConfig(
        delta=args.delta,
        epsilon=args.epsilon,
        c_bar=args.c_bar,
        star_arms=r if args.star else None,
        c_bar_star=args.c_bar_star,
    )
    inputs = _echo(args, "graph pattern delta epsilon n p strong star budget",
                   c_bar=cfg.resolved_c_bar())
    if args.budget is not None and args.budget < 0:  # the star paths count in closed form
        raise ValidationError(f"counting budget must be nonnegative, got {args.budget}")
    if args.strong:
        result_obj = structures.extract_strong_core(host, r, cfg, args.n, args.p)
        inputs["c_bar_star"] = cfg.resolved_c_bar_star(r)
    else:
        result_obj = structures.extract_core(host, pattern, cfg, args.n, args.p, args.budget)
    result = {
        "threshold": result_obj.threshold,
        "edges_before": host.edge_count,
        "edges_after": result_obj.graph.edge_count,
        "removed": [list(e) for e in result_obj.removed],
        "copy_condition": result_obj.copy_condition,
        "edge_condition": result_obj.edge_condition,
    }
    return _emit("core", inputs, result, None, started, args.output)


def _cmd_meanfield(args, started) -> int:
    inputs = _echo(args, "r n p delta epsilon literal_reading")
    bound = meanfield.variational_upper_bound(args.n, args.p, args.r, args.delta)
    rho_hat, near_jump = rates.star_rho_proxy(args.n, args.p, args.r, args.delta)
    rate = rates.rate_for(star(args.r), args.delta, rho=rho_hat)
    theory = rate.rate * rate.speed(args.n, args.p)
    planted = meanfield.planted_star_optimizer(
        args.n, args.p, args.r, args.delta, args.epsilon, literal_reading=args.literal_reading
    )
    result = {
        "psi_upper": bound.value,
        "witness_summary": {"k": bound.hub_count, "boosted_value": bound.boosted_value},
        "theory_rate": theory,
        "ratio": bound.value / theory if theory > 0 else None,
        "near_jump": near_jump,
        "planted": {
            "k": planted.hub_count,
            "boosted_value": planted.boosted_value,
            "achieved_ratio": planted.achieved_ratio,
            "meets_target": planted.meets_target,
        },
    }
    return _emit("meanfield", inputs, result, None, started, args.output)


def _cmd_tail(args, started) -> int:
    pattern = pattern_from_shorthand(args.pattern)
    threshold = args.threshold
    if threshold is None:
        if args.delta is None:
            raise ValidationError("tail needs --threshold or --delta")
        threshold = montecarlo.threshold_for(args.delta, pattern, args.n, args.p)
    inputs = _echo(args, "pattern n p delta method planting samples replicas threads",
                   threshold=threshold)
    if args.method == "exact":
        estimate = montecarlo.exact_tail(pattern, args.n, args.p, threshold)
    elif args.method == "direct":
        estimate = montecarlo.estimate_tail_direct(
            pattern, args.n, args.p, threshold, args.samples, args.seed,
            replicas=args.replicas, threads=args.threads,
        )
    elif args.method == "importance":
        proposal = meanfield.EdgeProbabilityMatrix.planting(args.planting or "highdeg", args.n, args.p)
        estimate = montecarlo.estimate_tail_importance(
            pattern, args.n, args.p, threshold, proposal, args.samples, args.seed,
            replicas=args.replicas, threads=args.threads,
        )
    else:
        raise ValidationError(f"unknown method {args.method!r}")
    result = {
        "point": estimate.point,
        "stderr": estimate.stderr,
        "method": estimate.method,
        "samples": estimate.samples,
        **estimate.extras,
    }
    return _emit("tail", inputs, result, args.seed, started, args.output)


def _cmd_experiment(args, started) -> int:
    pattern = pattern_from_shorthand(args.pattern)
    if args.kind == "poisson-fit":
        fit = montecarlo.poisson_fit_experiment(
            pattern, args.n, args.p, args.samples, args.seed, threads=args.threads
        )
        inputs = _echo(args, "kind pattern n p samples")
        result = {"tv_distance": fit.tv_distance, "mean": fit.mean, "samples": fit.samples}
    elif args.kind == "conditioned":
        spec = args.detector or "highdeg"
        parts = spec.split(":")
        if parts[0] != "highdeg":
            raise ValidationError(f"unknown detector {spec!r}")
        if args.delta is None:
            raise ValidationError("conditioned experiment needs --delta")
        if len(parts) > 1:
            det_threshold = _parse_number("detector threshold", float, parts[1])
        else:
            r = star_arms(pattern)
            if r is None:
                raise ValidationError(
                    "the default highdeg threshold is for stars; give highdeg:<t> for this pattern"
                )
            det_threshold = _hub_degree_threshold(r, args.n, args.p, args.delta)
        detector = montecarlo.HighDegreeDetector(det_threshold)
        freqs = montecarlo.conditioned_structure_frequency(
            pattern, args.n, args.p, args.delta, detector, args.samples, args.seed,
            min_accepted=args.min_accepted,
        )
        inputs = _echo(args, "kind pattern n p delta samples min_accepted", detector=spec,
                       detector_threshold=det_threshold)
        result = {
            "freq_conditioned": freqs.freq_conditioned,
            "freq_unconditioned": freqs.freq_unconditioned,
            "accepted": freqs.accepted,
            "samples": freqs.samples,
            "acceptance": freqs.acceptance,
        }
    else:
        raise ValidationError(f"unknown experiment {args.kind!r}")
    return _emit("experiment", inputs, result, args.seed, started, args.output)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing reads it and never changes it, and each call's config file
    and environment are applied to its own namespace by ``_apply_defaults``."""
    parser = argparse.ArgumentParser(
        prog="uppertail",
        description="Upper-tail rates, counting, and structure analysis for sparse random graphs.",
    )
    parser.add_argument("--config", help="key = value file overriding defaults")
    parser.add_argument("--output", help="also write the JSON payload to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze-pattern", help="pattern metadata as JSON")
    sp.add_argument("pattern")

    sp = sub.add_parser("rate", help="speed and rate for a pattern")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--slack", type=float, default=1.0)

    sp = sub.add_parser("count", help="copy counts in a host graph")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--edge", help="u,v: count copies through this edge")
    sp.add_argument("--unlabelled", action="store_true")
    sp.add_argument("--budget", type=int)

    sp = sub.add_parser("detect", help="structure detectors")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--event", required=True, choices=["hub", "clique", "highdeg", "tildehub"])
    sp.add_argument("--chi", type=float)
    sp.add_argument("--degree-threshold", type=float)
    sp.add_argument("--edge-threshold", type=float)
    sp.add_argument("--size-threshold", type=float)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--u-size", type=int)
    sp.add_argument("--u-degree-threshold", type=float)
    sp.add_argument("--extra-degree-threshold", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--r", type=int)

    sp = sub.add_parser("core", help="core / strong-core extraction")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--strong", action="store_true")
    sp.add_argument("--star", action="store_true", help="use the star-specialized threshold")
    sp.add_argument("--c-bar", type=float)
    sp.add_argument("--c-bar-star", type=float)
    sp.add_argument("--budget", type=int)

    sp = sub.add_parser("meanfield", help="variational upper bound for star tails")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--literal-reading", action="store_true")

    sp = sub.add_parser("tail", help="tail probability estimation")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--threshold", type=int)
    sp.add_argument("--method", default="direct", choices=["exact", "direct", "importance"])
    sp.add_argument("--planting", help="hub:k[:q] | clique:m[:q] | highdeg[:q] | none")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--threads", type=int)

    sp = sub.add_parser("experiment", help="statistical experiments")
    sp.add_argument("kind", choices=["poisson-fit", "conditioned"])
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--detector", help="highdeg[:threshold]")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--min-accepted", type=int, default=300)
    sp.add_argument("--threads", type=int)

    return parser


def _apply_defaults(args: argparse.Namespace, config: dict) -> None:
    def resolve(name, cast, default):
        if getattr(args, name, None) is None:
            if name in config:
                setattr(args, name, _parse_number(name, cast, config[name]))
            else:
                setattr(args, name, default)

    resolve("chi", float, DEFAULTS["chi"])
    resolve("epsilon", float, DEFAULTS["epsilon"])
    resolve("seed", int, DEFAULTS["seed"])
    resolve("samples", int, DEFAULTS["samples"])
    resolve("replicas", int, DEFAULTS["replicas"])
    resolve("threads", int, None)
    if getattr(args, "kind", None) == "conditioned" and (args.threads or 1) > 1:
        # An UPPERTAIL_THREADS default is not an error, as for ``tail --method exact``.
        raise ValidationError(f"experiment conditioned runs on one thread, got {args.threads}")
    if args.threads is None:
        env_threads = os.environ.get("UPPERTAIL_THREADS")
        args.threads = _parse_number("UPPERTAIL_THREADS", int, env_threads) if env_threads else 1
    if args.threads < 1:
        raise ValidationError(f"threads must be at least 1, got {args.threads}")


_HANDLERS = {
    "analyze-pattern": _cmd_analyze_pattern,
    "rate": _cmd_rate,
    "count": _cmd_count,
    "detect": _cmd_detect,
    "core": _cmd_core,
    "meanfield": _cmd_meanfield,
    "tail": _cmd_tail,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        _apply_defaults(args, config)
        return _HANDLERS[args.command](args, started)
    except (ResourceBudgetError, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except UpperTailError as exc:  # a ValidationError: the other package error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an input overflowed float arithmetic ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

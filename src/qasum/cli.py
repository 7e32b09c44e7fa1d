"""Command-line entry points: rank, eval, compare, report.

Exit codes, one exception class each: 2 usage (argparse); 3 CorpusError,
a corpus record, group or ICL pool that cannot be used; 4
BackendUnreachable, among them an endpoint that redirects (3xx) or refuses
every request (401/403/404/405); 5 RateLimited; 6 ReplayMiss, a replay
fixture gap; 7 RankingError, a ranking that cannot drive the run; 8
MismatchedEvalSets; 1 anything else: a bad config or other ValueError,
OSError, CacheError (a response store that is not a database) and LmError.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import CorpusError
from .harness import (
    MismatchedEvalSets,
    config_from_file,
    run_compare,
    run_eval,
    run_rank,
    run_report,
)
from .lm import BackendUnreachable, CacheError, LmError, RateLimited, ReplayMiss
from .questions import RankingError, format_rank_matrix

_SCOPE_ALIASES = {"ds": "domain_specific", "global": "global"}


def _parse_k_list(text: str) -> tuple[int, ...]:
    """``--k``'s comma-separated integers. A part that is no integer is a
    usage error; an empty list is passed on for the config to refuse."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qasum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="rank candidate questions on the ICL pool")
    rank.add_argument("--corpus", required=True)
    rank.add_argument("--config", required=True)
    rank.add_argument("--out", required=True, help="ranking file to write")
    rank.add_argument("--subsample", type=int, default=None, help="instances per domain")
    rank.add_argument("--seed", type=int, default=None)

    ev = sub.add_parser("eval", help="evaluate a method over the eval set")
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--config", required=True)
    ev.add_argument("--method", required=True, choices=["vanilla", "icl", "qa"])
    ev.add_argument("--ranking", default=None, help="ranking file (qa only)")
    ev.add_argument("--scope", choices=["ds", "global"], default=None)
    ev.add_argument("--k", type=_parse_k_list, default=None,
                    help="comma-separated k values, e.g. 0,1,2")
    ev.add_argument("--icl-n", type=int, default=None, help="in-context example count")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--out", required=True, help="output directory")

    cmp_ = sub.add_parser("compare", help="compare two or more run manifests")
    cmp_.add_argument("manifests", nargs="+")
    cmp_.add_argument("--out", required=True, help="comparison CSV to write")

    rep = sub.add_parser("report", help="render report tables from a manifest")
    rep.add_argument("manifest")
    rep.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_rank(args) -> int:
    cfg = config_from_file(args.config, corpus=args.corpus, rank_subsample=args.subsample,
                           seed=args.seed)
    table = run_rank(cfg, args.out)
    print(f"wrote ranking for model {table.model!r} to {args.out}")
    print(format_rank_matrix(table))
    return 0


def _cmd_eval(args) -> int:
    scope = _SCOPE_ALIASES[args.scope] if args.scope else None
    cfg = config_from_file(
        args.config,
        corpus=args.corpus,
        method=args.method,
        ranking=args.ranking,
        scope=scope,
        k_values=args.k,
        icl_examples=args.icl_n,
        seed=args.seed,
    )
    manifest = run_eval(cfg, args.out)
    stats = manifest.cache
    print(
        f"evaluated {len(manifest.eval_ids)} instance(s), {len(manifest.rows)} row(s); "
        f"parse counts {manifest.parse_counts}; "
        f"cache hits={stats.hits} misses={stats.misses}"
    )
    print(f"wrote manifest and CSVs to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    table = run_compare(args.manifests, args.out)
    print(f"wrote comparison of {len(args.manifests)} manifest(s) to {args.out}")
    overall = table[0]
    print("overall ROUGE-L:", {k: v for k, v in overall.items() if k != "scope"})
    return 0


def _cmd_report(args) -> int:
    run_report(args.manifest, args.out)
    print(f"wrote report tables to {args.out}")
    return 0


_HANDLERS = {"rank": _cmd_rank, "eval": _cmd_eval, "compare": _cmd_compare, "report": _cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 3
    except BackendUnreachable as exc:
        print(f"backend unreachable: {exc}", file=sys.stderr)
        return 4
    except RateLimited as exc:
        print(f"rate limited: {exc}", file=sys.stderr)
        return 5
    except ReplayMiss as exc:
        print(f"replay fixture gap: {exc}", file=sys.stderr)
        return 6
    except RankingError as exc:
        print(f"ranking error: {exc}", file=sys.stderr)
        return 7
    except MismatchedEvalSets as exc:
        print(f"mismatched eval sets: {exc}", file=sys.stderr)
        return 8
    except (CacheError, LmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

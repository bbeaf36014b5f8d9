"""Command-line interface for the TReX reproduction.

Subcommands::

    python -m repro corpus    generate a synthetic corpus into a directory
    python -m repro info      collection / summary / index statistics
    python -m repro translate show a NEXI query's (sids, terms) translation
    python -m repro query     evaluate a NEXI query
    python -m repro build     batch-materialize RPL/ERPL segments
    python -m repro advise    run the self-managing index advisor
    python -m repro shard     build / inspect partitioned (sharded) indexes
    python -m repro serve     run the concurrent HTTP query service
    python -m repro stats     fetch /stats from a running server
    python -m repro replica   inspect replica groups on a running server

Corpora are directories of ``*.xml`` files; docids follow sorted
filename order.  The ``--alias`` option selects the INEX alias mapping
(``ieee``, ``wikipedia`` or ``none``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from .backend import BACKEND_NAMES, COMPRESSIONS
from .corpus.alias import AliasMapping
from .corpus.collection import Collection
from .corpus.generator import SyntheticIEEECorpus, SyntheticWikipediaCorpus
from .corpus.loader import dump_collection, load_collection
from .errors import TrexError
from .retrieval.engine import METHODS, TrexEngine
from .selfmanage.advisor import IndexAdvisor
from .shard import ShardedEngine
from .storage.blocks import DEFAULT_BLOCK_SIZE
from .selfmanage.workload import Workload, WorkloadQuery
from .summary.base import PartitionSummary
from .summary.variants import AKIndex, IncomingSummary, TagSummary

__all__ = ["main", "build_parser"]

_ALIASES = {
    "ieee": AliasMapping.inex_ieee,
    "wikipedia": AliasMapping.inex_wikipedia,
    "none": AliasMapping.identity,
}

_SUMMARIES = ("incoming", "tag", "ak1", "ak2")


def _summary_factory(args: argparse.Namespace
                     ) -> Callable[[Collection], PartitionSummary]:
    """``--summary`` / ``--alias`` (``repro shard`` has no ``--summary``:
    incoming) as the summary to build over a collection."""
    alias = _ALIASES[args.alias]()
    kind = getattr(args, "summary", "incoming")
    if kind == "tag":
        return lambda collection: TagSummary(collection, alias=alias)
    if kind.startswith("ak"):
        return lambda collection: AKIndex(collection, k=int(kind[2:]),
                                          alias=alias)
    return lambda collection: IncomingSummary(collection, alias=alias)


def _make_engine(args: argparse.Namespace) -> TrexEngine:
    collection = load_collection(args.corpus)
    return TrexEngine(collection, _summary_factory(args)(collection),
                      block_size=args.block_size,
                      backend=getattr(args, "backend", "pager"),
                      compression=getattr(args, "compress", "none"))


def _make_sharded_engine(args: argparse.Namespace, shards: int = 1,
                         policy: str = "hash",
                         **options: Any) -> ShardedEngine:
    """The coordinator over the corpus, its shards built directly (one
    shard: one engine over the whole collection)."""
    return ShardedEngine(load_collection(args.corpus), shards, policy=policy,
                         summary_factory=_summary_factory(args),
                         block_size=args.block_size,
                         backend=getattr(args, "backend", "pager"),
                         compression=getattr(args, "compress", "none"),
                         **options)


def _warn_if_unsafe(engine: TrexEngine | ShardedEngine) -> None:
    """One stderr line when the summary is not retrieval-safe: stored
    lists then hold what ERA answers (its extent sweep passes over an
    element nested inside a same-sid ancestor), not every element."""
    unsafe = engine.summary.unsafe_sids()
    if unsafe:
        print(f"warning: summary {engine.summary.name!r} is not "
              f"retrieval-safe ({len(unsafe)} sids hold nested elements); "
              f"ERA and the lists built from it pass over elements nested "
              f"inside a same-sid ancestor", file=sys.stderr)


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.kind == "ieee":
        collection = SyntheticIEEECorpus(num_docs=args.docs, seed=args.seed).build()
    else:
        collection = SyntheticWikipediaCorpus(num_docs=args.docs,
                                              seed=args.seed).build()
    written = dump_collection(collection, args.out)
    print(f"wrote {len(written)} documents to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    info = engine.describe()
    print(f"collection: {info['collection']}")
    print(f"summary:    {info['summary']}")
    print(f"Elements:     {info['elements_rows']:>8} rows  "
          f"{info['elements_bytes']:>10} bytes")
    print(f"PostingLists: {info['postings_rows']:>8} rows  "
          f"{info['postings_bytes']:>10} bytes")
    print(f"catalog:      {len(info['segments']):>8} segments  "
          f"{info['catalog_bytes']:>10} bytes")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    translated = engine.translate(args.nexi, vague=not args.strict)
    print(f"query: {translated.query}")
    print(f"target pattern: {translated.target_pattern} "
          f"({len(translated.target_sids)} sids)")
    for index, clause in enumerate(translated.clauses):
        role = "target" if clause.is_target else "support"
        print(f"clause {index} ({role}): path={clause.pattern}")
        print(f"  sids:  {sorted(clause.sids)}")
        print(f"  terms: {list(clause.terms)}"
              + (f"  excluded: {list(clause.excluded_terms)}"
                 if clause.excluded_terms else ""))
    print(f"totals: {translated.num_sids} sids, {translated.num_terms} terms")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    _warn_if_unsafe(engine)
    result = engine.evaluate(args.nexi, k=args.k, method=args.method,
                             vague=not args.strict,
                             mode="flat" if args.flat else "nexi")
    print(f"method={result.stats.method} cost={result.stats.cost:.1f} "
          f"answers={len(result.hits)}")
    for rank, hit in enumerate(result, start=1):
        label = engine.summary.label(hit.sid)
        print(f"{rank:>4}. score={hit.score:.4f} doc={hit.docid} "
              f"<{label}> span=[{hit.start_pos},{hit.end_pos}]")
    return 0


def _parse_workload_file(path: str) -> Workload:
    queries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise TrexError(
                    f"{path}:{line_no}: expected 'id<TAB>k<TAB>freq<TAB>nexi'")
            qid, k, freq, nexi = parts
            queries.append(WorkloadQuery(qid, nexi, int(k), float(freq)))
    return Workload(queries, normalize=True)


def _cmd_build(args: argparse.Namespace) -> int:
    import time

    from .build import BuildPlanner

    engine = _make_engine(args)
    kinds = tuple(kind.strip() for kind in args.kinds.split(",") if kind.strip())
    planner = BuildPlanner()
    if args.workload:
        workload = _parse_workload_file(args.workload)
        for wq in workload:
            for target in engine.plan_for_query(wq.nexi, kinds,
                                                scope=args.scope):
                planner.add_target(target)
    else:
        if args.terms:
            terms = list(dict.fromkeys(args.terms))
        else:
            terms = engine.blocked_postings.keys()
        for term in terms:
            for kind in kinds:
                planner.add(kind, term)
    started = time.perf_counter()
    report = engine.build_segments(planner.plan())
    elapsed = time.perf_counter() - started
    print(f"requested {report.requested} segments: built {report.built}, "
          f"reused {report.reused} ({report.entries} entries, "
          f"{report.bytes_built} bytes, "
          f"{report.collection_scans} ERA passes) in {elapsed:.3f}s")
    if args.verbose:
        for line in report.segments:
            print(f"  {line}")
    if args.out:
        engine.save_indexes(args.out)
        print(f"saved index tables to {args.out} "
              f"(backend={engine.backend}, compression={engine.compression})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    plan = _make_sharded_engine(args).explain(args.nexi)
    print(f"query:   {plan['query']}")
    print(f"target:  {plan['target_pattern']} "
          f"({plan['num_sids']} sids, {plan['num_terms']} terms)")
    if plan["comparisons"]:
        print(f"filters: {', '.join(plan['comparisons'])}")
    chosen = plan["chosen_method"]
    print(f"method:  {chosen['nexi']} (nexi), {chosen['flat']} (flat)")
    partition = plan["partition"]
    print(f"shards:  {partition['num_shards']} ({partition['policy']})")
    tasks = [(f"clause ({task['role']})", task) for task in plan["clauses"]]
    for label, clause in [*tasks, ("flat task", plan["flat"])]:
        print(f"{label} {clause['pattern']}:")
        extents = ", ".join(f"{sid}:{size}"
                            for sid, size in clause["extent_sizes"].items())
        print(f"  extents (sid:size): {extents}")
        for term, rows in clause["terms"].items():
            for shard, info in enumerate(rows):
                rpl = info["rpl"] or "-"
                erpl = info["erpl"] or "-"
                print(f"  term {term!r} (shard {shard}): "
                      f"postings={info['postings']} rpl={rpl} erpl={erpl}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    workload = _parse_workload_file(args.workload)
    advisor = IndexAdvisor(engine)
    plan = advisor.recommend(workload, args.budget, method=args.selector,
                             compression=args.compression)
    for line in plan.describe():
        print(line)
    print(f"baseline (ERA-only) cost: {advisor.baseline_cost(workload):.1f}")
    print(f"expected cost under plan: {advisor.expected_cost(workload, plan):.1f}")
    if args.compression:
        recommended = advisor.recommend_compression(workload)
        print("recommended codec per kind: "
              + ", ".join(f"{kind}={codec}"
                          for kind, codec in sorted(recommended.items())))
        report = advisor.backend_report(workload)
        print(f"{'backend':>8} {'codec':>6} {'size B':>10} {'t_build':>10}")
        for backend in sorted(report):
            for codec in sorted(report[backend]):
                row = report[backend][codec]
                print(f"{backend:>8} {codec:>6} {row['size_bytes']:>10.0f} "
                      f"{row['t_build']:>10.1f}")
    if args.apply:
        applied = advisor.apply(workload, plan)
        print(f"materialized {len(applied.segments)} segments "
              f"({applied.total_bytes} bytes)")
        print(f"achieved cost: {advisor.achieved_cost(workload, applied):.1f}")
    return 0


def _print_shard_rows(rows: list[dict]) -> None:
    documents = [row["documents"] for row in rows]
    mean = sum(documents) / len(documents) if documents else 0.0
    print(f"{'shard':>5} {'documents':>9} {'elements':>9} {'segments':>8} "
          f"{'catalog B':>10} {'probes':>7} {'pruned':>7} {'timeouts':>8} "
          f"{'deltas':>6} {'delta B':>8} {'repl':>4}")
    for row in rows:
        replicas = row.get("replicas", 1)
        healthy = row.get("replicas_healthy", replicas)
        print(f"{row['shard']:>5} {row['documents']:>9} "
              f"{row['elements_rows']:>9} {row['segments']:>8} "
              f"{row['catalog_bytes']:>10} {row['probes']:>7} "
              f"{row['pruned']:>7} {row['timeouts']:>8} "
              f"{row.get('delta_runs', 0):>6} {row.get('delta_bytes', 0):>8} "
              f"{healthy}/{replicas}")
    if documents and mean:
        skew = max(documents) / mean
        print(f"balance: {len(documents)} shards, "
              f"{min(documents)}-{max(documents)} docs "
              f"(max/mean skew {skew:.2f})")


def _cmd_shard_build(args: argparse.Namespace) -> int:
    from .build import BuildPlanner

    engine = _make_sharded_engine(args, args.shards, args.policy)
    for shard in engine.shards:
        planner = BuildPlanner()
        for term in shard.engine.blocked_postings.keys():
            planner.add("rpl", term)
        shard.engine.build_segments(planner.plan())
    engine.save_indexes(args.out)
    print(f"partitioned {len(engine.collection)} documents into "
          f"{engine.num_shards} shards ({args.policy}) -> {args.out}")
    _print_shard_rows(engine.shard_snapshot())
    return 0


def _cmd_shard_stats(args: argparse.Namespace) -> int:
    engine = _make_sharded_engine(args, args.shards, args.policy)
    if args.indexes:
        engine.load_indexes(args.indexes)
    info = engine.describe()
    print(f"collection: {info['collection']}")
    print(f"partition:  {info['partition']}")
    _print_shard_rows(engine.shard_snapshot())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import (QueryService, ServiceConfig, make_server,
                          serve_until_shutdown)

    engine = _make_sharded_engine(
        args, args.shards, args.shard_policy,
        shard_deadline=args.shard_deadline, fail_soft=not args.no_fail_soft,
        replicas=args.replicas, read_policy=args.read_policy,
        quorum=args.quorum)
    _warn_if_unsafe(engine)
    config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_capacity=args.cache_size,
        default_deadline=args.deadline,
        autopilot_interval=None if args.no_autopilot else args.autopilot_interval,
        autopilot_budget=args.autopilot_budget,
        autopilot_selector=args.autopilot_selector,
        auto_compact=not args.no_auto_compact,
    )
    with QueryService(engine, config) as service:
        server = make_server(service, args.host, args.port,
                             verbose=args.verbose)
        host, port = server.server_address[:2]
        sharding = (f", {args.shards} shards ({args.shard_policy})"
                    if args.shards > 1 else "")
        replication = (f", {args.replicas} replicas ({args.read_policy})"
                       if args.replicas > 1 else "")
        print(f"serving {args.corpus} on http://{host}:{port} "
              f"({config.workers} workers, cache={config.cache_capacity}, "
              f"autopilot="
              f"{'off' if args.no_autopilot else f'{args.autopilot_interval}s'}"
              f"{sharding}{replication})")
        print("endpoints: /search /explain /ingest /stats /replicas "
              "/healthz /autopilot/cycle  (Ctrl-C or SIGTERM to stop)")
        serve_until_shutdown(server, service)
        print("drained; bye")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    url = f"http://{args.host}:{args.port}/stats"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            stats = json.loads(response.read().decode("utf-8"))
    except (URLError, OSError) as err:
        print(f"error: cannot reach {url}: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    engine = stats.get("engine", {})
    print(f"uptime:    {stats.get('uptime_seconds', 0):.1f}s  "
          f"epoch={stats.get('epoch')}")
    print(f"engine:    {engine.get('documents')} documents, "
          f"{engine.get('segments')} segments, "
          f"{engine.get('catalog_bytes')} catalog bytes, "
          f"block_size={engine.get('block_size')}")
    storage = stats.get("storage", {})
    if storage:
        print(f"storage:   backend={storage.get('backend')} "
              f"compression={storage.get('compression')} "
              f"({storage.get('compressed_segments', 0)} compressed segments, "
              f"{storage.get('size_bytes', 0)}/{storage.get('flat_bytes', 0)} "
              f"stored/flat bytes, "
              f"ratio={storage.get('compression_ratio', 1.0)})")
        for kind in sorted(storage.get("kinds", {})):
            row = storage["kinds"][kind]
            print(f"  {kind:6s} {row.get('segments', 0):>4} segments  "
                  f"{row.get('size_bytes', 0):>10} bytes on disk  "
                  f"({row.get('flat_bytes', 0)} flat)")
    cache = stats.get("block_cache", {})
    print(f"block cache: {cache.get('resident')}/{cache.get('capacity')} "
          f"resident, hits={cache.get('hits')} misses={cache.get('misses')} "
          f"evictions={cache.get('evictions')} "
          f"hit_rate={cache.get('hit_rate')}")
    counters = stats.get("telemetry", {}).get("counters", {})
    for name in ("blocks.read", "blocks.decoded", "blocks.skipped",
                 "blocks.entries_decoded", "rows.skipped"):
        print(f"{name:24s} {counters.get(name, 0)}")
    result_cache = stats.get("cache", {})
    print(f"result cache: {result_cache}")
    shards = stats.get("shards")
    if shards:
        print(f"shards ({len(shards)}):")
        for row in shards:
            print(f"  shard {row.get('shard')}: {row.get('documents')} docs, "
                  f"{row.get('segments')} segments, "
                  f"epoch={row.get('epoch')}, probes={row.get('probes')} "
                  f"pruned={row.get('pruned')} timeouts={row.get('timeouts')}")
    return 0


def _cmd_replica_status(args: argparse.Namespace) -> int:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    url = f"http://{args.host}:{args.port}/replicas"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (URLError, OSError) as err:
        print(f"error: cannot reach {url}: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"replicas={payload.get('replicas', 1)} "
          f"policy={payload.get('read_policy')} "
          f"quorum={payload.get('quorum')}")
    counters = payload.get("counters", {})
    print("counters: " + ", ".join(f"{key}={counters[key]}"
                                   for key in sorted(counters)))
    for group in payload["groups"]:
        log = group.get("log", {})
        quorum = "ok" if group.get("quorum_met") else "LOST"
        print(f"shard {group['shard']} ({group['name']}): "
              f"healthy {group['healthy']}/{len(group['replicas'])} "
              f"quorum={quorum} log head={log.get('head')} "
              f"retained={log.get('retained')}")
        for row in group["replicas"]:
            flags = []
            if not row["alive"]:
                flags.append("killed")
            if not row["attached"]:
                flags.append("detached")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            print(f"  r{row['replica']} {row['role']:<8} "
                  f"state={row['state']:<7} reads={row['reads']:<6} "
                  f"applied={row['applied_offset']} lag={row['lag']}"
                  f"{suffix}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TReX: self-managing top-k indexes for XML retrieval "
                    "(ICDE 2007 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="generate a synthetic corpus")
    corpus.add_argument("--kind", choices=("ieee", "wikipedia"), default="ieee")
    corpus.add_argument("--docs", type=int, default=20)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--out", required=True, help="output directory")
    corpus.set_defaults(func=_cmd_corpus)

    def add_engine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("corpus", help="directory of .xml files")
        p.add_argument("--alias", choices=sorted(_ALIASES), default="none")
        p.add_argument("--summary", choices=_SUMMARIES, default="incoming")
        p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                       help="entries per compressed index block "
                            f"(default {DEFAULT_BLOCK_SIZE})")
        p.add_argument("--backend", choices=BACKEND_NAMES, default="pager",
                       help="storage backend for saved indexes "
                            "(see docs/storage.md)")
        p.add_argument("--compress", choices=COMPRESSIONS, default="none",
                       help="block codec for newly built segments")

    info = sub.add_parser("info", help="collection and index statistics")
    add_engine_args(info)
    info.set_defaults(func=_cmd_info)

    translate = sub.add_parser("translate", help="show a query's translation")
    add_engine_args(translate)
    translate.add_argument("nexi", help="NEXI query string")
    translate.add_argument("--strict", action="store_true",
                           help="strict (non-vague) interpretation")
    translate.set_defaults(func=_cmd_translate)

    query = sub.add_parser("query", help="evaluate a NEXI query")
    add_engine_args(query)
    query.add_argument("nexi", help="NEXI query string")
    query.add_argument("--k", type=int, default=None, help="top-k (default: all)")
    query.add_argument("--method", choices=METHODS, default="auto")
    query.add_argument("--strict", action="store_true")
    query.add_argument("--flat", action="store_true",
                       help="paper-style single-task evaluation")
    query.set_defaults(func=_cmd_query)

    build = sub.add_parser(
        "build", help="batch-materialize RPL/ERPL segments "
                      "(ERA over the base indexes)")
    add_engine_args(build)
    build.add_argument("--terms", nargs="*", default=None,
                       help="terms to build (default: every indexed term)")
    build.add_argument("--workload", default=None,
                       help="TSV workload file; builds each query's plan")
    build.add_argument("--scope", choices=("universal", "query", "flat"),
                       default="universal",
                       help="segment scope for --workload plans")
    build.add_argument("--kinds", default="rpl,erpl",
                       help="comma-separated kinds (default rpl,erpl)")
    build.add_argument("--out", default=None,
                       help="save index tables to this directory")
    build.add_argument("--verbose", action="store_true",
                       help="list every built segment")
    build.set_defaults(func=_cmd_build)

    explain = sub.add_parser("explain", help="show the evaluation plan")
    add_engine_args(explain)
    explain.add_argument("nexi", help="NEXI query string")
    explain.set_defaults(func=_cmd_explain)

    advise = sub.add_parser("advise", help="self-managing index selection")
    add_engine_args(advise)
    advise.add_argument("--workload", required=True,
                        help="TSV file: id<TAB>k<TAB>freq<TAB>nexi")
    advise.add_argument("--budget", type=int, required=True,
                        help="disk budget in bytes")
    advise.add_argument("--selector", choices=("greedy", "ilp"), default="greedy")
    advise.add_argument("--compression", action="store_true",
                        help="let the selector trade compressed indexes "
                             "(smaller, decompress-charged) against flat ones")
    advise.add_argument("--apply", action="store_true",
                        help="materialize the plan and measure achieved cost")
    advise.set_defaults(func=_cmd_advise)

    shard = sub.add_parser("shard",
                           help="build / inspect partitioned indexes")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    def add_shard_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("corpus", help="directory of .xml files")
        p.add_argument("--shards", type=int, default=4,
                       help="number of document shards")
        p.add_argument("--policy", choices=("hash", "range"), default="hash",
                       help="document-to-shard routing policy")
        p.add_argument("--alias", choices=sorted(_ALIASES), default="none")
        p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
        p.add_argument("--backend", choices=BACKEND_NAMES, default="pager")
        p.add_argument("--compress", choices=COMPRESSIONS, default="none")

    shard_build = shard_sub.add_parser(
        "build", help="partition a corpus and save per-shard indexes")
    add_shard_args(shard_build)
    shard_build.add_argument("--out", required=True,
                             help="output directory (one shard{i}/ each)")
    shard_build.set_defaults(func=_cmd_shard_build)

    shard_stats = shard_sub.add_parser(
        "stats", help="per-shard statistics and balance")
    add_shard_args(shard_stats)
    shard_stats.add_argument("--indexes", default=None,
                             help="load previously saved per-shard indexes")
    shard_stats.set_defaults(func=_cmd_shard_stats)

    serve = sub.add_parser("serve", help="run the concurrent HTTP query service")
    add_engine_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=4,
                       help="query worker threads")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue bound (reject when full)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="seconds a request may wait for a worker")
    serve.add_argument("--autopilot-interval", type=float, default=30.0,
                       help="seconds between self-managing index cycles")
    serve.add_argument("--autopilot-budget", type=int, default=1 << 20,
                       help="autopilot disk budget in bytes")
    serve.add_argument("--autopilot-selector", choices=("greedy", "ilp"),
                       default="greedy")
    serve.add_argument("--no-autopilot", action="store_true",
                       help="disable background index self-management")
    serve.add_argument("--no-auto-compact", action="store_true",
                       help="leave LSM delta compaction to POST /compact")
    serve.add_argument("--shards", type=int, default=1,
                       help="partition the engine into N document shards")
    serve.add_argument("--shard-policy", choices=("hash", "range"),
                       default="hash")
    serve.add_argument("--shard-deadline", type=float, default=None,
                       help="seconds each shard may spend per query")
    serve.add_argument("--no-fail-soft", action="store_true",
                       help="shard timeouts become 504s instead of "
                            "degraded partial results")
    serve.add_argument("--replicas", type=int, default=1,
                       help="engine replicas per shard (reads are "
                            "load-balanced; writes ship leader-first)")
    serve.add_argument("--read-policy",
                       choices=("round_robin", "least_inflight",
                                "power_of_two"),
                       default="round_robin",
                       help="replica read-balancing policy")
    serve.add_argument("--quorum", type=int, default=1,
                       help="healthy replicas per shard below which "
                            "/replicas reports quorum lost")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser("stats", help="fetch /stats from a running server")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=8080)
    stats.add_argument("--timeout", type=float, default=5.0)
    stats.add_argument("--json", action="store_true",
                       help="print the raw JSON snapshot")
    stats.set_defaults(func=_cmd_stats)

    replica = sub.add_parser(
        "replica", help="inspect replica groups on a running server")
    replica_sub = replica.add_subparsers(dest="replica_command",
                                         required=True)
    status = replica_sub.add_parser(
        "status", help="fetch /replicas and print per-group topology")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=8080)
    status.add_argument("--timeout", type=float, default=5.0)
    status.add_argument("--json", action="store_true",
                        help="print the raw JSON snapshot")
    status.set_defaults(func=_cmd_replica_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

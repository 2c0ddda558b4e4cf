"""Command-line interface.

Subcommands::

    repro-whynot datasets   [--scale default]        # Table II
    repro-whynot params                              # Table III
    repro-whynot experiment fig4 [--scale smoke] [-o out.md]
    repro-whynot experiment all  [--scale default] [-o EXPERIMENTS_RESULTS.md]
    repro-whynot demo       [--size 2000 --seed 7]   # end-to-end example
    repro-whynot analyze    [src/repro] [--all]      # static analysis (lint/flow/taint/lifetime)
    repro-whynot check-invariants [--size 10000]     # index/storage sanitizer
    repro-whynot chaos      [--seed 7 --queries 200] # fault-injection harness
    repro-whynot chaos --shards 4 --fault-shard 0 --intensity 20  # containment
    repro-whynot chaos --serve                       # same gate, via the server
    repro-whynot serve      [--shards 4]             # scripted serving smoke
    repro-whynot serve-bench [--requests 2000]       # simulated heavy traffic
    repro-whynot bench --emit [--check baselines/]   # BENCH_fig*.json + gate
    repro-whynot bench --emit --figures fig13 --full # 1M-object sharded sweep

(Also runnable as ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Set

from .experiments.ablations import ABLATIONS, run_ablation
from .experiments.config import PARAMETER_GRID, SCALES
from .experiments.figures import FIGURES, run_figure, table2_dataset_info
from .experiments.reporting import figure_to_markdown, figure_to_text, rows_to_table

__all__ = ["main"]


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = table2_dataset_info(SCALES[args.scale])
    print("Table II substitute: generated dataset statistics")
    print(rows_to_table(rows))
    return 0


def _cmd_params(_args: argparse.Namespace) -> int:
    print("Table III: parameter settings (defaults marked *)")
    defaults = {
        "k0": 10,
        "n_keywords": 4,
        "alpha": 0.5,
        "rank_target": 51,
        "lam": 0.5,
        "n_missing": 1,
    }
    rows = []
    for name, values in PARAMETER_GRID.items():
        default = defaults.get(name)
        rendered = ", ".join(
            f"{v}*" if v == default else str(v) for v in values
        )
        rows.append({"parameter": name, "settings": rendered})
    print(rows_to_table(rows))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.figure == "all":
        names: List[str] = sorted(FIGURES)
    elif args.figure == "ablations":
        names = sorted(ABLATIONS)
    else:
        names = [args.figure]
    known = set(FIGURES) | set(ABLATIONS)
    unknown = [n for n in names if n not in known]
    if unknown:
        print(
            f"unknown figure(s): {unknown}; choose from {sorted(known)}, "
            "'all', or 'ablations'"
        )
        return 2
    markdown_chunks: List[str] = []
    for name in names:
        started = time.perf_counter()
        if name in FIGURES:
            result = run_figure(name, args.scale)
        else:
            result = run_ablation(name, args.scale)
        elapsed = time.perf_counter() - started
        print(figure_to_text(result))
        if args.chart:
            from .experiments.charts import figure_chart

            print()
            print(figure_chart(result, "time"))
            print()
            print(figure_chart(result, "ios"))
        print(f"   [{name} regenerated in {elapsed:.1f}s at scale={args.scale}]")
        print()
        markdown_chunks.append(figure_to_markdown(result))
    if args.output:
        Path(args.output).write_text(
            "\n\n".join(markdown_chunks) + "\n", encoding="utf-8"
        )
        print(f"markdown written to {args.output}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    """Profile the optimal refinements across the λ sweep."""
    from .experiments.quality import profile_quality, quality_report_rows

    profiles = profile_quality(SCALES[args.scale])
    print("Result-quality profile of optimal refinements (exact KcRBased answers)")
    print(rows_to_table(quality_report_rows(profiles)))
    print(
        "\nkeyword_edit_win_rate: fraction of why-not questions where "
        "editing keywords strictly beats enlarging k alone."
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Cross-check every exact algorithm against brute force."""
    import numpy as np

    from . import (
        MissingObjectError,
        Oracle,
        PenaltyModel,
        SpatialKeywordQuery,
        WhyNotEngine,
        WhyNotQuestion,
        make_euro_like,
    )
    from .core.candidates import CandidateEnumerator

    dataset, _ = make_euro_like(args.size, seed=args.seed)
    engine = WhyNotEngine(dataset)
    oracle = Oracle(dataset)
    rng = np.random.default_rng(args.seed)

    passed = 0
    attempted = 0
    while passed < args.trials and attempted < 50 * args.trials:
        attempted += 1
        seed_obj = dataset.objects[int(rng.integers(0, len(dataset)))]
        doc = frozenset(list(seed_obj.doc)[:3])
        if len(doc) < 2:
            continue
        query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5)
        try:
            missing = oracle.object_at_rank(query, 21)
        except ValueError:
            continue
        if len(dataset.get(missing).doc - query.doc) > 5:
            continue
        question = WhyNotQuestion(query, (missing,), lam=0.5)

        missing_doc = dataset.get(missing).doc
        initial_rank = oracle.rank(missing, query)
        pm = PenaltyModel(
            k0=query.k,
            initial_rank=initial_rank,
            doc_universe_size=len(query.doc | missing_doc),
            lam=question.lam,
        )
        best = pm.basic_penalty
        for candidate in CandidateEnumerator(query.doc, missing_doc).iter_naive():
            rank = oracle.rank(missing, query, candidate.keywords)
            best = min(best, pm.penalty(candidate.delta_doc, rank))

        answers = {
            method: engine.answer(question, method=method).refined.penalty
            for method in ("basic", "advanced", "kcr")
        }
        ok = all(abs(p - best) < 1e-9 for p in answers.values())
        status = "OK " if ok else "FAIL"
        print(
            f"[{status}] trial {passed}: brute-force optimum {best:.4f}, "
            + ", ".join(f"{m}={p:.4f}" for m, p in answers.items())
        )
        if not ok:
            return 1
        passed += 1
    print(f"{passed}/{args.trials} trials verified against brute force")
    return 0 if passed == args.trials else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Run the unified static-analysis driver.

    ``--rules`` picks rulesets (comma-separated from lint, flow, taint,
    lifetime); ``--all`` runs every ruleset plus stale-waiver
    detection.  Exit codes: 0 = no new findings (waived and baselined
    findings are reported but do not fail), 1 = new findings, 2 = bad
    usage, unparseable input, or a fixpoint that hit its iteration
    bound (the report's ``errors``).
    """
    import json as json_module

    from .analysis import ALL_RULESETS, load_baseline, run_analysis

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}")
        return 2
    if args.all:
        rulesets = ALL_RULESETS
    else:
        rulesets = tuple(
            name.strip() for name in args.rules.split(",") if name.strip()
        )
        unknown = sorted(set(rulesets) - set(ALL_RULESETS))
        if unknown:
            print(
                f"unknown ruleset(s): {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_RULESETS)})"
            )
            return 2
    baseline = load_baseline(args.baseline) if args.baseline else None
    report = run_analysis(args.paths, rulesets=rulesets, baseline=baseline)
    if args.write_baseline:
        payload = report.baseline_payload()
        Path(args.write_baseline).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"baseline with {len(payload['violations'])} violation key(s) "
            f"written to {args.write_baseline}"
        )
        return 0
    if args.json:
        print(report.to_json(include_signatures=args.signatures))
    else:
        print(report.format_text())
    if report.errors:
        return 2
    return 1 if report.blocking_count else 0


def _cmd_check_invariants(args: argparse.Namespace) -> int:
    """Build both hybrid indexes and validate every structural invariant.

    With ``--churn N`` the check also exercises the dynamic paths:
    N objects are deleted and reinserted before the final validation,
    which is where summary-maintenance bugs actually surface.
    """
    from .analysis import check_tree
    from .data.synthetic import make_euro_like
    from .index.kcr_tree import KcRTree
    from .index.setr_tree import SetRTree

    dataset, _ = make_euro_like(args.size, seed=args.seed)
    status = 0
    for cls in (SetRTree, KcRTree):
        tree = cls(dataset, capacity=args.capacity)
        if args.churn:
            victims = dataset.objects[: args.churn]
            for obj in victims:
                tree.delete(obj)
                dataset.remove(obj.oid)
            for obj in victims:
                dataset.add(obj)
                tree.insert(obj)
        # A few accounted fetches so the buffer ledger is non-trivial.
        for _ in range(3):
            tree.root()
        report = check_tree(tree)
        label = "after churn" if args.churn else "bulk-loaded"
        print(f"{cls.__name__} ({label}, {args.size} objects):")
        print(report.format())
        print()
        if not report.ok:
            status = 1
    print("invariants OK" if status == 0 else "INVARIANT VIOLATIONS FOUND")
    return status


def _chaos_serve(args: argparse.Namespace, dataset, baseline, chaotic) -> int:
    """The ``chaos --serve`` leg: the same workload, through the server.

    Replays the query stream as served requests (admission, deadlines,
    breakers) against the chaotic engine and holds the server to the
    same contract as the bare engine: zero crashes (``failed``
    responses) and zero unflagged deviations from the fault-free
    baseline.  A final 4x overload burst checks load-shedding stays
    explicit and the queue stays bounded under fire.
    """
    import asyncio

    import numpy as np

    from . import SpatialKeywordQuery, WhyNotQuestion
    from .serve import (
        STATUS_FAILED,
        STATUS_OK,
        STATUS_REJECTED,
        ServerConfig,
        WhyNotServer,
    )

    rng = np.random.default_rng(args.seed)
    config = ServerConfig(breaker_cooldown=4)
    counters = {
        "crashes": 0,
        "unflagged": 0,
        "degraded": 0,
        "degraded_divergent": 0,
        "answers": 0,
        "shed": 0,
    }

    async def drive() -> dict:
        async with WhyNotServer(chaotic, config) as server:
            for i in range(args.queries):
                seed_obj = dataset.objects[int(rng.integers(0, len(dataset)))]
                doc = frozenset(list(seed_obj.doc)[:3])
                if not doc:
                    continue
                query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5)
                expected = baseline.top_k(query)
                response = await server.top_k(f"user-{i % 8}", query)
                if response.status == STATUS_FAILED:
                    counters["crashes"] += 1
                    print(f"[CRASH] query {i}: {response.reason}")
                    continue
                outcome = response.result
                if response.status != STATUS_OK or outcome.degraded:
                    counters["degraded"] += 1
                    if outcome.results != expected:
                        counters["degraded_divergent"] += 1
                elif outcome.results != expected:
                    counters["unflagged"] += 1
                    print(f"[DEVIATION] query {i}: unflagged top-k mismatch")

                if args.answer_every and i % args.answer_every == 0:
                    extended = baseline.top_k(query.with_k(21))
                    if len(extended) < 21:
                        continue
                    question = WhyNotQuestion(
                        query, (extended[-1][1],), lam=0.5
                    )
                    base_answer = baseline.answer(question, method=args.method)
                    response = await server.why_not(
                        f"user-{i % 8}", question, method=args.method
                    )
                    if response.status == STATUS_FAILED:
                        counters["crashes"] += 1
                        print(f"[CRASH] answer {i}: {response.reason}")
                        continue
                    counters["answers"] += 1
                    answer = response.result
                    same = (
                        abs(
                            answer.refined.penalty
                            - base_answer.refined.penalty
                        )
                        < 1e-9
                    )
                    if response.status != STATUS_OK or answer.degraded:
                        counters["degraded"] += 1
                        if not same:
                            counters["degraded_divergent"] += 1
                    elif not same:
                        counters["unflagged"] += 1
                        print(
                            f"[DEVIATION] answer {i}: unflagged penalty "
                            "mismatch"
                        )

            # Overload burst: 4x the topk admission bound at once.  The
            # server must shed explicitly, answer everything else, and
            # keep the queue inside its memory bound throughout.
            burst_n = 4 * server.config.limits["topk"]
            seed_obj = dataset.objects[0]
            query = SpatialKeywordQuery(
                loc=seed_obj.loc,
                doc=frozenset(list(seed_obj.doc)[:2]),
                k=5,
            )
            responses = await asyncio.gather(
                *(
                    server.top_k(f"burst-{i % 16}", query)
                    for i in range(burst_n)
                )
            )
            counters["shed"] = sum(
                1 for r in responses if r.status == STATUS_REJECTED
            )
            counters["burst_failed"] = sum(
                1 for r in responses if r.status == STATUS_FAILED
            )
            counters["burst_n"] = burst_n
            counters["queue_bound_ok"] = (
                len(server.admission) <= server.admission.capacity
            )
            return server.health()

    health = asyncio.run(drive())
    print(f"served queries:      {args.queries} (+{counters['answers']} why-not answers)")
    print(f"degraded (flagged):  {counters['degraded']}  [divergent from baseline: {counters['degraded_divergent']}]")
    print(f"unflagged deviations:{counters['unflagged']:>2}")
    print(f"crashes:             {counters['crashes']}")
    print(f"overload burst:      {counters['burst_n']} offered, {counters['shed']} shed "
          f"(queue bounded: {counters['queue_bound_ok']})")
    print(f"health:              {health['status']}  breakers={list(health['breakers']) or 'none'}")
    print(f"responses:           {health['responses']}")
    ok = (
        counters["crashes"] == 0
        and counters["unflagged"] == 0
        and counters["burst_failed"] == 0
        and counters["shed"] > 0
        and counters["queue_bound_ok"]
    )
    print("CHAOS-SERVE OK" if ok else "CHAOS-SERVE FAILED")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a query workload under deterministic fault injection.

    Two engines over the same dataset: a fault-free baseline and a
    chaotic one driven by the ``mixed`` fault schedule (transients,
    bit-rot, lost records, torn writes) at ``--intensity`` times the
    preset rates.  Every chaotic answer must either match the baseline
    *exactly* or be flagged degraded; any crash or unflagged deviation
    fails the run.  ``--recover-every`` periodically rebuilds
    quarantined indexes to exercise the recovery path, and the final
    corruption scan uses the same validator as ``check-invariants``.
    """
    import numpy as np

    from . import (
        MIXED,
        FaultInjector,
        ReproError,
        SpatialKeywordQuery,
        WhyNotEngine,
        WhyNotQuestion,
        make_euro_like,
    )

    dataset, _ = make_euro_like(args.size, seed=args.seed)
    schedule = MIXED.scaled(args.intensity)
    injector = FaultInjector(schedule, seed=args.seed)
    baseline = WhyNotEngine(dataset)
    # With --fault-shard, faults are confined to the listed shard(s);
    # the containment gate below asserts only those shards degrade.
    chaotic = WhyNotEngine(
        dataset,
        faults=injector,
        shards=args.shards or None,
        shard_mode=args.shard_mode,
        fault_shards=tuple(args.fault_shard) if args.fault_shard else None,
    )
    if getattr(args, "serve", False):
        return _chaos_serve(args, dataset, baseline, chaotic)
    rng = np.random.default_rng(args.seed)

    crashes = 0
    unflagged = 0
    degraded = 0
    degraded_divergent = 0
    answers_checked = 0
    recoveries = 0
    seen_quarantined: Set[str] = set()  # every unit quarantined in the run

    for i in range(args.queries):
        seed_obj = dataset.objects[int(rng.integers(0, len(dataset)))]
        doc = frozenset(list(seed_obj.doc)[:3])
        if not doc:
            continue
        query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5)
        expected = baseline.top_k(query)
        try:
            outcome = chaotic.run_top_k(query)
        except ReproError as exc:
            crashes += 1
            print(f"[CRASH] query {i}: {type(exc).__name__}: {exc}")
            continue
        if outcome.degraded:
            degraded += 1
            if outcome.results != expected:
                degraded_divergent += 1
        elif outcome.results != expected:
            unflagged += 1
            print(f"[DEVIATION] query {i}: unflagged top-k mismatch")

        if args.answer_every and i % args.answer_every == 0:
            extended = baseline.top_k(query.with_k(21))
            if len(extended) < 21:
                continue
            question = WhyNotQuestion(query, (extended[-1][1],), lam=0.5)
            base_answer = baseline.answer(question, method=args.method)
            try:
                answer = chaotic.answer(question, method=args.method)
            except ReproError as exc:
                crashes += 1
                print(f"[CRASH] answer {i}: {type(exc).__name__}: {exc}")
                continue
            answers_checked += 1
            same = abs(answer.refined.penalty - base_answer.refined.penalty) < 1e-9
            if answer.degraded:
                degraded += 1
                if not same:
                    degraded_divergent += 1
            elif not same:
                unflagged += 1
                print(f"[DEVIATION] answer {i}: unflagged penalty mismatch")

        if (
            args.recover_every
            and (i + 1) % args.recover_every == 0
            and chaotic.quarantined
        ):
            seen_quarantined.update(event.tree for event in chaotic.recover())
            recoveries += 1

    health = chaotic.health()
    corruption = sum(
        len(report.violations) for report in health["corruption"].values()
    )
    print(f"queries:             {args.queries} (+{answers_checked} why-not answers)")
    print(f"degraded (flagged):  {degraded}  [divergent from baseline: {degraded_divergent}]")
    print(f"unflagged deviations:{unflagged:>2}")
    print(f"crashes:             {crashes}")
    print(f"recoveries:          {recoveries}  (still quarantined: {sorted(health['quarantined']) or 'none'})")
    print(f"injector ledger:     {health['injector']}")
    print(f"live-tree corruption findings: {corruption}")
    ok = crashes == 0 and unflagged == 0
    if args.shards and args.fault_shard:
        # Containment gate: every subtree quarantined at any point of
        # the run (recoveries clear them) must belong to a shard that
        # was allowed to fault.  Keys look like "shard-3:kcr".
        seen_quarantined.update(health["quarantined"])
        allowed = {f"shard-{tid}" for tid in args.fault_shard}
        escaped = sorted(
            key
            for key in seen_quarantined
            if key.split(":", 1)[0] not in allowed
        )
        print(f"fault containment:   {'LEAKED ' + str(escaped) if escaped else 'OK'}"
              f"  (allowed: {sorted(allowed)}, seen: {sorted(seen_quarantined)})")
        # A run that never quarantines, degrades or recovers proves
        # nothing about containment.
        vacuous = not (seen_quarantined and degraded and recoveries)
        if vacuous:
            print("fault containment:   VACUOUS (needs a quarantine, a flagged"
                  " degraded answer and a recovery; raise --intensity)")
        ok = ok and not escaped and not vacuous
    print("CHAOS OK" if ok else "CHAOS FAILED")
    return 0 if ok else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import (
        Oracle,
        SpatialKeywordQuery,
        WhyNotEngine,
        WhyNotQuestion,
        make_euro_like,
    )

    dataset, vocabulary = make_euro_like(args.size, seed=args.seed)
    engine = WhyNotEngine(dataset)
    oracle = Oracle(dataset)
    seed_obj = dataset.objects[args.seed % len(dataset)]
    keywords = frozenset(list(seed_obj.doc)[:3])
    query = SpatialKeywordQuery(loc=seed_obj.loc, doc=keywords, k=5)
    print(f"initial query: keywords={vocabulary.decode(keywords)} k=5")
    print("top-5 result:", engine.top_k(query))
    missing = oracle.object_at_rank(query, 26)
    print(f"missing object: oid={missing} (rank 26 under the initial query)")
    question = WhyNotQuestion(query, (missing,), lam=0.5)
    for method in ("basic", "advanced", "kcr"):
        answer = engine.answer(question, method=method)
        print(
            f"{answer.algorithm:>11}: {answer.refined.describe(vocabulary)} "
            f"[{answer.elapsed_seconds * 1000:.1f} ms, {answer.io.page_reads} page reads]"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Scripted serving smoke session, exit-code gated.

    Starts a server over a (by default sharded) engine and drives the
    canonical client script: top-k lookups, a why-not refinement
    dialogue that must reuse the session's dominator cache, a forced
    shard quarantine that must walk the breaker through
    open -> half_open -> closed while answers stay exact, and a final
    health check that must report ``ok`` again.
    """
    import asyncio

    from . import (
        Oracle,
        SpatialKeywordQuery,
        TransientIOError,
        WhyNotEngine,
        WhyNotQuestion,
        make_euro_like,
    )
    from .serve import STATUS_DEGRADED, STATUS_OK, ServerConfig, WhyNotServer

    dataset, _ = make_euro_like(args.size, seed=args.seed)
    engine = WhyNotEngine(dataset, shards=args.shards or None)
    oracle = Oracle(dataset)
    seed_obj = dataset.objects[args.seed % len(dataset)]
    query = SpatialKeywordQuery(
        loc=seed_obj.loc, doc=frozenset(list(seed_obj.doc)[:3]), k=5
    )
    missing = oracle.object_at_rank(query, 26)
    question = WhyNotQuestion(query, (missing,), lam=0.5)
    checks: List[tuple] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))

    async def drive() -> None:
        config = ServerConfig(breaker_cooldown=3)
        async with WhyNotServer(engine, config) as server:
            print("client script: top-k + refinement dialogue")
            top = await server.top_k("alice", query)
            check("top-k ok", top.status == STATUS_OK, top.status)
            rounds = []
            for round_no in range(3):
                varied = WhyNotQuestion(
                    query.with_k(5 + round_no), (missing,),
                    lam=min(0.9, 0.5 + 0.1 * round_no),
                )
                rounds.append(
                    await server.why_not("alice", varied, method="advanced")
                )
            hits = server.sessions.snapshot()["cache_hits"]
            check(
                "dialogue answered",
                all(r.status == STATUS_OK for r in rounds),
                ",".join(r.status for r in rounds),
            )
            check("dominator cache reused", hits >= 2, f"{hits} hit(s)")
            check(
                "health ok pre-fault", server.health()["status"] == "ok"
            )

            print("forcing shard quarantine")
            index = engine.sharded_index
            victim = index.shards[-1]
            unit = f"shard-{victim.tid}:setr"
            index.mark_down(
                victim,
                "setr",
                "forced-outage",
                TransientIOError("smoke-test forced outage"),
            )
            first = await server.top_k("alice", query)
            health = server.health()
            breaker = health["breakers"].get(unit, {})
            check(
                "outage answered degraded",
                first.status == STATUS_DEGRADED,
                first.status,
            )
            check(
                "breaker opened",
                breaker.get("state") == "open"
                and health["status"] == "degraded",
                str(breaker.get("state")),
            )
            seen = {str(breaker.get("state"))}
            last = first
            for _ in range(config.breaker_cooldown + 3):
                last = await server.top_k("alice", query)
                state = (
                    server.health()["breakers"]
                    .get(unit, {})
                    .get("state")
                )
                seen.add(str(state))
                if state == "closed":
                    break
            check(
                "breaker walked open->half_open->closed",
                {"open", "half_open", "closed"} <= seen,
                "->".join(sorted(seen)),
            )
            check(
                "recovered to exact ok", last.status == STATUS_OK, last.status
            )
            check(
                "health ok post-recovery",
                server.health()["status"] == "ok",
            )
            print(f"final health: {server.health()['responses']}")

    asyncio.run(drive())
    engine.close()
    failed = [name for name, ok, _ in checks if not ok]
    print(
        "SERVE SMOKE OK"
        if not failed
        else f"SERVE SMOKE FAILED: {failed}"
    )
    return 0 if not failed else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Load-generate against the serving layer and report latencies.

    Thousands of simulated users replay over measured ``process_time``
    busy costs in virtual time (the makespan-discount convention), so
    the p50/p99 here are core-count-independent.  ``--burst`` switches
    to the overload scenario (everything arrives at once).
    """
    import statistics

    from . import WhyNotEngine, make_euro_like
    from .experiments.workload import WorkloadGenerator
    from .serve.bench import run_serve_bench

    dataset, _ = make_euro_like(args.size, seed=args.seed)
    engine = WhyNotEngine(dataset)
    generator = WorkloadGenerator(dataset, seed=args.seed)
    cases = generator.generate(
        args.probe_cases, k0=5, n_keywords=3, max_extra_keywords=4
    )
    report = run_serve_bench(
        engine,
        cases,
        n_requests=args.requests,
        users=args.users,
        seed=args.seed,
        workers=args.workers,
        load_factor=args.load,
        burst=args.burst,
    )
    latencies = report.pop("latencies_ms")
    cuts = statistics.quantiles(latencies, n=100)
    report["p50_ms"] = round(cuts[49], 4)
    report["p99_ms"] = round(cuts[98], 4)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments import benchflows

    names = args.figures or sorted(benchflows.FIGURES)
    unknown = [name for name in names if name not in benchflows.FIGURES]
    if unknown:
        print(
            f"unknown figure(s) {unknown}; "
            f"expected among {sorted(benchflows.FIGURES)}"
        )
        return 2
    if not args.emit and not args.check:
        print("nothing to do: pass --emit and/or --check BASELINE_DIR")
        return 2
    out_dir = Path(args.out)
    if args.emit:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    for name in names:
        out_path = out_dir / f"BENCH_{name}.json"
        try:
            payload = benchflows.emit_figure(
                name,
                out_path,
                rounds=args.rounds,
                scale=args.scale,
                write=args.emit,
                full=args.full,
            )
        except benchflows.PenaltyMismatchError as exc:
            failures.append(str(exc))
            continue
        if args.emit:
            print(
                f"wrote {out_path}: {len(payload['units'])} unit(s), "
                f"{len(payload['skipped'])} skipped"
            )
        if args.check:
            baseline_path = Path(args.check) / f"BENCH_{name}.json"
            if not baseline_path.exists():
                failures.append(f"{name}: no baseline at {baseline_path}")
                continue
            with open(baseline_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            for failure in benchflows.compare(
                payload, baseline, tolerance=args.tolerance
            ):
                failures.append(f"{name}: {failure}")
    if failures:
        print(f"bench gate FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if args.check:
        print(
            f"bench gate passed: {len(names)} figure(s) within "
            f"+{args.tolerance:.0%} of baseline"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-whynot",
        description="Why-not spatial keyword top-k queries via keyword adaption "
        "(ICDE 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="Table II dataset statistics")
    p_datasets.add_argument("--scale", default="default", choices=sorted(SCALES))
    p_datasets.set_defaults(func=_cmd_datasets)

    p_params = sub.add_parser("params", help="Table III parameter grid")
    p_params.set_defaults(func=_cmd_params)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a figure ('all') or ablation ('ablations')"
    )
    p_exp.add_argument(
        "figure", help="fig4..fig13, ablation-*, 'all', or 'ablations'"
    )
    p_exp.add_argument("--scale", default="default", choices=sorted(SCALES))
    p_exp.add_argument("-o", "--output", help="also write Markdown here")
    p_exp.add_argument(
        "--chart", action="store_true", help="draw terminal bar charts too"
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_demo = sub.add_parser("demo", help="end-to-end why-not demo")
    p_demo.add_argument("--size", type=int, default=2000)
    p_demo.add_argument("--seed", type=int, default=7)
    p_demo.set_defaults(func=_cmd_demo)

    p_quality = sub.add_parser(
        "quality", help="profile optimal refinements across lambda"
    )
    p_quality.add_argument("--scale", default="default", choices=sorted(SCALES))
    p_quality.set_defaults(func=_cmd_quality)

    p_analyze = sub.add_parser(
        "analyze",
        help="unified static analysis: lint + flow contracts + "
        "determinism-taint + resource-lifetime (repro.analysis)",
    )
    p_analyze.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    p_analyze.add_argument(
        "--rules",
        default="flow",
        help="comma-separated rulesets: lint,flow,taint,lifetime "
        "(default: flow)",
    )
    p_analyze.add_argument(
        "--all",
        action="store_true",
        help="run every ruleset plus stale-waiver detection",
    )
    p_analyze.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    p_analyze.add_argument(
        "--signatures",
        action="store_true",
        help="include per-function effect signatures in --json output",
    )
    p_analyze.add_argument(
        "--baseline",
        help="baseline file of known violation keys; only NEW violations fail",
    )
    p_analyze.add_argument(
        "--write-baseline",
        help="write the current unwaived violation keys to this file and exit",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_check = sub.add_parser(
        "check-invariants",
        help="validate SetR/KcR-tree structure and buffer accounting",
    )
    p_check.add_argument("--size", type=int, default=10_000)
    p_check.add_argument("--seed", type=int, default=7)
    p_check.add_argument("--capacity", type=int, default=100)
    p_check.add_argument(
        "--churn",
        type=int,
        default=0,
        help="delete+reinsert this many objects before validating",
    )
    p_check.set_defaults(func=_cmd_check_invariants)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a query workload under fault injection; fail on any "
        "crash or unflagged deviation from the fault-free baseline",
    )
    p_chaos.add_argument("--size", type=int, default=2000)
    p_chaos.add_argument("--seed", type=int, default=7)
    p_chaos.add_argument("--queries", type=int, default=200)
    p_chaos.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="multiplier on the mixed schedule's fault rates",
    )
    p_chaos.add_argument(
        "--answer-every",
        type=int,
        default=25,
        help="also check a why-not answer every N queries (0 = never)",
    )
    p_chaos.add_argument(
        "--recover-every",
        type=int,
        default=50,
        help="rebuild quarantined indexes every N queries (0 = never)",
    )
    p_chaos.add_argument(
        "--method",
        default="kcr",
        help="why-not method for the answer checks",
    )
    p_chaos.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the chaotic engine over N spatial shards (0 = one, the default)",
    )
    p_chaos.add_argument(
        "--shard-mode",
        default="simulate",
        choices=("simulate", "process"),
        help="per-shard parallelism mode for the sharded engine",
    )
    p_chaos.add_argument(
        "--fault-shard",
        type=int,
        action="append",
        help="confine faults to this shard id (repeatable); enables the "
        "containment gate asserting only listed shards degrade (the run "
        "must quarantine, degrade and recover at least once)",
    )
    p_chaos.add_argument(
        "--serve",
        action="store_true",
        help="replay the workload through the serving layer (admission, "
        "deadlines, breakers) and gate on the same zero-crash / "
        "zero-unflagged contract plus explicit overload shedding",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="scripted serving smoke session: dialogue cache reuse, forced "
        "shard quarantine, breaker recovery, health transitions",
    )
    p_serve.add_argument("--size", type=int, default=2000)
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for the served engine (0 = the default "
        "one-shard engine)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_serve_bench = sub.add_parser(
        "serve-bench",
        help="simulated heavy traffic over the serving layer; p50/p99 via "
        "the makespan-discount convention (process_time busy)",
    )
    p_serve_bench.add_argument("--size", type=int, default=1500)
    p_serve_bench.add_argument("--seed", type=int, default=2016)
    p_serve_bench.add_argument("--requests", type=int, default=2000)
    p_serve_bench.add_argument("--users", type=int, default=300)
    p_serve_bench.add_argument("--workers", type=int, default=4)
    p_serve_bench.add_argument(
        "--load",
        type=float,
        default=0.65,
        help="offered load as a fraction of fleet capacity",
    )
    p_serve_bench.add_argument(
        "--probe-cases",
        type=int,
        default=3,
        help="workload cases measured for real to calibrate service costs",
    )
    p_serve_bench.add_argument(
        "--burst",
        action="store_true",
        help="overload scenario: all requests arrive at one instant",
    )
    p_serve_bench.add_argument("-o", "--output", help="also write JSON here")
    p_serve_bench.set_defaults(func=_cmd_serve_bench)

    p_bench = sub.add_parser(
        "bench",
        help="figure benchmark emitters (BENCH_fig*.json) and the "
        ">10%% p50 regression gate",
    )
    p_bench.add_argument(
        "--emit", action="store_true", help="write BENCH_fig*.json files"
    )
    p_bench.add_argument(
        "--check",
        metavar="BASELINE_DIR",
        help="compare against checked-in baselines; non-zero exit on "
        "regression",
    )
    p_bench.add_argument(
        "--figures",
        nargs="*",
        help="subset of figures (default: all), e.g. fig04 fig13",
    )
    p_bench.add_argument("--out", default=".", help="output directory")
    p_bench.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="timing rounds per unit",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed normalized p50 regression (0.10 = +10%%)",
    )
    p_bench.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="inflate recorded latencies by this factor (negative "
        "control for the gate; scaled payloads are stamped)",
    )
    p_bench.add_argument(
        "--full",
        action="store_true",
        help="run the full-size sharded scalability sweep (1M+ objects, "
        "process mode)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser(
        "verify", help="cross-check all exact algorithms against brute force"
    )
    p_verify.add_argument("--size", type=int, default=800)
    p_verify.add_argument("--seed", type=int, default=11)
    p_verify.add_argument("--trials", type=int, default=5)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

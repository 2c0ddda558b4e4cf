"""End-to-end asyncio paths through :class:`WhyNotServer`.

Each test drives a real engine through the real admission / dispatch /
classification pipeline via ``asyncio.run`` — no event-loop plugin
required.  Overload behaviour is exercised at 4x the admission bound,
per the serving layer's acceptance scenario.
"""

import asyncio

import pytest

from repro import TransientIOError
from repro.errors import InvalidParameterError
from repro.serve import (
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServerConfig,
    WhyNotServer,
)


def _drive(coro):
    return asyncio.run(coro)


class TestHappyPath:
    def test_topk_and_whynot_ok(self, serve_engine, serve_cases):
        async def scenario():
            async with WhyNotServer(serve_engine) as server:
                case = serve_cases[0]
                top = await server.top_k("s1", case.question.query)
                why = await server.why_not("s1", case.question)
                return top, why

        top, why = _drive(scenario())
        assert top.status == STATUS_OK
        assert top.accepted and top.exact
        assert top.result is not None
        assert why.status == STATUS_OK
        assert why.result.refined is not None
        assert why.kind == "whynot"
        assert why.session == "s1"

    @pytest.mark.parametrize("shards", [None, 4])
    def test_concurrent_kcr_questions_stay_exact(
        self, serve_dataset, serve_cases, shards
    ):
        """Two workers answer KcR questions at once; each shard keeps one
        walker, so the questions must not drive it together."""
        from repro import WhyNotEngine

        engine = WhyNotEngine(serve_dataset, shards=shards)
        questions = [case.question for case in serve_cases] * 2
        expected = [engine.answer(q, method="kcr").refined for q in questions]
        config = ServerConfig(workers=2, budgets={"topk": None, "whynot": None})

        async def scenario():
            async with WhyNotServer(engine, config) as server:
                return await asyncio.gather(
                    *(
                        server.why_not(f"s{i}", q, method="kcr")
                        for i, q in enumerate(questions)
                    )
                )

        responses = _drive(scenario())
        assert [r.status for r in responses] == [STATUS_OK] * len(questions)
        assert [r.result.refined for r in responses] == expected

    def test_submit_requires_running_server(self, serve_engine, serve_cases):
        server = WhyNotServer(serve_engine)
        with pytest.raises(InvalidParameterError):
            _drive(server.top_k("s1", serve_cases[0].question.query))

    def test_dialogue_reuses_dominator_cache(self, serve_engine, serve_cases):
        async def scenario():
            async with WhyNotServer(serve_engine) as server:
                case = serve_cases[0]
                for _ in range(3):
                    response = await server.why_not(
                        "dialogue", case.question, method="advanced"
                    )
                    assert response.status == STATUS_OK
                return server.sessions.snapshot()

        snap = _drive(scenario())
        assert snap["cache_hits"] >= 2


class TestOverload:
    def test_burst_at_4x_bound_sheds_explicitly(
        self, serve_engine, serve_cases
    ):
        limit = 8
        config = ServerConfig(limits={"topk": limit, "whynot": 2})
        query = serve_cases[0].question.query

        async def scenario():
            async with WhyNotServer(serve_engine, config) as server:
                burst = [
                    server.top_k(f"user-{i % 5}", query)
                    for i in range(4 * limit)
                ]
                responses = await asyncio.gather(*burst)
                return responses, len(server.admission), server.health()

        responses, depth_after, health = _drive(scenario())
        rejected = [r for r in responses if r.status == STATUS_REJECTED]
        served = [r for r in responses if r.status == STATUS_OK]
        # Offers all land before the pump drains, so the arithmetic is
        # exact: the bound admits `limit`, the rest shed.
        assert len(rejected) == 3 * limit
        assert len(served) == limit
        assert all(r.reason == "overloaded" for r in rejected)
        assert all(not r.accepted for r in rejected)
        # Memory stays bounded: nothing lingers in the queue.
        assert depth_after == 0
        assert health["queue"]["shed"] == 3 * limit
        assert health["responses"][STATUS_REJECTED] == 3 * limit

    def test_rejected_response_carries_request_identity(
        self, serve_engine, serve_cases
    ):
        config = ServerConfig(limits={"topk": 1, "whynot": 1})
        query = serve_cases[0].question.query

        async def scenario():
            async with WhyNotServer(serve_engine, config) as server:
                return await asyncio.gather(
                    *(server.top_k("same", query) for _ in range(4))
                )

        responses = _drive(scenario())
        rejected = [r for r in responses if r.status == STATUS_REJECTED]
        assert rejected and all(r.session == "same" for r in rejected)
        assert all(r.result is None for r in rejected)


class TestDeadlines:
    def test_spent_budget_classified_timeout(self, serve_engine, serve_cases):
        async def scenario():
            async with WhyNotServer(serve_engine) as server:
                return await server.why_not(
                    "slow", serve_cases[0].question, budget_seconds=1e-9
                )

        response = _drive(scenario())
        assert response.status == STATUS_TIMEOUT
        assert response.reason == "deadline expired"
        # The work still completed: deadlines bound promises, not work.
        assert response.result is not None

    def test_generous_budget_stays_ok(self, serve_engine, serve_cases):
        async def scenario():
            async with WhyNotServer(serve_engine) as server:
                return await server.top_k(
                    "fast", serve_cases[0].question.query, budget_seconds=60.0
                )

        assert _drive(scenario()).status == STATUS_OK


class TestDegradation:
    def test_quarantine_breaker_walk_to_recovery(
        self, faulty_engine, serve_cases
    ):
        config = ServerConfig(breaker_cooldown=2, breaker_max_cooldown=8)
        index = faulty_engine.sharded_index
        shard = index.shards[1]
        unit = f"shard-{shard.tid}:setr"
        question = serve_cases[0].question

        async def scenario():
            async with WhyNotServer(faulty_engine, config) as server:
                index.mark_down(
                    shard, "setr", "forced-outage", TransientIOError("forced")
                )
                states = []
                statuses = []
                for _ in range(5):
                    response = await server.why_not(
                        "ops", question, method="basic"
                    )
                    statuses.append(response.status)
                    breaker = server.breakers.snapshot().get(unit)
                    states.append(breaker["state"] if breaker else None)
                return states, statuses, server.health()

        states, statuses, health = _drive(scenario())
        # Fault surfaces as flagged degradation, never an error.
        assert statuses[0] == STATUS_DEGRADED
        # The breaker walks open -> half_open -> closed as requests tick.
        assert states[0] == "open"
        assert "half_open" in states
        assert states[-1] == "closed"
        assert statuses[-1] == STATUS_OK
        assert health["status"] == "ok"
        assert health["quarantined"] == []


class TestHealth:
    def test_health_shape(self, serve_engine, serve_cases):
        async def scenario():
            async with WhyNotServer(serve_engine) as server:
                await server.top_k("h", serve_cases[0].question.query)
                return server.health()

        health = _drive(scenario())
        assert health["status"] == "ok"
        assert set(health) == {
            "status",
            "quarantined",
            "breakers",
            "queue",
            "sessions",
            "responses",
        }
        assert health["sessions"]["requests"] == 1

"""Problems are charged to the ops they make wrong."""

from types import SimpleNamespace

from wnbench.ops import Op
from wnbench.workloads import OpResult, check_ops


class AgreeingChecker:
    """Passes every answer, so only status and penalty problems remain."""

    def top_k(self, query, results):
        return None

    def why_not(self, question, answer):
        return None


def answer(penalty):
    return SimpleNamespace(refined=SimpleNamespace(penalty=penalty))


def why_not_op(op_id, kind, group, lam=0.5):
    return Op(op_id, kind, group, question=SimpleNamespace(lam=lam))


def test_failed_status_is_charged_to_its_op():
    results = [OpResult(Op(0, "topk", 0), 0.01, "failed", error="boom"),
               OpResult(Op(1, "topk", 1), 0.01, "ok", result=[])]
    assert [op_id for op_id, _ in check_ops(AgreeingChecker(), results)] == [0]


def test_penalty_mismatch_is_charged_to_every_op_compared():
    results = [OpResult(why_not_op(0, "advanced", 7), 0.01, "ok", answer(0.25)),
               OpResult(why_not_op(1, "kcr", 7), 0.01, "ok", answer(0.5)),
               OpResult(why_not_op(2, "advanced", 8), 0.01, "ok", answer(0.5)),
               OpResult(why_not_op(3, "kcr", 8), 0.01, "ok", answer(0.5))]
    assert sorted(op_id for op_id, _ in check_ops(AgreeingChecker(), results)) == [0, 1]

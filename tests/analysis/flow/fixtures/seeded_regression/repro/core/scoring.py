"""Fixture: one finding for each remaining syntactic lint rule.

``exact-float``, ``mutable-default``, ``public-annotations`` and
``no-print`` each fire exactly once here (``bare-assert`` lives in
``emitter.py``).
"""


def is_unweighted(lam: float) -> bool:
    return lam == 0.0


def with_default(item: int, into: list = []) -> list:
    return into + [item]


def total(values: list):
    return sum(values)


def show(value: float) -> None:
    print(value)

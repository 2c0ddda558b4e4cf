"""The one finding type every analysis layer reports.

A :class:`Finding` names its *ruleset* (``lint``, ``flow``, ``taint``,
``lifetime`` or ``stale-waiver``), the rule that fired, where, and the
call-chain witness when the rule has one.  A few fields belong to one
ruleset only and stay ``None`` elsewhere: ``col`` (lint), ``entry``
(flow: the contract entry point a chain starts at), ``kind``/``sink``
(taint: the nondeterminism kind and the sink it reaches; for a stale
waiver, ``kind`` is the comment form, ``lint`` or ``flow``) and
``resource``/``var`` (lifetime).

``key`` is the finding's line-independent identity, the form a
baseline file records.  Flow keys are unprefixed (compatible with the
original ``flow-baseline.json``); every other ruleset prefixes its own
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Finding", "STALE_WAIVER"]

STALE_WAIVER = "stale-waiver"


@dataclass
class Finding:
    """One rule violation; ``run_analysis`` marks it waived/baselined."""

    ruleset: str
    rule: str
    path: str
    line: int
    message: str
    function: Optional[str] = None
    module: Optional[str] = None
    chain: List[str] = field(default_factory=list)
    col: Optional[int] = None
    entry: Optional[str] = None
    kind: Optional[str] = None
    sink: Optional[str] = None
    resource: Optional[str] = None
    var: Optional[str] = None
    waived: bool = False
    baselined: bool = False

    @property
    def key(self) -> str:
        if self.ruleset == "flow":
            anchor = self.entry if self.entry is not None else self.function
            return f"{self.rule}::{anchor}::{self.function}"
        if self.ruleset == "taint":
            return f"taint::{self.rule}::{self.function}::{self.sink}::{self.kind}"
        if self.ruleset == "lifetime":
            return (
                f"lifetime::{self.rule}::{self.function}::"
                f"{self.resource}:{self.var}"
            )
        return f"{self.ruleset}::{self.path}::{self.line}::{self.rule}"

    @property
    def blocking(self) -> bool:
        return not self.waived and not self.baselined

    def format(self) -> str:
        where = f"{self.path}:{self.line}"
        if self.col is not None:
            where += f":{self.col}"
        label = STALE_WAIVER if self.ruleset == STALE_WAIVER else self.rule
        lines = [f"{where}: [{label}] {self.message}"]
        lines.extend(f"    -> {hop}" for hop in self.chain)
        return "\n".join(lines)

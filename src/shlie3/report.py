"""One failure and report type for every identity check.

A check compares the two sides of an identity on each input of a spanning
family.  ``Report.checked`` lists those inputs (witnesses) in the order they
were enumerated; ``Report.failures`` holds one ``Failure`` per comparison
that did not hold: the identity, the witness naming its exact inputs, and the
exact residual lhs - rhs in flat coordinates.  The witness encoding and the
residual's space for each check are listed in the README, section "Reading a
failure report".
"""

from __future__ import annotations

from .linalg import Frozen, narrow


class Failure(Frozen):
    __slots__ = _fields = ("identity", "witness", "residual")


class Report(Frozen):
    __slots__ = _fields = ("name", "failures", "checked")

    @property
    def passed(self) -> bool:
        return not self.failures


class Collector:
    """Gathers the comparisons of one check into a ``Report``."""

    def __init__(self, name: str):
        self.name = name
        self.failures: list[Failure] = []
        self.checked: list = []

    def compare(self, identity: str, witness: tuple, lhs, rhs) -> None:
        """Record ``witness`` (once for consecutive comparisons on the same
        witness object) and, when lhs != rhs, a failure with residual lhs - rhs,
        narrowed (``linalg.narrow``); the residual is only built on a mismatch."""
        if not self.checked or self.checked[-1] is not witness:
            self.checked.append(witness)
        if lhs != rhs:
            residual = tuple(narrow(a - b) for a, b in zip(lhs, rhs))
            self.failures.append(Failure(identity, witness, residual))

    def report(self) -> Report:
        return Report(self.name, tuple(self.failures), tuple(self.checked))

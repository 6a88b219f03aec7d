"""The catalogue of dynamic checks CCured can insert.

Every inserted check is recorded as a :class:`CheckSite` with a unique
integer identifier.  The identifier is also embedded in the program (as the
last argument of the check call), which is how the evaluation counts the
checks surviving optimization — the same "unique string per check"
methodology the paper uses for Figure 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cminor.errors import SourceLocation

#: Names of the runtime helper functions implementing each check, and of the
#: failure handlers.  The check-identifier argument is always last.
CHECK_HELPER_NAMES = {
    "null": "__ccured_check_null",
    "ptr": "__ccured_check_ptr",
    "wild": "__ccured_check_wild",
}

FAIL_HANDLER_NAMES = ("__ccured_fail",)

#: All functions whose final argument is a check/failure identifier.
ID_CARRYING_FUNCTIONS = tuple(CHECK_HELPER_NAMES.values()) + FAIL_HANDLER_NAMES


class CheckKind(enum.Enum):
    """The kind of dynamic check inserted at a site."""

    NULL = "null"          #: Null check on a SAFE pointer dereference.
    BOUNDS = "bounds"      #: Null + bounds check on a SEQ pointer access.
    INDEX = "index"        #: Bounds check on an array access with a computed index.
    WILD = "wild"          #: Full metadata check on a WILD pointer access.

    @property
    def helper(self) -> str:
        """Name of the runtime helper that implements this check."""
        if self is CheckKind.NULL:
            return CHECK_HELPER_NAMES["null"]
        if self is CheckKind.WILD:
            return CHECK_HELPER_NAMES["wild"]
        return CHECK_HELPER_NAMES["ptr"]


@dataclass
class CheckSite:
    """One inserted dynamic check.

    Attributes:
        check_id: Unique identifier (also embedded in the program).
        kind: What the check verifies.
        function: Name of the function the check was inserted into.
        description: Human-readable description of the guarded access.
        loc: Source location of the guarded access.
        guards_write: Whether the guarded access is a store.
        racy: Whether the guarded access involves a racy variable (and the
            check was therefore wrapped in an atomic section).
    """

    check_id: int
    kind: CheckKind
    function: str
    description: str = ""
    loc: Optional[SourceLocation] = None
    guards_write: bool = False
    racy: bool = False

    def verbose_message(self, application: str) -> str:
        """The full failure message used by the VERBOSE strategies."""
        where = str(self.loc) if self.loc is not None else "<unknown>"
        return (f"{application}: {where}: {self.function}: "
                f"{self.kind.value} check failed ({self.description}) "
                f"[chk{self.check_id}]")

    def terse_message(self) -> str:
        """The short failure message used by the TERSE strategy."""
        return f"{self.kind.value[0]}{self.check_id}"


@dataclass
class CheckInventory:
    """All checks inserted into one program."""

    sites: list[CheckSite] = field(default_factory=list)

    def add(self, site: CheckSite) -> None:
        self.sites.append(site)

    def count(self) -> int:
        return len(self.sites)

    def count_by_kind(self) -> dict[CheckKind, int]:
        histogram = {kind: 0 for kind in CheckKind}
        for site in self.sites:
            histogram[site.kind] += 1
        return histogram

    def ids(self) -> set[int]:
        return {s.check_id for s in self.sites}

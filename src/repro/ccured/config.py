"""Configuration of the CCured stage.

The knobs here correspond one-to-one to the build variants in the paper's
Figure 3: how failure messages are encoded (the first four bars), whether
the runtime library is the naive port or the embedded-adapted one
(Section 2.3), whether checks touching racy variables get locks
(Section 2.2), and whether CCured's own check optimizer runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MessageStrategy(enum.Enum):
    """How run-time failure messages are represented in the image.

    * ``VERBOSE`` — full ``file:line: function: check`` strings.  On the
      Mica2 these strings live in RAM (AVR string literals are copied to
      SRAM at boot), which is what makes this variant so expensive.
    * ``VERBOSE_ROM`` — the same strings, explicitly placed in flash.
    * ``TERSE`` — short strings with the source location stripped.
    * ``FLID`` — each failure site is a 16-bit failure-location identifier;
      an offline table (:mod:`repro.ccured.flid`) maps identifiers back to
      the full message.
    """

    VERBOSE = "verbose"
    VERBOSE_ROM = "verbose_rom"
    TERSE = "terse"
    FLID = "flid"


class RuntimeMode(enum.Enum):
    """Which CCured runtime library is linked into the program.

    ``FULL`` is the naive port of the desktop runtime (operating-system and
    x86 dependencies stubbed, garbage collector still present); ``TRIMMED``
    is the embedded-adapted runtime of Section 2.3, with the OS/x86
    dependencies removed and GC support compiled out.
    """

    FULL = "full"
    TRIMMED = "trimmed"


@dataclass
class CCuredConfig:
    """Options controlling the safety transformation.

    Attributes:
        message_strategy: Failure-message encoding (Figure 3 variants).
        runtime_mode: Naive or embedded-adapted runtime library.
        insert_locks: Wrap checks involving racy variables in atomic
            sections (the Section 2.2 concurrency modification).  Disabling
            this reproduces the unsound "sequential CCured" behaviour.
        run_optimizer: Run CCured's own redundant-check optimizer after
            instrumentation.
        check_reads: Instrument loads as well as stores.
        application_name: Used in verbose failure messages.
    """

    message_strategy: MessageStrategy = MessageStrategy.VERBOSE
    runtime_mode: RuntimeMode = RuntimeMode.TRIMMED
    insert_locks: bool = True
    run_optimizer: bool = True
    check_reads: bool = True
    application_name: str = "app"

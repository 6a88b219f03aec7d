"""Chaos policies: deterministic process-fault injection for the kernel.

A :class:`ChaosPolicy` is *data* in the same sense the scenario layer's
:class:`~repro.scenarios.faults.FaultPlan` is: a frozen dataclass of
numbers, JSON-round-trippable (``ChaosPolicy.from_dict(p.to_dict()) == p``)
and seeded, so a chaos run is exactly reproducible from its spec.  Where a
fault plan perturbs the *simulated* motes, a chaos policy perturbs the
simulator's own execution layer: each ``(worker, round)`` kill makes shard
worker ``worker`` die (``os._exit``) the moment it receives its
``round``-th window grant — mid-protocol, with a grant in flight, the
worst spot the supervision layer has to recover from.

The sharded kernel's checkpoint/replay recovery (``repro.avrora.shard``)
restores the dead shard and replays the lost windows, so a chaos run's
results are bit-identical to a fault-free run; that contract is why
``SimSpec.chaos`` is an execution knob excluded from the spec's content
key, exactly like ``workers``.

Policies are injectable two ways: programmatically on
:attr:`Network.chaos <repro.avrora.network.Network>`, or through
``SimSpec.chaos`` (the CLI's ``--chaos``, which :meth:`ChaosPolicy.parse`
reads in either the JSON form of :meth:`ChaosPolicy.to_dict` or the
compact ``W@R[,W@R...]`` syntax: ``"1@3"`` = kill worker 1 at round 3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

#: Exit code of a chaos-killed worker process — recognizable in process
#: tables and distinct from Python's generic failure exits.
CHAOS_EXIT_CODE = 86


def _mix64(*values: int) -> int:
    """A splitmix64-style mixer (mirrors ``Channel.packet_fate``'s)."""
    state = 0x9E3779B97F4A7C15
    for value in values:
        state = (state + (value & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 30
        state = (state * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        state = (state * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 31
    return state


@dataclass(frozen=True)
class ChaosPolicy:
    """Kill shard workers at chosen window rounds, deterministically.

    Attributes:
        kills: ``(worker, round)`` pairs; worker indices are 0-based,
            rounds are 1-based (the worker dies on receiving that grant).
            Canonicalized to a sorted, deduplicated tuple so equal
            policies compare and serialize identically.  Pairs naming a
            worker index outside the run's actual worker count, or a
            round the run never reaches, simply never fire — a policy
            written for ``workers=4`` is harmless under ``workers=2``.
        seed: Seed :meth:`sampled` derived the kills from (0 for
            hand-written policies).  Recorded so a sampled policy's
            provenance survives serialization.
    """

    kills: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self):
        normalized = []
        for entry in self.kills:
            try:
                worker, round_number = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"chaos: each kill must be a (worker, round) pair, "
                    f"got {entry!r}") from None
            if not isinstance(worker, int) or isinstance(worker, bool) \
                    or worker < 0:
                raise ValueError(
                    f"chaos: worker index must be a non-negative integer, "
                    f"got {worker!r}")
            if not isinstance(round_number, int) \
                    or isinstance(round_number, bool) or round_number < 1:
                raise ValueError(
                    f"chaos: kill round must be a positive integer, "
                    f"got {round_number!r}")
            normalized.append((worker, round_number))
        object.__setattr__(self, "kills", tuple(sorted(set(normalized))))
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(
                f"chaos: seed must be a non-negative integer, "
                f"got {self.seed!r}")

    # -- queries ---------------------------------------------------------------

    def kill_rounds(self, worker: int) -> frozenset:
        """The window rounds at which ``worker`` is scheduled to die."""
        return frozenset(round_number for target, round_number in self.kills
                         if target == worker)

    def label(self) -> str:
        """Human-readable one-liner (CLI and log output)."""
        if not self.kills:
            return "chaos: none"
        return "chaos: " + ", ".join(
            f"kill {worker}@{round_number}"
            for worker, round_number in self.kills)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"kills": [list(pair) for pair in self.kills],
                "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPolicy":
        if not isinstance(data, dict):
            raise TypeError(
                f"chaos: expected a policy object, got {type(data).__name__}")
        kills = tuple(tuple(pair) for pair in data.get("kills", ()))
        return cls(kills=kills, seed=data.get("seed", 0))

    @classmethod
    def parse(cls, text: str) -> Optional["ChaosPolicy"]:
        """Parse the CLI syntax; empty or blank text means no policy.

        Accepts the JSON form of :meth:`to_dict` (``{"kills": [[1, 3]]}``)
        or the compact ``W@R[,W@R...]`` form (``"1@3,0@7"``).
        """
        text = text.strip()
        if not text:
            return None
        if text.startswith("{"):
            try:
                return cls.from_dict(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ValueError(f"chaos: undecodable JSON policy: {exc}") \
                    from exc
        kills = []
        for part in text.split(","):
            part = part.strip()
            worker, separator, round_number = part.partition("@")
            if not separator:
                raise ValueError(
                    f"chaos: expected WORKER@ROUND, got {part!r}")
            try:
                kills.append((int(worker), int(round_number)))
            except ValueError:
                raise ValueError(
                    f"chaos: expected integers in WORKER@ROUND, "
                    f"got {part!r}") from None
        return cls(kills=tuple(kills))

    # -- seeded sampling -------------------------------------------------------

    @classmethod
    def sampled(cls, workers: int, *, kills: int = 1, max_round: int = 12,
                seed: int = 0) -> "ChaosPolicy":
        """A deterministic pseudo-random policy for soak-style testing.

        Draws ``kills`` distinct ``(worker, round)`` pairs over
        ``workers`` worker indices and rounds in ``[1, max_round]`` from a
        splitmix64 stream of ``seed`` — equal arguments always yield the
        equal policy.
        """
        if workers < 1:
            raise ValueError(f"chaos: workers must be >= 1, got {workers}")
        if max_round < 1:
            raise ValueError(
                f"chaos: max_round must be >= 1, got {max_round}")
        drawn: set = set()
        draw = 0
        while len(drawn) < min(kills, workers * max_round):
            value = _mix64(seed, draw)
            draw += 1
            drawn.add((value % workers, 1 + (value >> 32) % max_round))
        return cls(kills=tuple(drawn), seed=seed)

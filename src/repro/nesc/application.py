"""nesC applications: a set of components plus the wiring between them.

An :class:`Application` is the equivalent of a top-level nesC
``configuration``: it names the components involved, wires used interface
instances to provided interface instances, and lists the ``StdControl``
instances that the generated ``main`` must initialize and start (the role
the ``Main`` component plays in TinyOS 1.x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.nesc.component import Component


@dataclass(frozen=True)
class Wire:
    """A single wiring edge: user.instance -> provider.instance."""

    user: str
    user_instance: str
    provider: str
    provider_instance: str

    def __str__(self) -> str:
        return (f"{self.user}.{self.user_instance} -> "
                f"{self.provider}.{self.provider_instance}")


@dataclass
class Application:
    """A wired TinyOS application.

    Attributes:
        name: Application name (e.g. ``"Surge"``).
        platform: ``"mica2"`` or ``"telosb"``.
        components: The components that make up the application.
        wires: Wiring edges between used and provided interface instances.
        boot: Ordered ``(component, instance)`` pairs whose ``StdControl``
            commands the generated ``main`` calls (``init`` then ``start``).
        common_source: CMinor source shared by all components (struct
            definitions such as ``struct TOS_Msg`` and shared constants).
        description: One-line description used in reports.
    """

    name: str
    platform: str = "mica2"
    components: list[Component] = field(default_factory=list)
    wires: list[Wire] = field(default_factory=list)
    boot: list[tuple[str, str]] = field(default_factory=list)
    common_source: str = ""
    description: str = ""

    def component(self, name: str) -> Component:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(f"application {self.name} has no component {name!r}")

    def has_component(self, name: str) -> bool:
        return any(c.name == name for c in self.components)

    def add_component(self, component: Component) -> None:
        if self.has_component(component.name):
            raise ValueError(f"duplicate component {component.name!r}")
        self.components.append(component)

    def wire(self, user: str, user_instance: str,
             provider: str, provider_instance: str) -> None:
        """Add a wiring edge, validating both endpoints."""
        user_comp = self.component(user)
        provider_comp = self.component(provider)
        used = user_comp.used_instance(user_instance)
        provided = provider_comp.provided_instance(provider_instance)
        if used is None:
            raise ValueError(
                f"{user} does not use an interface instance named {user_instance!r}")
        if provided is None:
            raise ValueError(
                f"{provider} does not provide an interface instance named "
                f"{provider_instance!r}")
        if used.name != provided.name:
            raise ValueError(
                f"interface mismatch on wire {user}.{user_instance} -> "
                f"{provider}.{provider_instance}: {used.name} vs {provided.name}")
        self.wires.append(Wire(user, user_instance, provider, provider_instance))

    def wires_from(self, user: str, user_instance: str) -> list[Wire]:
        return [w for w in self.wires
                if w.user == user and w.user_instance == user_instance]

    def wires_to(self, provider: str, provider_instance: str) -> list[Wire]:
        return [w for w in self.wires
                if w.provider == provider and w.provider_instance == provider_instance]

    def validate(self) -> None:
        """Check that the wiring is complete and unambiguous.

        Every used interface instance must be wired to exactly one provider
        (fan-out of commands is not supported, matching the restrictions the
        TinyOS 1.x library components rely on); provided instances may be
        wired to any number of users (event fan-out is supported).
        """
        for comp in self.components:
            comp.validate()
            for inst in comp.uses:
                wires = self.wires_from(comp.name, inst)
                if not wires:
                    raise ValueError(
                        f"{self.name}: {comp.name}.{inst} is used but not wired")
                if len(wires) > 1:
                    raise ValueError(
                        f"{self.name}: {comp.name}.{inst} is wired to multiple "
                        "providers")
        for component_name, instance in self.boot:
            comp = self.component(component_name)
            if comp.provided_instance(instance) is None:
                raise ValueError(
                    f"{self.name}: boot entry {component_name}.{instance} is not "
                    "a provided interface instance")

"""Census of every app × variant build, for diffing two checkouts.

Builds each of the figure applications under every predefined variant
(12 × 10 = 120 builds) and writes one sorted JSON document: per build, the
sha256 of the printed final program (``to_source``), its ``summary()``
(code and RAM bytes, inserted and surviving checks) and the ids of the
surviving checks.  A change meant to keep every build byte-identical runs it
at the parent commit and at the change, then compares the two files with
``diff``.

An older checkout also registered ``fig2-ccured-gcc``,
``fig2-ccured-cxprop-gcc`` and ``fig2-ccured-inline-cxprop-gcc`` (13 variants,
156 builds), second names for ``safe-flid``, ``safe-flid-cxprop`` and
``safe-optimized``.  Against such a parent, first check that each of those
entries equals its twin's apart from ``variant``, then leave them out of the
diff.

Usage, from the repository root (about 15 s)::

    PYTHONPATH=src python benchmarks/build_census.py census.json

Without an argument the JSON goes to stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.api.workbench import Workbench
from repro.cminor.pretty import to_source
from repro.tinyos.suite import FIGURE_APPS
from repro.toolchain.variants import all_variant_names


def census() -> dict[str, dict]:
    """One entry per ``app/variant`` build."""
    workbench = Workbench()
    entries: dict[str, dict] = {}
    for app in FIGURE_APPS:
        for variant in all_variant_names():
            result = workbench.build_result(app, variant)
            source = to_source(result.program).encode()
            entries[f"{app}/{variant}"] = {
                "source_sha256": hashlib.sha256(source).hexdigest(),
                "summary": result.summary(),
                "surviving_checks": sorted(result.image.surviving_checks),
            }
    return entries


def main(argv: list[str]) -> int:
    text = json.dumps(census(), indent=1, sort_keys=True) + "\n"
    if argv:
        with open(argv[0], "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

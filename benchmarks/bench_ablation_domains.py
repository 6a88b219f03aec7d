"""Ablation over cXprop's pluggable abstract domains.

cXprop's design point (and its companion paper) is that the analysis engine
is parameterized by an abstract domain.  This harness builds the safe,
inlined configuration with the constant-propagation, interval, and
value-set domains and compares how many checks each can eliminate and what
the resulting images cost.  The interval domain is the paper's workhorse:
bounds checks need ranges, so the constant domain removes strictly fewer.
"""

from __future__ import annotations

import pytest

from repro.toolchain.config import BuildVariant
from repro.ccured.config import MessageStrategy

_DOMAINS = ["constant", "interval", "valueset"]


def _variant(domain: str) -> BuildVariant:
    return BuildVariant(
        name=f"safe-optimized-{domain}",
        description=f"Safe, FLIDs, inlined, cXprop with the {domain} domain",
        message_strategy=MessageStrategy.FLID,
        run_inliner=True,
        run_cxprop=True,
        cxprop_domain=domain,
    )


def _ablation(workbench, apps):
    rows = []
    for app in apps:
        row = {"application": app}
        for domain in _DOMAINS:
            result = workbench.build_unregistered(app, _variant(domain))
            row[f"{domain}_survivors"] = result.checks_surviving
            row[f"{domain}_code"] = result.image.code_bytes
            row["inserted"] = result.checks_inserted
        rows.append(row)
    return rows


def test_domain_ablation(benchmark, workbench, selected_apps):
    apps = selected_apps[:5] if len(selected_apps) > 5 else selected_apps
    rows = benchmark.pedantic(_ablation, args=(workbench, apps), rounds=1,
                              iterations=1)

    print()
    print("Abstract-domain ablation (surviving checks / code bytes)")
    header = f"{'application':<32s} {'inserted':>9s}"
    for domain in _DOMAINS:
        header += f" {domain + ' chk':>13s} {domain + ' code':>14s}"
    print(header)
    for row in rows:
        line = f"{row['application']:<32s} {row['inserted']:>9d}"
        for domain in _DOMAINS:
            line += (f" {row[f'{domain}_survivors']:>13d}"
                     f" {row[f'{domain}_code']:>14d}")
        print(line)

    total_constant = sum(r["constant_survivors"] for r in rows)
    total_interval = sum(r["interval_survivors"] for r in rows)
    total_valueset = sum(r["valueset_survivors"] for r in rows)
    print(f"\nsuite totals: constant={total_constant} interval={total_interval} "
          f"valueset={total_valueset} (of {sum(r['inserted'] for r in rows)})")

    # Ranges matter: the interval domain eliminates at least as many checks
    # as plain constant propagation, and strictly more somewhere.
    assert total_interval <= total_constant
    assert total_interval < total_constant or total_valueset < total_constant, \
        "range-based domains should beat constant propagation somewhere"
    # The value-set domain is at least as precise as intervals here.
    assert total_valueset <= total_constant

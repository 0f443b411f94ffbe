#!/usr/bin/env python3
"""Maintenance CLI for the persistent spec-outcome store (repro.synth.store).

Two subcommands:

``info PATH``
    Report entry counts by kind, file size and load-time diagnostics
    (stale entries dropped, corrupt-file flag).

``compact PATH --max-entries N``
    LRU-style pruning: keep the ``N`` most recently hit entries (lookups
    and writes both refresh an entry's position) and drop the rest, for
    stores that outgrow a few MB.

Usage::

    PYTHONPATH=src python scripts/store_tool.py info outcomes.sqlite
    PYTHONPATH=src python scripts/store_tool.py compact outcomes.sqlite --max-entries 50000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.synth.store import SpecOutcomeStore  # noqa: E402


def cmd_info(args: argparse.Namespace) -> int:
    store = SpecOutcomeStore(args.path)
    kinds = {"spec": 0, "guard": 0}
    for _key, payload in store.raw_entries():
        kind = str(payload.get("kind"))
        kinds[kind] = kinds.get(kind, 0) + 1
    report = {
        "path": store.path,
        "entries": len(store),
        "by_kind": kinds,
        "file_bytes": os.path.getsize(store.path) if os.path.exists(store.path) else 0,
        "loaded": store.stats.loaded,
        "stale_dropped": store.stats.stale_dropped,
        "corrupt_file": store.stats.corrupt_file,
    }
    store.close()
    print(json.dumps(report, indent=2))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    store = SpecOutcomeStore(args.path)
    before = len(store)
    pruned = store.compact(args.max_entries)
    store.flush()
    after = len(store)
    store.close()
    print(
        json.dumps(
            {
                "path": args.path,
                "entries_before": before,
                "pruned": pruned,
                "entries_after": after,
            },
            indent=2,
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="report store size and diagnostics")
    info.add_argument("path")
    info.set_defaults(func=cmd_info)

    compact = sub.add_parser("compact", help="LRU-prune to --max-entries")
    compact.add_argument("path")
    compact.add_argument("--max-entries", type=int, required=True)
    compact.set_defaults(func=cmd_compact)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

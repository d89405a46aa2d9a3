#!/usr/bin/env python3
"""Diff the determinism-matrix artifact against the checked-in digest table.

bench/determinism_matrix.cpp runs every canned scenario x seed x shard
count and writes BENCH_determinism.json with two digests per cell: the
Trace::digest() and a verification digest over every aggregator's
verification history.  This script enforces two layers:

  1. The artifact's own gates (shard parity, seed sensitivity) must have
     passed — always hard; there is no way to baseline a parity break.
  2. Every digest of both kinds must match tools/determinism_matrix.json,
     the table pinned in the repo.  A mismatch means the revision changed
     simulated behaviour; if that is intentional, re-pin with --update and
     let the diff show up in review.  Cells missing from the table (a new
     scenario) are reported the same way.

Stdlib only.  Exits 0 when everything matches, 1 otherwise.

Usage:
    python3 tools/check_determinism_matrix.py [--artifact FILE]
        [--table FILE] [--update]
"""

import argparse
import json
import sys


def cell_key(entry):
    return "%s/seed=%d/shards=%d" % (
        entry["scenario"], entry["seed"], entry["shards"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", default="build/BENCH_determinism.json",
                        help="matrix artifact written by determinism_matrix")
    parser.add_argument("--table", default="tools/determinism_matrix.json",
                        help="checked-in digest table")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the table from the artifact "
                             "(parity gates still enforced)")
    args = parser.parse_args()

    try:
        with open(args.artifact, encoding="utf-8") as f:
            artifact = json.load(f)
    except (OSError, ValueError) as exc:
        print("cannot read artifact %s: %s" % (args.artifact, exc),
              file=sys.stderr)
        return 1

    failures = 0
    # Layer 1: the binary's own gates, never baselinable.
    for gate in ("shard_parity", "seed_sensitivity"):
        if not artifact.get(gate, False):
            print("FAIL %s: artifact reports the gate as failed" % gate)
            failures += 1

    entries = artifact.get("entries", [])
    # Table section -> that section's digest per cell.
    kinds = {
        "digests": {cell_key(e): e["digest"] for e in entries},
        "verification_digests": {cell_key(e): e.get("verify_digest")
                                 for e in entries},
    }
    if not entries:
        print("FAIL: artifact holds no matrix entries")
        failures += 1
    for key, got in sorted(kinds["verification_digests"].items()):
        if got is None:
            print("FAIL %s: artifact entry has no verify_digest" % key)
            failures += 1

    if args.update:
        if failures:
            print("refusing --update: parity gates failed", file=sys.stderr)
            return 1
        table = {"duration_s": artifact.get("duration_s")}
        for kind, digests in kinds.items():
            table[kind] = dict(sorted(digests.items()))
        with open(args.table, "w", encoding="utf-8") as f:
            json.dump(table, f, indent=2)
            f.write("\n")
        print("pinned %d cells into %s" % (len(entries), args.table))
        return 0

    # Layer 2: the checked-in table.
    try:
        with open(args.table, encoding="utf-8") as f:
            table = json.load(f)
    except (OSError, ValueError) as exc:
        print("cannot read table %s: %s (generate with --update)"
              % (args.table, exc), file=sys.stderr)
        return 1

    if artifact.get("duration_s") != table.get("duration_s"):
        print("FAIL: artifact duration_s=%s but table pinned %s — digests "
              "are only comparable at the same horizon"
              % (artifact.get("duration_s"), table.get("duration_s")))
        failures += 1
    for kind, digests in kinds.items():
        pinned = table.get(kind, {})
        for key in sorted(set(pinned) | set(digests)):
            got = digests.get(key)
            want = pinned.get(key)
            if got is None:
                print("FAIL %s %s: pinned in the table but absent from the "
                      "artifact" % (kind, key))
                failures += 1
            elif want is None:
                print("FAIL %s %s: new matrix cell %s not in the table — "
                      "pin it with --update" % (kind, key, got))
                failures += 1
            elif got != want:
                print("FAIL %s %s: digest drifted %s -> %s — if the "
                      "behaviour change is intentional, re-pin with --update"
                      % (kind, key, want, got))
                failures += 1
            else:
                print("ok   %s %s %s" % (kind, key, got))

    if failures:
        print("determinism matrix: %d failure(s)" % failures)
        return 1
    print("determinism matrix: all %d cells match on both digests"
          % len(entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())

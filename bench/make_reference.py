#!/usr/bin/env python3
"""Regenerate ``bench/reference.json`` from the program as it stands.

    python3 bench/make_reference.py

Stores, for the default seed, the checksum rows of the first ops of every
workload (the arrays a later change must reproduce), and for
coproduct_identities the term count and exact coefficient sum of the
assembled Delta^(3) list for every (n, J) the workload can draw.  Run it only
when a change is meant to alter outputs, and say so in the change.
"""

import json
import os
import sys

from run import DEFAULT_SEED, REFERENCE, SRC
from workloads import WORKLOADS, assembled_key, assembled_summary

CHECKSUM_OPS = 16


def main():
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls()
        stored = {}
        if name == "coproduct_identities":
            from epolylog import hopf

            table = {}
            for n in sorted({n for _, n in wl.block}):
                for mask in range(1, 2 ** (n - 1)):
                    J = tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
                    terms = hopf.assemble_asymptotic(hopf.canonical_symbol(n), set(J))
                    table[assembled_key(n, J)] = assembled_summary(terms)
            stored["assembled"] = table
        wl.setup(DEFAULT_SEED, 1.0, SRC, stored)
        stored["checksums"] = [
            wl.checksum(wl.digest(wl.run(inp))) for inp in wl.inputs[:CHECKSUM_OPS]
        ]
        out[name] = stored
        print(f"{name}: {len(stored['checksums'])} checksum rows", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE)}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Brute-force top-k of one benchmark collection, as JSON rows on stdout.

Usage: ``python3 topkbench/oracle_worker.py RECORDS SEED K``.  The
collection is regenerated from its seed, exactly as the batch workload
builds it, so nothing but three integers crosses the process boundary.
"""

import json
import sys

import checkout

if __name__ == "__main__":
    checkout.use_program()
    from repro import dblp_like, naive_topk

    records, seed, k = (int(arg) for arg in sys.argv[1:4])
    rows = [[r.x, r.y, r.similarity]
            for r in naive_topk(dblp_like(records, seed=seed), k)]
    json.dump(rows, sys.stdout)

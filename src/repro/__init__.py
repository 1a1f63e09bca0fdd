"""repro — a reproduction of *Top-k Set Similarity Joins* (ICDE 2009).

Xiao, Wang, Lin and Shang's ``topk-join`` returns the *k* most similar
record pairs of a collection — no similarity threshold to guess —
progressively, best pair first.  This package implements the algorithm with
all of the paper's optimisations, the threshold-join substrate it builds on
(All-Pairs, ppjoin, ppjoin+), the ``pptopk`` baseline it is evaluated
against, and the synthetic workloads and benchmark harness that regenerate
every table and figure of the paper's evaluation (see DESIGN.md and
EXPERIMENTS.md).

Quickstart::

    from repro import RecordCollection, topk_join

    texts = ["the lord of the rings", "lord of the rings", "hamlet"]
    collection = RecordCollection.from_texts(texts)
    for pair in topk_join(collection, k=2):
        print(pair.x, pair.y, pair.similarity)
"""

from .core import (
    EmitEvent,
    JoinStats,
    PptopkStats,
    TaggedCollection,
    TopkOptions,
    TopkSession,
    TopkStats,
    default_threshold_schedule,
    naive_topk,
    naive_topk_rs,
    pptopk_join,
    topk_join,
    topk_join_iter,
    topk_join_rs,
)
from .data import (
    Record,
    RecordCollection,
    dblp_like,
    load_collection,
    synthetic_collection,
    trec3_like,
    trec_like,
    uniref3_like,
)
from .joins import (
    all_pairs_join,
    naive_threshold_join,
    ppjoin,
    ppjoin_plus,
    threshold_join,
)
from .result import JoinResult, similarity_multiset, sort_results
from .similarity import (
    Cosine,
    Dice,
    Jaccard,
    Overlap,
    SimilarityFunction,
    similarity_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
    "Record",
    "RecordCollection",
    "load_collection",
    "synthetic_collection",
    "dblp_like",
    "trec_like",
    "trec3_like",
    "uniref3_like",
    # similarity
    "SimilarityFunction",
    "Jaccard",
    "Cosine",
    "Dice",
    "Overlap",
    "similarity_by_name",
    # results
    "JoinResult",
    "sort_results",
    "similarity_multiset",
    # threshold joins
    "threshold_join",
    "naive_threshold_join",
    "all_pairs_join",
    "ppjoin",
    "ppjoin_plus",
    # top-k joins
    "topk_join",
    "topk_join_iter",
    "topk_join_rs",
    "naive_topk_rs",
    "TaggedCollection",
    "TopkSession",
    "pptopk_join",
    "naive_topk",
    "TopkOptions",
    "default_threshold_schedule",
    # instrumentation
    "JoinStats",
    "TopkStats",
    "PptopkStats",
    "EmitEvent",
]

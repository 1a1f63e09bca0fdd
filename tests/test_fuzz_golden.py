"""Pin what the fuzz campaigns generate and how the corpus names cases.

The committed ``golden/fuzz_campaign_digests.json`` records, for seed 0,
the corpus file name (the content digest) of each of the first 60 cases
the batch, stream and serve campaigns generate — for batch also the
per-iteration metamorphic seed.  A refactor of the campaign loop must
leave it byte-identical: same seed, same cases, same digests.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
from pathlib import Path

import pytest

from repro.oracle.fuzz import (
    BATCH,
    SERVE,
    STREAM,
    campaign_cases,
    load_corpus_case,
    save_corpus_case,
)

GOLDEN_DIGESTS = (
    Path(__file__).parent / "golden" / "fuzz_campaign_digests.json"
)
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

SEED = 0
CASES = 60
MAX_RECORDS = 28


def _first_cases(flavor):
    """The first cases the *flavor* campaign checks for :data:`SEED`."""
    return itertools.islice(
        campaign_cases(flavor, SEED, max_records=MAX_RECORDS), CASES
    )


def _file_name(tmp_dir, case):
    return os.path.basename(save_corpus_case(tmp_dir, case, []))


def render_campaign_digests(tmp_dir):
    """The committed golden file's content, recomputed.

    Regenerate the file only when the campaigns are *meant* to explore
    different cases.
    """
    document = {
        "seed": SEED,
        "batch": [
            {
                "file": _file_name(tmp_dir, case),
                "metamorphic_seed": metamorphic_seed,
            }
            for __, case, metamorphic_seed in _first_cases(BATCH)
        ],
        "stream": [
            _file_name(tmp_dir, case) for __, case, ___ in _first_cases(STREAM)
        ],
        "serve": [
            _file_name(tmp_dir, case) for __, case, ___ in _first_cases(SERVE)
        ],
    }
    return json.dumps(document, indent=2) + "\n"


def test_campaign_digests_match_the_committed_golden(tmp_path):
    expected = GOLDEN_DIGESTS.read_text(encoding="utf-8")
    assert render_campaign_digests(str(tmp_path)) == expected


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_committed_case_resaves_under_its_own_name(path, tmp_path):
    case, document = load_corpus_case(path)
    saved = save_corpus_case(
        str(tmp_path),
        case,
        document.get("failures", []),
        seed=document.get("seed"),
        generator=document.get("generator"),
        description=document.get("description", ""),
    )
    assert os.path.basename(saved) == os.path.basename(path)

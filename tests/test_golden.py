"""Every golden case's report is byte-for-byte the one recorded in golden.json."""

import json

import pytest

import pairs
from golden import GOLDEN, run_case

with open(GOLDEN, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)


def test_golden_lists_every_case():
    listed = [(c["id"], c["pair"], tuple(c["argv"])) for c in RECORDED]
    assert listed == [(case, pair, tuple(argv)) for case, pair, argv in pairs.CASES]


@pytest.mark.parametrize("case", RECORDED, ids=[c["id"] for c in RECORDED])
def test_golden_report(case, tmp_path):
    code, digest = run_case(case["pair"], case["argv"], str(tmp_path))
    assert (code, digest) == (case["exit"], case["sha256"])

"""Golden-output regression: small experiment CSVs must not change by a byte.

The hashes pin the exact heuristic picks, sizes and tie-breaks (and the
metadata block, including the tool version).  A change that alters any of
them on purpose must re-record the hash here and say why in CHANGES.md.
"""

import hashlib

import pytest

from tieset.cli import EXIT_OK, main

GOLDEN = [
    (["experiment", "1", "--sizes", "100,200", "--count", "2"],
     "78cb7a4a0128db5b0103f19cbe96ccb6714188ed8a476883e97500fca19cbaa1"),
    (["experiment", "2", "--sizes", "8,10", "--count", "4"],
     "3e629be7616526c90f41c67406b092bd89b3c30e62fd0f8c7608d3cb7e9f7141"),
    (["experiment", "4", "--sizes", "100", "--count", "2"],
     "0a4b6b759262b7976df176759aba7bde123f104b16f0b71ddb96af5e66dfe718"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=["exp1", "exp2", "exp4"])
def test_experiment_csv_matches_golden_hash(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

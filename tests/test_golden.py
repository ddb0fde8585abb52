"""Golden-output regression: small experiment CSVs must not change by a byte.

The hashes pin the exact heuristic picks, sizes and tie-breaks (and the
metadata block, including the tool version).  A change that alters any of
them on purpose must re-record the hash here and say why in CHANGES.md.
Experiments 3 and 5 read a BA and an NWS edge list written by ``gen``;
experiment 3 keeps its default timeout, so each run is made under a budget.
Experiments 2 and 4 are also pinned at their CLI defaults.
"""

import hashlib

import pytest

from tieset.cli import EXIT_OK, main

DATASETS = ["--dataset", "ba={ba}", "--dataset", "nws={nws}"]

GOLDEN = [
    (["experiment", "1", "--sizes", "100,200", "--count", "2"],
     "78cb7a4a0128db5b0103f19cbe96ccb6714188ed8a476883e97500fca19cbaa1"),
    (["experiment", "2", "--sizes", "8,10", "--count", "4"],
     "3e629be7616526c90f41c67406b092bd89b3c30e62fd0f8c7608d3cb7e9f7141"),
    (["experiment", "4", "--sizes", "100", "--count", "2"],
     "0a4b6b759262b7976df176759aba7bde123f104b16f0b71ddb96af5e66dfe718"),
    (["experiment", "3", *DATASETS],
     "57bf681aec4438850f4204e7d05bbe12c74bcefa714699d81b4636c6888a70d1"),
    (["experiment", "5", *DATASETS],
     "4fcebc9a59af51782a1d18942d8fe1b03aa8d1c0dab07871add853c9aff76e83"),
    # the CLI defaults of experiments 2 and 4
    (["experiment", "2"],
     "eb44bb737b4506d0676349c21e2778771abc4fe457a863a6fe001b6acde5d219"),
    (["experiment", "4"],
     "a742d5f5304ec5efffd8b5762c02140eaf0c27879772302e40b2fc59eb66f452"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=["exp1", "exp2", "exp4", "exp3", "exp5", "exp2-defaults", "exp4-defaults"]
)
def test_experiment_csv_matches_golden_hash(tmp_path, argv, digest):
    files = {}
    for model, seed in (("ba", "7"), ("nws", "8")):
        files[model] = tmp_path / f"{model}.txt"
        gen = ["gen", "--model", model, "--n", "60", "--seed", seed, "--out", str(files[model])]
        assert main(gen) == EXIT_OK
    out = tmp_path / "out.csv"
    assert main([*(arg.format(**files) for arg in argv), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

"""Golden digests: the canonical bytes of one report per result record type
and per named bound, and the bytes of every CSV form.

Each case runs one command in process and hashes `canonical_bytes` of its
report, with `params.code` (a temporary file path) dropped; a CSV case
hashes the whole file it writes. A change to any key, value or number
format of a report changes its digest; a deliberate output change updates
the digest here and says so.
"""

import hashlib
import json

import pytest

from listlab.cli import main
from listlab.reports import canonical_bytes

SCAN_ONLY = {"budgets": {"max_subsets": 1}}
SUBSETS_ONLY = {"budgets": {"max_received_words": 1}}
# a heavy-sum slack small enough that every draw at level 1 fails
CHAIN_FAIL = {"constants": {"c1": 0.01, "C5": 0.000625}}
# heavy coordinates that shrink from all 1,024 to 4 to none over three levels
CHAIN_DEEP = {"constants": {"c1": 0.5, "C5": 0.03125}}

# argv per case; "@rs", "@had", "@had2", "@scan_only", "@subsets_only",
# "@chain_fail" and "@chain_deep" name files the fixture writes
CASES = {
    "field": ["field", "--q", "16"],
    "code-make": ["code", "make", "--kind", "sample-rs", "--q", "7", "--k", "2",
                  "--n", "5", "--seed", "3"],
    "code-info": ["code", "info", "--code", "@rs"],
    "oracle-check-exhaustive": ["oracle", "check", "--code", "@rs", "--radius", "1/2",
                                "--list-bound", "2"],
    "oracle-check-sampled": ["oracle", "check", "--code", "@rs", "--radius", "1/4",
                             "--list-bound", "2", "--sample-received", "40", "--seed", "5"],
    "oracle-check-average": ["oracle", "check", "--code", "@rs", "--radius", "1/4",
                             "--list-bound", "3", "--mode", "average-radius"],
    "oracle-profile": ["oracle", "profile", "--code", "@rs", "--max-list-size", "3"],
    "bounds-eval": ["bounds", "eval", "--name", "johnson-eps", "--params",
                    '{"n": 5, "q": 3, "L": 2, "eps": 0.5, "pair_sum": 1.0}'],
    "bounds-eval-entropy": ["bounds", "eval", "--name", "entropy", "--params",
                            '{"q": 3, "x": 0.5}'],
    "bounds-eval-capacity": ["bounds", "eval", "--name", "capacity", "--params",
                             '{"q": 4, "eps": 0.1}'],
    "bounds-eval-capacity-small-eps": ["bounds", "eval", "--name", "capacity-small-eps",
                                       "--params", '{"q": 16, "eps": 0.01}'],
    "bounds-eval-johnson-root": ["bounds", "eval", "--name", "johnson-root", "--params",
                                 '{"n": 5, "L": 2, "pair_sum": 1.0}'],
    "bounds-eval-sampled-agreement": ["bounds", "eval", "--name", "sampled-agreement",
                                      "--params", '{"E": 2.0, "L": 4, "N": 16}'],
    "bounds-eval-blocklength": ["bounds", "eval", "--name", "blocklength", "--params",
                                '{"q": 16, "eps": 0.25, "variant": "small-q", "k": 2}'],
    "bounds-eval-hoeffding": ["bounds", "eval", "--name", "hoeffding", "--params",
                              '{"ranges": [[0, 1]], "v": 1}'],
    "bounds-eval-gaussian-max": ["bounds", "eval", "--name", "gaussian-max", "--params",
                                 '{"sigma": 1, "n": 1000}'],
    "bounds-table": ["bounds", "table", "--q-grid", "2,16", "--eps-grid", "1/4,1/8"],
    "plurality-profile": ["plurality", "profile", "--code", "@rs",
                          "--messages", "0,1;1,2;2,3"],
    "plurality-maxagr": ["plurality", "maxagr", "--code", "@rs",
                         "--messages", "0,1;1,2;2,3"],
    "plurality-Q-scan": ["plurality", "Q", "--code", "@rs", "--list-size", "3",
                         "--config", "@scan_only"],
    "plurality-Q-subsets": ["plurality", "Q", "--code", "@rs", "--list-size", "3",
                            "--config", "@subsets_only"],
    "plurality-Q-greedy": ["plurality", "Q", "--code", "@had", "--list-size", "9",
                           "--mode", "greedy"],
    "plurality-Q-sampled": ["plurality", "Q", "--code", "@had", "--list-size", "9",
                            "--mode", "sampled", "--trials", "30", "--seed", "2"],
    "chain-build": ["chain", "build", "--code", "@had", "--list-size", "64",
                    "--eta", "0.5", "--seed", "1"],
    "chain-build-failed": ["chain", "build", "--code", "@had", "--list-size", "64",
                           "--eta", "0.5", "--seed", "11", "--config", "@chain_fail"],
    "chain-build-three-levels": ["chain", "build", "--code", "@had2", "--list-size", "256",
                                 "--eta", "0.5", "--seed", "3", "--config", "@chain_deep"],
    "chain-mc-exact": ["chain", "mc", "--code", "@rs", "--list-size", "6"],
    "chain-mc-sampled": ["chain", "mc", "--code", "@had", "--list-size", "16",
                         "--trials", "50", "--seed", "4"],
    "chain-mc-supremum": ["chain", "mc", "--code", "@rs", "--check", "supremum",
                          "--list-size", "4", "--candidates", "4", "--trials", "30"],
    "chain-symmetrize": ["chain", "symmetrize", "--family", "sampled-hadamard", "--q", "3",
                         "--k", "2", "--n", "6", "--list-size", "4", "--trials", "20",
                         "--candidates", "3"],
    "experiment-corollary": ["experiment", "corollary", "--variant", "small-q", "--q", "5",
                             "--eps", "1/2", "--k", "2", "--draws", "3", "--n", "4"],
    "experiment-beyond-johnson": ["experiment", "beyond-johnson", "--q", "5", "--k", "2",
                                  "--n", "3", "--l-cap", "3", "--seeds-count", "2"],
    "suite-chaining": ["suite", "--scope", "chaining", "--seed", "7"],
}

DIGESTS = {
    "bounds-eval": "4f3d057ddb7f1e8e965976212d822b81cb6c3f5dac5bf5961b51edc83bd0cf44",
    "bounds-eval-blocklength": "67dbdb5c2d53ac227d8c2832cc8c28f9e341dbcd3e469480e30eeeeca365cb04",
    "bounds-eval-capacity": "82c78a801656a9c0b5d357e3eb388f1c7dfabb1eb54d56bbfeed589e38c12c50",
    "bounds-eval-capacity-small-eps": "625d4447764b03f595767ab63784dee772b8c46c0fef25fb9da4f7432f1c46c2",
    "bounds-eval-entropy": "3f18f93f63c900b0a602193d46d58d49eee0cf69fecbeb8777f9a20f5628d7b8",
    "bounds-eval-gaussian-max": "e6a138423a058fb8be26bbf303c01afafa0acb94b5a3f266fe5d9141c6a2af7e",
    "bounds-eval-hoeffding": "7375feba92e43c13f925ecfd60d3270b7372a665ddbad6675ec037a1711e9b1d",
    "bounds-eval-johnson-root": "a55c84545953d76eee1a82d54dbbf265719180c58250de041174a15f9d15e274",
    "bounds-eval-sampled-agreement": "f00305978bc524f132368a277b82ccbefe2d3b872aca926a133963a4da424939",
    "bounds-table": "3aed9ff1f709cf6247708610a6fad4f2be8ed3ceba6f25ef1e0fef64f5173314",
    "chain-build": "def831b92ba3434c75190783936f595a82f7023893234d4f89a964aa31cfe266",
    "chain-build-failed": "40a5367364e2bcc5601d64669e875c42854b8c6022a44f92eac38922f703374a",
    "chain-build-three-levels": "d15cfe328c0a52a8c30ee5f58b19426aa564887f07ae94760eab31b92e89d772",
    "chain-mc-exact": "4b20ad67699496fdfbe051dbece3b6a8b6cb6e1ec59e14f244bf35e9352ebcce",
    "chain-mc-sampled": "d7556b474b174d64ea9cbf79b8fcb766d8f65b33147f544f8c66d9cfbb5298cb",
    "chain-mc-supremum": "e33b845695576badc08d31fb20e17a3c2e08d1f57a2507f9ab58aa59157c2ef3",
    "chain-symmetrize": "cf5136e08cf34e4ddc308eb891ab5a3a75d62b49712c3886c4d5c1667552d9d7",
    "code-info": "9637814761ef840b5840bd2b0b114667f3df4de88bac258d9349863a1f302461",
    "code-make": "744be1171e53b6322a1ac5129a453d34898369eba78d95e37663076654609091",
    "experiment-beyond-johnson": "72e58eb33202402abcca93d4baab7ffde1d44ea9762698d59420a5171c59bb0f",
    "experiment-corollary": "f3c00a2477fe4676d82e809624b31ae7b067d0e2ff85cf1a4d93b056fb97eec6",
    "field": "de9a025b90f2c3966d65841035ff1539a269b35d0229fc96c1c4e0944a42e8b5",
    "oracle-check-average": "b9554bb0b070d8243068034db2aaf824075cdc8ecb657a6160d3468a239ac8bf",
    "oracle-check-exhaustive": "25d02103877b77aa91a44b263f1899a9260711a22d06d637237cb64e6cb97dd4",
    "oracle-check-sampled": "5d59a6f378a6bd6f5e5159b9ef968da840337ae5835ed9b9b4041b214a6f4819",
    "oracle-profile": "c4d7167666fe2d22e226b700ac52fc1bb67cd91e58f9f4feb2d9eb48e13c4118",
    "plurality-Q-greedy": "0cb3a951d309e85fd4b9d8491d5c64ae00e45ea2fe5bb6f30ecc67d46c4bd069",
    "plurality-Q-sampled": "f896e44ebddd0d335672fcc59a196840b3b325bee21aaa2618ca72433018a891",
    "plurality-Q-scan": "2a17cf6da942a5d450135cb88d0f7c5667c64fe19fd12bc6b09ef5064cd720d5",
    "plurality-Q-subsets": "1f733b6c181eb971b13418d359f368c789562b84ba5356f79a6b6c42d548dabb",
    "plurality-maxagr": "bfbcdea9a5afc536416f5ac6bf2068be2b11acd61191d598f6833def5d9f2265",
    "plurality-profile": "d003eab2db7e8e8e9c1498302a3c4debc8569b5a9e1340418c34d2f87dd29336",
    "suite-chaining": "5f21c255f984a146f8b4f48ff00e37cd8abd2b7e16b3bcae2ef731b3b5aec086",
}


# commands with a CSV form, run with --format csv
CSV_CASES = {
    "oracle-profile": CASES["oracle-profile"],
    "bounds-table": CASES["bounds-table"],
    "chain-build": CASES["chain-build"],
    "experiment-beyond-johnson": CASES["experiment-beyond-johnson"],
}

CSV_DIGESTS = {
    "bounds-table": "a6e921b3a9e11610e34d3d38a650985900291b8314acce014d9c8bd8f7002be6",
    "chain-build": "3ffa2a045ad13784df6dca16a9eccd8efcb6187c647d5eb8f57795c8b3021ebd",
    "experiment-beyond-johnson": "a63becaf0c8bd2819279b7d71c08a983efcc70f6413b0c4abf855d94bbcf0f51",
    "oracle-profile": "6b4cd442acaa12648f3f630b3adbcbc31539f8ab330e8a0c705364e39d2daca5",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    names = ("rs", "had", "had2", "scan_only", "subsets_only", "chain_fail", "chain_deep")
    paths = {f"@{name}": str(root / f"{name}.json") for name in names}
    assert main(["code", "make", "--kind", "rs", "--q", "5", "--k", "2",
                 "--evals", "0,1,2,3", "--out", paths["@rs"]]) == 0
    assert main(["code", "make", "--kind", "hadamard", "--q", "3", "--k", "5",
                 "--out", paths["@had"]]) == 0
    assert main(["code", "make", "--kind", "hadamard", "--q", "2", "--k", "10",
                 "--out", paths["@had2"]]) == 0
    configs = {"scan_only": SCAN_ONLY, "subsets_only": SUBSETS_ONLY, "chain_fail": CHAIN_FAIL,
               "chain_deep": CHAIN_DEEP}
    for name, doc in configs.items():
        with open(paths[f"@{name}"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def report_digest(argv: list[str], out_path) -> str:
    assert main([*argv, "--out", str(out_path)]) in (0, 1)
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["params"].pop("code", None)
    return hashlib.sha256(canonical_bytes(report)).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_canonical_report_digest(case, files, tmp_path):
    argv = [files.get(arg, arg) for arg in CASES[case]]
    assert report_digest(argv, tmp_path / "report.json") == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_digest(case, files, tmp_path):
    argv = [files.get(arg, arg) for arg in CSV_CASES[case]]
    out_path = tmp_path / "report.csv"
    assert main([*argv, "--format", "csv", "--out", str(out_path)]) in (0, 1)
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == CSV_DIGESTS[case]

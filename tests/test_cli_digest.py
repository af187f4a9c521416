"""Pinned CLI output: the sha256 of stdout, stderr and exit code of `check
--json` on every fixture, of `query --method both --json --trace` under
both pools on the small ones, and of the help and usage texts.

The digests were recorded before the package dropped the code paths that
`check` and `query` never run, so each later simplification is checked
against the output of the code it replaced; the `bc_store` rows, for a
fixture added later, were recorded from the code that added it, and the
package before that change prints the same.  The `query` rows were
re-recorded when the oracle's JSON answer gained `exact_lower` and
`exact_upper`; each moved output differs from the one before by those two
fields alone.  The commands run in-process, from the fixture directory, so
no path but the fixture's file name reaches the output, and with an
80-column terminal, which argparse wraps its help to.  A row fixture has no
`query:` line; it is asked (C | A) over its chain roles.  Regenerate the
table with `python tests/test_cli_digest.py` only for a change that is
meant to alter the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import pytest

from taxprob.cli import main

from helpers import FIXTURES, ROW_ROLES

SMALL = ("bc_store", "bird", "chain4", "medical_reduced") + tuple(
    sorted(ROW_ROLES))
POOLS = ("kb-events", "kb-plus-products")


def _commands():
    """(label, argv) of every pinned command, in table order."""
    cmds = [(f"check {name}", ["check", f"{name}.kb", "--json"])
            for name in SMALL]
    for name in SMALL:
        goal = []
        if name in ROW_ROLES:
            a, _, c = ROW_ROLES[name]
            goal = ["--goal", f"( {c} | {a} )"]
        for pool in POOLS:
            cmds.append((f"query {name} {pool}",
                         ["query", f"{name}.kb", *goal, "--method", "both",
                          "--json", "--trace", "--pool", pool]))
    cmds.append(("check medical", ["check", "medical.kb", "--json"]))
    cmds += [("help", ["--help"]), ("help query", ["query", "--help"]),
             ("usage error", ["query", "bird.kb", "--pool", "all"])]
    return cmds


COMMANDS = dict(_commands())


def run_digest(argv):
    """sha256 of the exit code, stdout and stderr of `taxprob <argv>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse after help or a usage error
            code = exc.code
    record = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(record.encode()).hexdigest()


GOLDEN_CLI = {
    "check bc_store": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check bird": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check chain4": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check medical_reduced": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_a": "f9f2d008b1f9a92a6343bbb66acd26a9de11d1541df15261811718b9d60b46d0",
    "check row_b": "2cacc1d76a60847fafac4ae0c1d5f3875488355ccc0c0f7892ee0eb3395a212b",
    "check row_c": "d10cf5f3d910f20860299e7d21e653d7af537dc9f779e163a1a56ca36f82eac2",
    "check row_d": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_e": "ffa2695aa69472a96db2f571caa10d76e92fed04fa4645997aef5a51e86b2e82",
    "check row_f": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_g": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_h": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_i": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_j": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "check row_k": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "query bc_store kb-events": "a99cef586e13791b9b641024675553fc1fed82e0b0856c89af5a6827d8e67109",
    "query bc_store kb-plus-products": "a99cef586e13791b9b641024675553fc1fed82e0b0856c89af5a6827d8e67109",
    "query bird kb-events": "17d4799b481b44f1da8bfac61ea0a38d0e7b960e0082d97e33948d2430f92f8c",
    "query bird kb-plus-products": "5601205ff382114f66a426f12b8b2eb8e3ce23b687b88a5166a60b4c6db19391",
    "query chain4 kb-events": "fcf469ced6d976bf485a88f4519966033f43c5641523d06c8dd87a0c333fd25b",
    "query chain4 kb-plus-products": "fcf469ced6d976bf485a88f4519966033f43c5641523d06c8dd87a0c333fd25b",
    "query medical_reduced kb-events": "4b9167b1eaf51affa70777082b7bb340ed1e487283be676bf59ef71d992aad84",
    "query medical_reduced kb-plus-products": "4b9167b1eaf51affa70777082b7bb340ed1e487283be676bf59ef71d992aad84",
    "query row_a kb-events": "28f829bd75398f90cf258e7450cc678fcff3a0477aa9f4755afaaf57046559e0",
    "query row_a kb-plus-products": "28f829bd75398f90cf258e7450cc678fcff3a0477aa9f4755afaaf57046559e0",
    "query row_b kb-events": "83b045a8848adc2574afb9874961af5d8cc04e27124252fe651bca24afb80fbb",
    "query row_b kb-plus-products": "83b045a8848adc2574afb9874961af5d8cc04e27124252fe651bca24afb80fbb",
    "query row_c kb-events": "bf6d84e40489df509a05931a5ff6075f97f6b669cd4eb564dd9901b0e3d87e33",
    "query row_c kb-plus-products": "84fca4963a71d80e19c6c16a975d72ca57d6b2a0839c4d51eecc6249d45a5bf6",
    "query row_d kb-events": "7263e58ee30e415e508c5cfa1acc213c47ce1861425b3892ad3a05f0f80cc16d",
    "query row_d kb-plus-products": "7263e58ee30e415e508c5cfa1acc213c47ce1861425b3892ad3a05f0f80cc16d",
    "query row_e kb-events": "2d50b7840a04f64cb357db86712b242240d3d52f4b4c2235ed4451e54f35e7ab",
    "query row_e kb-plus-products": "4bc11dbae864944c6070c89adf78ce202ee742659d78031ba3b45b4ea9fa22ee",
    "query row_f kb-events": "b7c88d6a245a82b4c80a778847e8a5e715d59168617f3b4deaf299536954c0aa",
    "query row_f kb-plus-products": "b7c88d6a245a82b4c80a778847e8a5e715d59168617f3b4deaf299536954c0aa",
    "query row_g kb-events": "1f030b3f28ddeb19e4e67f4ab7b9573a91a5cd99f2b1ce7d5faf581ca112d5af",
    "query row_g kb-plus-products": "1f030b3f28ddeb19e4e67f4ab7b9573a91a5cd99f2b1ce7d5faf581ca112d5af",
    "query row_h kb-events": "a4dbeecc6a41cc7e2d1d72f978e6f1efaf31f9f126c0d14bc12c4b2b132fcb05",
    "query row_h kb-plus-products": "a4dbeecc6a41cc7e2d1d72f978e6f1efaf31f9f126c0d14bc12c4b2b132fcb05",
    "query row_i kb-events": "7263e58ee30e415e508c5cfa1acc213c47ce1861425b3892ad3a05f0f80cc16d",
    "query row_i kb-plus-products": "7263e58ee30e415e508c5cfa1acc213c47ce1861425b3892ad3a05f0f80cc16d",
    "query row_j kb-events": "30461a0040b75023ffc3e19023ce455a31ecd15b65e3caf50e80bcbcaaacfd4c",
    "query row_j kb-plus-products": "30461a0040b75023ffc3e19023ce455a31ecd15b65e3caf50e80bcbcaaacfd4c",
    "query row_k kb-events": "89b303c43b56dc91a9fe8182050137dc2499c3ad5923ddf2545d084f9f1510e5",
    "query row_k kb-plus-products": "89b303c43b56dc91a9fe8182050137dc2499c3ad5923ddf2545d084f9f1510e5",
    "check medical": "fba84d1e2316f9479387ff6cbb3b6553b6c4efc8f07034a9c115e35b5aba1eaf",
    "help": "833807633f08375debc3737fbafa169dfd451ecbf5a4dbc2efc6ce9b1ee63b06",
    "help query": "a8caef6a798b34a91181e3be6c14fb2ce327bf2b15d742b76e6d29e05edceb61",
    "usage error": "34cfaa1751109af5bb996e7eb26cb861886b83cb8279b331802986ce34fb1843",
}


@pytest.mark.parametrize("label", sorted(GOLDEN_CLI))
def test_cli_output_matches_golden_digest(label, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_digest(COMMANDS[label]) == GOLDEN_CLI[label]


def test_golden_table_covers_every_command():
    assert sorted(GOLDEN_CLI) == sorted(COMMANDS)


if __name__ == "__main__":
    os.chdir(FIXTURES)
    os.environ["COLUMNS"] = "80"
    for label, argv in COMMANDS.items():
        print(f'    "{label}": "{run_digest(argv)}",')

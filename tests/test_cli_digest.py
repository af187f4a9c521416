"""Pinned CLI output: the sha256 of stdout, stderr and exit code of `check
--json` on every fixture, of `query --method both --json --trace` under
both pools on the small ones, and of the help and usage texts.

The digests were recorded before the package dropped the code paths that
`check` and `query` never run, so each later simplification is checked
against the output of the code it replaced; the `bc_store` rows, for a
fixture added later, were recorded from the code that added it, and the
package before that change prints the same.  The commands run in-process,
from the fixture directory, so no path but the fixture's file name reaches
the output, and with an 80-column terminal, which argparse wraps its help
to.  A row fixture has no `query:` line; it is asked (C | A) over its chain
roles.  Regenerate the table with `python tests/test_cli_digest.py`
only for a change that is meant to alter the output.
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
    "query bc_store kb-events": "6d69bd555a177e89fde1acc5a4b8b7700a71f45481b5a0bf01cab560960e55d4",
    "query bc_store kb-plus-products": "6d69bd555a177e89fde1acc5a4b8b7700a71f45481b5a0bf01cab560960e55d4",
    "query bird kb-events": "66c63d7bade63159bfb2c134ab58bdb2239d37cde17a0e42d2cc9288e9520b52",
    "query bird kb-plus-products": "02907d153b34e21aac4ec20fde5617bcea6369e0b1417a325bdadf885807ece6",
    "query chain4 kb-events": "df3061d600a427035afa3c2ea0712b986884827e97dadb6879cf8e41bba2b713",
    "query chain4 kb-plus-products": "df3061d600a427035afa3c2ea0712b986884827e97dadb6879cf8e41bba2b713",
    "query medical_reduced kb-events": "ce242b6aefa6502dd20ead979cce827f537efa848b9f453db6d648a863c2e6a2",
    "query medical_reduced kb-plus-products": "ce242b6aefa6502dd20ead979cce827f537efa848b9f453db6d648a863c2e6a2",
    "query row_a kb-events": "28f829bd75398f90cf258e7450cc678fcff3a0477aa9f4755afaaf57046559e0",
    "query row_a kb-plus-products": "28f829bd75398f90cf258e7450cc678fcff3a0477aa9f4755afaaf57046559e0",
    "query row_b kb-events": "83b045a8848adc2574afb9874961af5d8cc04e27124252fe651bca24afb80fbb",
    "query row_b kb-plus-products": "83b045a8848adc2574afb9874961af5d8cc04e27124252fe651bca24afb80fbb",
    "query row_c kb-events": "1ee9b7076a9676d7a5fbab96b8c467273a1bce6f23768da0eb419964bc4edf39",
    "query row_c kb-plus-products": "84fca4963a71d80e19c6c16a975d72ca57d6b2a0839c4d51eecc6249d45a5bf6",
    "query row_d kb-events": "b5c40cd8851aabc877b615e9e86ac5405ca9a4632385621bd071a8f9f5ca8321",
    "query row_d kb-plus-products": "b5c40cd8851aabc877b615e9e86ac5405ca9a4632385621bd071a8f9f5ca8321",
    "query row_e kb-events": "69a75c619fd0429a320d4b2317a7ba968da4ab3a33c093b11398ec780592eee0",
    "query row_e kb-plus-products": "4bc11dbae864944c6070c89adf78ce202ee742659d78031ba3b45b4ea9fa22ee",
    "query row_f kb-events": "0095c4dda21f80d306eddf0d43cf19d1ffe403f718718eca69c4947f06a08279",
    "query row_f kb-plus-products": "0095c4dda21f80d306eddf0d43cf19d1ffe403f718718eca69c4947f06a08279",
    "query row_g kb-events": "9359eee1220b35fa4c9c297de7d1284c269342c3c1bdbfcecd91ad97d8724225",
    "query row_g kb-plus-products": "9359eee1220b35fa4c9c297de7d1284c269342c3c1bdbfcecd91ad97d8724225",
    "query row_h kb-events": "92835df4cbee7bb04e128f410d482cc69429207f8d17381202378b7c4350e0e4",
    "query row_h kb-plus-products": "92835df4cbee7bb04e128f410d482cc69429207f8d17381202378b7c4350e0e4",
    "query row_i kb-events": "b5c40cd8851aabc877b615e9e86ac5405ca9a4632385621bd071a8f9f5ca8321",
    "query row_i kb-plus-products": "b5c40cd8851aabc877b615e9e86ac5405ca9a4632385621bd071a8f9f5ca8321",
    "query row_j kb-events": "42401f19b99cfc19e079e343912cab676fe5cf7dbc27adfaec8b777b5663d542",
    "query row_j kb-plus-products": "42401f19b99cfc19e079e343912cab676fe5cf7dbc27adfaec8b777b5663d542",
    "query row_k kb-events": "ce6c0ffa04092bd57330ac9c7489f8912342826b7de345dfe4421556cf076164",
    "query row_k kb-plus-products": "ce6c0ffa04092bd57330ac9c7489f8912342826b7de345dfe4421556cf076164",
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

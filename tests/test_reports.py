"""Golden report digests: the sha256 of the CLI's stdout and stderr, and
its exit code, on a fixed set of census commands.

Reports must stay byte-identical across refactors; a change that alters
any byte of these fails here and must say why. The commands are the
census jobs of the benchmark, the parity audit and universal report at
small sizes, two cells over bases with three and two crosscaps, and two
refusals. They run in process and take about 1.5 s together.
"""
from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from coverbench.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ("enumerate --base s2 --degree 6 --branch-points 6", 0,
     "a88d1761e8516da6aa9939155a6f2620c8960da2c042697c3d198122f8d3086f",
     EMPTY),
    ("enumerate --base rp2 --degree 6 --branch-points 4", 0,
     "324f5541bad84e78b2ea99fddaed253403fe060364e269e8c9d0b1d06e682484",
     EMPTY),
    ("enumerate --base rp2 --degree 5 --branch-points 4", 0,
     "9a7ac43f73422fe9fa016e154547e9577b95b8c6d9ed659d9a51465f3f3da978",
     EMPTY),
    ("enumerate --base s2 --degree 7 --branch-points 2", 0,
     "4130d7b00b695f7e7592261ac33c878b991c61eeadb65cc3b6e31dc2663aca68",
     EMPTY),
    ("enumerate --base s2 --degree 4 --branch-points 8", 0,
     "989710f516058d1039556b90b0e931446407444611d4d8ae539d535688832706",
     EMPTY),
    ("enumerate --base o2 --degree 3 --branch-points 4", 0,
     "bbe4e4808addb4e41d7c7cbcae4f55466732cdaf48f076f59f92cfa058b83850",
     EMPTY),
    ("enumerate --base rp2 --degree 4 --branch-points 4 --all", 0,
     "660592e3833bb5b44dc928c5480084f4a30cfb92fe7cb0a583d36963d54938d9",
     EMPTY),
    ("enumerate --base rp2 --degree 4 --branch-points 6", 0,
     "8adcc78c08f47d88198d4d443eeea307311bc79c3b4c57612f7958221f0ff7cf",
     EMPTY),
    ("enumerate --base torus --degree 4 --branch-points 4", 0,
     "5546e67ba00917ea2fd6284316673d701c307f54a7fbac6108b89c063c444826",
     EMPTY),
    ("enumerate --base s2 --degree 4 --branch-points 6", 0,
     "5f9e3e10e9c9b429e5e8c16ba9d88a517ed85edd0e8b593f401156eaa05c0c07",
     EMPTY),
    ("parity-audit --dmax 4 --bmax 6", 0,
     "1f1db6e8c5e2a90f61e1d0ed4a0aeb2317ec54805cb7ba3df45411ff30c2e20c",
     EMPTY),
    ("parity-audit --dmax 5 --bmax 6", 0,
     "543c89c0c426882dee8543b569269aaf5732da580e6e5d17f61feacf55aafca9",
     EMPTY),
    ("universal-report --degree 2 --genus-max 3", 0,
     "afcb40e32d64a10a295edf8951355176cfafc99bc25f46e202ae4de5f6a1ac22",
     EMPTY),
    ("universal-report --degree 3 --genus-max 3", 0,
     "7f490851f3922a3237018847cacad0891be04a7f1752a784de02121d41649cf4",
     EMPTY),
    ("universal-report --degree 4 --genus-max 3", 0,
     "262ab12c5d6abd1bf0c592daaf0bcef538ce72227ed1817b0bf97b8b1fed7c70",
     EMPTY),
    ("universal-report --degree 5 --genus-max 3", 0,
     "7b583ce5139407336f02e342c7482f4b8317dc63af163514552429770305becf",
     EMPTY),
    ("universal-report --degree 6 --genus-max 3", 0,
     "6580a4f5d0d9d6c449599896f42394577596dfe31ebda26649421938bbefb43a",
     EMPTY),
    ("universal-report --degree 7 --genus-max 3", 0,
     "aaea2ddd629c9ac4dd7fc85ba7cc44a8575f2cb9e9e77b6a145bab50af1c6932",
     EMPTY),
    ("enumerate --base n3 --degree 4 --branch-points 4", 0,
     "6b67705621091f14ce2e86805d32e6c4b0a9ebe9e6c9aac90d7f39bb7a681e50",
     EMPTY),
    ("enumerate --base klein --degree 5 --branch-points 4", 0,
     "153e7e77a716710d72b5b9be046e89ae9d87b09ddc2f44d3d4f4bf86ffd9a46e",
     EMPTY),
    ("enumerate --base rp2 --degree 5 --branch-points 8", 2,
     EMPTY,
     "07081acc41cf793dce66c0fe2e9bf1aaa9cd4e7ff95a1a6e24bc86594264e66c"),
    ("enumerate --base o30000 --degree 6 --branch-points 0", 2,
     EMPTY,
     "3b7e230788878cec7489987907c43828181b5631b3e305ed6fdde1c63bceb5ff"),
]


@pytest.mark.parametrize(("command", "code", "stdout", "stderr"), GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_digest_is_unchanged(command, code, stdout, stderr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(command.split())
    assert rc == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == stdout
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == stderr

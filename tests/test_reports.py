"""Golden report digests: the sha256 of the CLI's stdout and stderr, and
its exit code, on a fixed set of census, Hurwitz and plane commands.

Reports must stay byte-identical across refactors; a change that alters
any byte of these fails here and must say why. The census commands are
the census jobs of the benchmark, the parity audit and universal report
at small sizes, two cells over bases with three and two crosscaps, a
closed-form rp2 cell past the reach of enumeration, one over n5 without
branch points, two cells of any meridians once refused for the listing's
peak, and a refusal. The Hurwitz commands build, stabilize, classify and
double small data from flags and from a file, check three data whose
surface relation fails (exit 1), and refuse a datum for each of
stabilize's checks and two builds over the step budget. The plane
commands build, verify, compose and normalize small layered and
exhaustion documents, and verify four broken copies of the 4-level
staircase whose relation check fails in each of its three ways (exit
1): a repeated inbound sheet, a foreign meridian, a rotated outbound
cycle and a sheet the outbound cycles miss. They run in process and
take about 2 s together.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io

import pytest

from coverbench import jsonio
from coverbench.cli import main
from coverbench.exhaustion import normalize
from coverbench.layered import build_cover, staircase

from test_cli import sample_graph

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
    ("enumerate --base rp2 --degree 5 --branch-points 8", 0,
     "7104303508653aad1d7d46d101bb551b118ef03ceddbfb61e6c5db14469dd7fa",
     EMPTY),
    ("enumerate --base n5 --degree 6 --branch-points 0", 0,
     "ba9737c36accce1d5fc8d824b09de1728f5f8918eee3fc4e089590c201b889e1",
     EMPTY),
    # cells of any meridians the listing's peak refused: the engine gives
    # s2/6/4's rows, and o5/6/8's 17 rows sum to the scalar count
    ("enumerate --base s2 --degree 6 --branch-points 4 --all", 0,
     "df10ce17fbbd6ec16ecae9621c872968db2f0a10f3d9ab3e0ffbf7400e45eca0",
     EMPTY),
    ("enumerate --base o5 --degree 6 --branch-points 8 --all", 0,
     "e373d20de6f774d56a4562b546598227bd30b3e090512fbc954658d737495d92",
     EMPTY),
    ("enumerate --base o30000 --degree 6 --branch-points 0", 2,
     EMPTY,
     "faf76356c33e83fa47ba0bf6e984f5ff588caa02216a2eb7d12f1513b44ce232"),
]


# the hyperelliptic datum of genus 1, read by the {h} commands below
SPHERE_DOC = (
    '{"format": "hurwitz", "version": 1, "base": {"orientable": true, "genus": 0}, '
    '"degree": 2, "meridians": [[1, 0], [1, 0], [1, 0], [1, 0]]}\n'
)

HURWITZ_GOLDEN = [
    ("construct --family hyperelliptic --genus 3", 0,
     "01b12232aeb74a1a48b65d68b294167a0a100ce03e222930f52651df882feb6b",
     EMPTY),
    ("construct --family cyclic-rp2 --crosscaps 5", 0,
     "08ca53fd11262f0eb576b2bf4fad0450d89925b22a25ee34b06337b6a7cfc062",
     EMPTY),
    ("construct --family cyclic-rp2 --crosscaps 1", 0,
     "bf03512539a90aad62b86bf6bc5ab8712d9d4bfbb8ce6181d91f2742e6bb1bfe",
     EMPTY),
    ("stabilize --input {h} --times 3", 0,
     "8cb25ea852cc65c3e47c7212f2bd3d595c3603af196b359745f55f0b4e5b9052",
     EMPTY),
    ("stabilize --base torus --degree 2 --handles (0,1)|id --meridians (0,1);(0,1) --times 2", 0,
     "a2f3c751d242926c07251634fc3413aa3e361d82b259ecfff223120c9e720e95",
     EMPTY),
    ("total-space --base rp2 --degree 3 --crosscaps (0,1,2) --meridians (0,1,2)", 0,
     "5d7af468b728a7043c7a1ead2900d7d6686fa67c277b0296e07d62cdad344acb",
     EMPTY),
    ("total-space --base n2 --degree 4 --crosscaps (0,1)(2,3);id --meridians (0,2);(0,2)", 0,
     "9ef389a3b42127f8b960957ed18208d3b7d9b0ff6878793455d62a071d2ceb50",
     EMPTY),
    ("compose-double --base s2 --degree 3 --meridians (0,1);(1,2);(1,2);(0,1)", 0,
     "3d65d8c12f45414d3d41cc7e96308e5dd78c550a6184ca8db1bd3264642b7543",
     EMPTY),
    ("validate --base torus --degree 3 --handles (0,1)|(1,2) --meridians (0,1,2)", 1,
     "9443b684674b318c319ce5e6cb6dc3896eb15cd5de0cc8455e15e4e27d12b48e",
     EMPTY),
    ("validate --base o2 --degree 4 --handles (0,1)|(1,2,3);(0,3)|(2,3) --meridians (0,1)", 1,
     "787534d12621c7f2f180a5b5ba811ecdf10bfc2f0af44c9cd9bd2a6c8af2719c",
     EMPTY),
    ("validate --base n2 --degree 3 --crosscaps (0,1);(1,2) --meridians (0,2)", 1,
     "1d84e80f08c55f13238ffa8861530668bdd341a93d0bf32a7835987ca57c5094",
     EMPTY),
    ("stabilize --base s2 --degree 2 --meridians (0,1)", 2,
     EMPTY,
     "8559a008dfe782326b9e1ad25ca56a3369f0033522bc0c85e00d4ab4349d82eb"),
    ("stabilize --base rp2 --degree 2 --crosscaps id --meridians (0,1);(0,1)", 2,
     EMPTY,
     "b55d2b469b3509c3156ac3c843b9ab3510814d7409d5538ab30e6da3b40dbccb"),
    ("stabilize --base s2 --degree 3 --meridians (0,1,2);(0,2,1)", 2,
     EMPTY,
     "0ce5db3c9e452e832f7e01098f2a5ce3742e39cf226857fc58c9c4a7dfe59785"),
    ("stabilize --base s2 --degree 4 --meridians (0,1);(0,1)", 2,
     EMPTY,
     "f40dc26c011f1fe7985640a1b66c260763431bfd172fbc88af967aedd532e828"),
    ("construct --family cyclic-rp2 --crosscaps 2000000", 2,
     EMPTY,
     "8c5381a37ca3b7d9e31b87da096006a54e9807eb7675c97f707a3b00b87c8ca1"),
    ("stabilize --input {h} --times 100000", 2,
     EMPTY,
     "6ad969388574cb84d4a9dd30424c3862fca338e10304a03b6ca462552a22f725"),
]




def plane_documents() -> dict:
    """The documents the {name} fields of PLANE_GOLDEN read."""
    graph = sample_graph()
    normal = normalize(graph)
    stair = jsonio.layered_to_json(staircase(4))
    docs = {
        "graph": jsonio.exhaustion_to_json(graph),
        "normal": jsonio.exhaustion_to_json(normal),
        "cover": jsonio.layered_to_json(build_cover(normal, normal.stable_depth)),
        "stair": stair,
    }

    def broken(level, **fields):
        doc = copy.deepcopy(stair)
        doc["blocks"][level - 1].update(fields)
        return doc

    # level 4's outbound cycle is (0 4 3 2 1) on sheets 0-4
    docs["repeated_inbound"] = broken(2, inbound=[0, 0])
    docs["foreign_meridian"] = broken(2, meridians=[[1, 7]])
    docs["rotated_outbound"] = broken(4, outbound=[[4, [4, 3, 2, 1, 0]]])
    docs["missed_sheet"] = broken(4, sheets=[0, 1, 2, 3, 4, 5])
    return docs


PLANE_GOLDEN = [
    ("staircase --levels 6 --verify", 0,
     "1e88bc6f518bf82e5b566a4811fa3a7f4436f3eade4479aa40463ebe98a55e36",
     EMPTY),
    ("verify --restrictions --input {stair}", 0,
     "e4bd52d4fdfbf38d77e811024614aad5c9e78ca66b70c9cfbb739ddb4b6135ce",
     EMPTY),
    ("verify --restrictions --input {cover}", 0,
     "1c8182eb6cb02d3162030059d2167b6c9047aa0f72dffe558a72788862821126",
     EMPTY),
    ("compose-staircase --input {cover} --levels 3", 0,
     "1f19f7e301d9495a9e090cc665222637956286ba85d96ba1fbb7e094744622ef",
     EMPTY),
    ("normalize --input {graph}", 0,
     "ca457e19dd8f0398e91431bfe39e9a090a05180a2d5f62c032621a20f3a5b90d",
     EMPTY),
    ("count-ends --input {normal} --levels 4 --remaining 0", 0,
     "617db494924d49ac3a43043e890c2868491fed1436ad19efa97b1394eae78c26",
     EMPTY),
    ("build-cover --input {normal} --levels 4", 0,
     "da3ff87166a373fefe76ffd84fdd351506c8631418934bd8b7e28ac844ca108d",
     EMPTY),
    ("verify --restrictions --input {repeated_inbound}", 1,
     "2294b2a5e525fbfb23931c6cb421983a6ca20b1619bb210971ac2e73c1ca46d2",
     EMPTY),
    ("verify --restrictions --input {foreign_meridian}", 1,
     "355655395b4d085cfa50e952f252ea88bf984c7addac96195c6d7f33591e2bc3",
     EMPTY),
    ("verify --restrictions --input {rotated_outbound}", 1,
     "03c0acb9a419a4e8d906ee33da6f563e3b0dd0d9fd580b8b6045a2e195609e9e",
     EMPTY),
    ("verify --restrictions --input {missed_sheet}", 1,
     "6a402306ec97238ae64a69dcc3841685669c55efcb0e54d3232ed2ac636df94d",
     EMPTY),
]


def run_digests(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(command.split())
    return (
        rc,
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    )


@pytest.mark.parametrize(
    ("command", "code", "stdout", "stderr"),
    GOLDEN + HURWITZ_GOLDEN,
    ids=[g[0] for g in GOLDEN + HURWITZ_GOLDEN],
)
def test_report_digest_is_unchanged(tmp_path, command, code, stdout, stderr):
    if "{h}" in command:
        path = tmp_path / "h.json"
        path.write_text(SPHERE_DOC)
        command = command.format(h=path)
    assert run_digests(command) == (code, stdout, stderr)


@pytest.mark.parametrize(
    ("command", "code", "stdout", "stderr"),
    PLANE_GOLDEN,
    ids=[g[0] for g in PLANE_GOLDEN],
)
def test_plane_report_digest_is_unchanged(tmp_path, command, code, stdout, stderr):
    paths = {}
    for name, doc in plane_documents().items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(jsonio.dumps(doc))
    assert run_digests(command.format(**paths)) == (code, stdout, stderr)

"""Golden CLI outputs: exit code, stdout and ``-o`` file of each command.

Each case runs one README CLI example at a small size and pins its exit
code, the sha256 of its stdout and, for commands writing ``-o``, the sha256
of that file.  Every verifier also has a negative control that exits 1.
Certificates are meant to stay bit-exact, so a changed digest is a changed
output, whatever the reason.

Inputs are written once per module by the CLI itself (matrices, covers and
families) or as literal text (negative controls, spanoids, index sets).
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from boolrank.cli import main
from boolrank.cover import KronCoverDescription

EMPTY = hashlib.sha256(b"").hexdigest()

# input file -> CLI argv that writes it with -o
BUILT_INPUTS = {
    "c2.mat": ["crown", "2"],
    "c4.mat": ["crown", "4"],
    "c5.mat": ["crown", "5"],
    "c7.mat": ["crown", "7"],
    "c25.mat": ["crown", "25"],
    "c40.mat": ["crown", "40"],
    "c7.cov": ["cover", "canonical", "7"],
    "t4.fam": ["cover", "c4"],
    "t5.fam": ["cover", "c5"],
    "a22.fam": ["cover", "algebraic", "2", "2"],
}

LITERAL_INPUTS = {
    # the canonical cover of the 7-crown without its last rectangle
    "short.cov": "COVER 7 7 4\nR 2,4,5,6 C 0,1,3\nR 1,3,5,6 C 0,2,4\n"
    "R 0,3,4,6 C 1,2,5\nR 0,1,2,6 C 3,4,5\n",
    # one rectangle does not sum to the 4-crown
    "one.fam": "FAMILY 4 4 1\nCOVER 4 4 1\nR 0,1 C 2,3\n",
    "rules.sp": "SPANOID 4 3\nS: 0 -> 1\nS: 1,2 -> 3\nS:  -> 2\n",
    "c2.sp": "MATSPANOID c2.mat\n",
    "m.sets": "SETS 2\n0\n1\n",
    "n.sets": "SETS 2\n0,1\n0,1\n",
    "m1.sets": "SETS 1\n0\n",
    "n1.sets": "SETS 1\n0,1\n",
    # the 7-crown with rows and columns permuted, so no closed form applies
    "p7.mat": "7 7\n1111011\n1101111\n1110111\n0111111\n1111101\n1111110\n1011111\n",
}

# label -> (argv, exit code, sha256 of stdout)
PRINTED = {
    "sigma": (
        ["sigma", "35"], 0,
        "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
    ),
    "crown-stdout": (
        ["crown", "5"], 0,
        "4711aa04894b7e56b3a72a2b3ffe6a2d9463edab19a56246e04e965c5ef3e388",
    ),
    "kron": (
        ["kron", "c2.mat", "c4.mat"], 0,
        "d05634653dc7e53ca89200bd82f4ccb36cc1fd38bcb70d22a2995699f7cd3ec1",
    ),
    "cover-asymptotic": (
        ["cover", "asymptotic", "49", "--q", "2", "--s", "3"], 0,
        "998474a4f323aaabea3019227a557db6bb468026a811813db9aa805f491a7d91",
    ),
    "verify-cover": (
        ["verify", "cover", "c7.mat", "c7.cov"], 0,
        "ed2bb61cdf293054c23d0dbca714788c8713f8cd4eda229b75c2ec52ac1e3429",
    ),
    "verify-cover-fails": (
        ["verify", "cover", "c7.mat", "short.cov"], 1,
        "a0e3a93113de57f60e87ad01c8b7c075a2edc8f51f7dd8d37825bd4d6842d686",
    ),
    "verify-kron": (
        ["verify", "kron", "c5.mat", "t5.fam", "c5.mat", "t5.fam"], 0,
        "7e66634f0223623387d0da80637e25222a7bbbd3233d1308b535911d181fb0d4",
    ),
    "verify-kron-c4": (
        ["verify", "kron", "c4.mat", "t4.fam", "c4.mat", "t4.fam"], 0,
        "6def3ec7bf9247ac2de25c0cf51b0cd046b5d86a338c8ab2baf56a6610616307",
    ),
    "verify-kron-fails": (
        ["verify", "kron", "c4.mat", "one.fam", "c4.mat", "one.fam"], 1,
        "af3bc628eeea05010cc0c6aaf5fc0d90d25faa69eece71cd5d0317bf42864819",
    ),
    "verify-qcover": (
        ["verify", "qcover", "c25.mat", "a22.fam", "2"], 0,
        "7f091e8e17af593ab12c7f999fa8107132a4dacd3642efdeb7aca515722dde65",
    ),
    "verify-qcover-fails": (
        ["verify", "qcover", "c25.mat", "a22.fam", "1"], 1,
        "6ff752b39c6209ef3ab44050ffa3b7cda5f05dc71fd69015ffeebcd64bc83de1",
    ),
    "rank-exact": (
        ["rank", "exact", "c4.mat"], 0,
        "0646745f203112388b5e632eb3846e7f94a3a37d8dca36d0509707898e2be308",
    ),
    "rank-exact-permuted": (
        ["rank", "exact", "p7.mat"], 0,
        "cfee5288ad65a3b96471ba0d6d8a9adba2eafec12b6220b80e7bf007874890c5",
    ),
    "bound-lower": (
        ["bound", "lower", "c4.mat", "c5.mat"], 0,
        "bffd17c2088b2deedf8b4f277672758ac3c10f27a315651a0c48a8535d53cfcd",
    ),
    "isolation": (
        ["isolation", "c5.mat"], 0,
        "c295ca8f2d3cde9deb127b20f3b27d19d7ec63442725c1ece80a264ebe6776a2",
    ),
    "mu": (
        ["mu", "c5.mat"], 0,
        "318e4a8b0696a449f538b67d9dba546246e303322796e3cb724c38d5e828447d",
    ),
    "spanoid-rank": (
        ["spanoid", "rank", "rules.sp"], 0,
        "278f8da6d1fea07408b51f106373cb71cd1da3bb7d8b8962b81882c7dfa4e8ff",
    ),
    "spanoid-rank-matrix": (
        ["spanoid", "rank", "c2.sp"], 0,
        "00f9d658b9cea993f83e8a97bbcca968203c39c19f481153b58c04207e0a5077",
    ),
    "spanoid-product-rank": (
        ["spanoid", "product-rank", "c2.sp", "c2.sp"], 0,
        "3922216979dba1619ad1fcf736e3f072a770b9bc25a9d617bbb744ebf9dbdfaf",
    ),
    "spanoid-bound": (
        ["spanoid", "bound", "c2.sp", "c2.sp", "m.sets", "n.sets"], 0,
        "a7b2337750b490941dc14356575853f0230000e7be3427919272879d9d70eeeb",
    ),
    "spanoid-bound-fails": (
        ["spanoid", "bound", "c2.sp", "c2.sp", "m1.sets", "n1.sets"], 1,
        "de9dd4665200fef864a914ed09a06e9197f5895b9f2faa1d9f7aa6eb186342b9",
    ),
}

# label -> (argv without -o, sha256 of the -o file); exit 0, empty stdout
WRITTEN = {
    "crown": (
        ["crown", "7"],
        "3d84f4bc640cb83a4abc98fc59c6b35d2a095e7ba550e0e1b8638dccd5dc099d",
    ),
    # text of five blocks: 2251500 characters, 349 rows a block
    "crown-1500": (
        ["crown", "1500"],
        "33d9d28633780b748eb04001d50529d02a02e764acba4225394b3aab0b2e6d97",
    ),
    # the 1600 x 1600 product in five text blocks of 327 rows, each ending
    # inside a 40-row block of the second factor
    "kron-c40": (
        ["kron", "c40.mat", "c40.mat"],
        "e85a8bc253e6b76261a357cab46c0699f39beab7d86ea02a3e4ee2c96eeecf0b",
    ),
    "cover-canonical": (
        ["cover", "canonical", "7"],
        "14438a90df98ff07482537765af8320fff174606b09a3d83470047505c5398db",
    ),
    # a strict prefix of level 14
    "cover-canonical-3000": (
        ["cover", "canonical", "3000"],
        "1a003339ddbb8c318fa4d982eeb3c180fb5e07da992fba30d150a1c2aac83da3",
    ),
    "cover-triple": (
        ["cover", "triple", "5", "1"],
        "9c89c479207286c70b76225efcd5c47765b66fe7162cc5d49f0675f78fca8680",
    ),
    # whole levels: an even one (k = 8) and an odd one (k = 9)
    "cover-triple-8": (
        ["cover", "triple", "8", "1"],
        "20d6f363bac89bb3806e7620aca3048e6004b4c4f6c1accbafcc1f70c9610c67",
    ),
    "cover-triple-9": (
        ["cover", "triple", "9", "1"],
        "1f4b2d8eebdb82f6554a43fd13b174aac4bf537cefef3b95fae4a4de429131d3",
    ),
    # the largest levels built in tests: 12870 and 24310 sets
    "cover-triple-16": (
        ["cover", "triple", "16", "1"],
        "7ffb2fb6799b664a5cef99fc16e70a592e0e4809699e707702e162e22eae7273",
    ),
    "cover-triple-17": (
        ["cover", "triple", "17", "1"],
        "eb7e049e4a98ebc7c73f97c4f113be2b82dc61becb461d8112fb30bab28220a4",
    ),
    # 48620 sets, built as membership arrays without tuples
    "cover-triple-18": (
        ["cover", "triple", "18", "1"],
        "dbdd404e3512fbdd5c9eb464b6e54ec7527ea590a4456670e8bd332835060b5f",
    ),
    "cover-gap": (
        ["cover", "gap", "7", "7"],
        "e108d952c4cef30f0d6cfb98e9814c3a9d0f71801d9ea3d48b14dec68e19a844",
    ),
    "cover-gap-12-7": (
        ["cover", "gap", "12", "7"],
        "53a399c59ee4404d7322458ddb4f677c2574e20e2bf3222f67197acab7abacbe",
    ),
    "cover-gap-36-7": (
        ["cover", "gap", "36", "7"],
        "37190d9162787fcf482874dfbbc8d95f13d1e980e7c709921028f56625ad2247",
    ),
    # strict prefixes of an odd level (k = 9) and of an even one (k = 8)
    "cover-gap-100-40": (
        ["cover", "gap", "100", "40"],
        "8d1eef6523a342b46e928a4e4a39dadb5c486983d639400eb09ca1654778fb53",
    ),
    # the first order of an odd level (k = 11) against the 7-crown
    "cover-gap-253-7": (
        ["cover", "gap", "253", "7"],
        "c12793d87fda9bacda291a942d8b8c2c9e7655e35a17fbdfe6a2fa6892305678",
    ),
    "cover-c4": (
        ["cover", "c4"],
        "fa84bf202e4f7a1b8e7479ae886288fd69df7ec4339eb975cb08b53199d9a202",
    ),
    "cover-c5": (
        ["cover", "c5"],
        "126f0e88df1f8a197248f90d8cf4ccdfd93d799311503769b2f9ddb157e2f30e",
    ),
    "cover-algebraic": (
        ["cover", "algebraic", "2", "2"],
        "ba3ce5545571940885688d0caf8a58153768edc8eb8fe75581ba3cdb542ff824",
    ),
    # order 6859: four-digit indices, the every-3 family of the 216 < 256 witness
    "cover-algebraic-3-3": (
        ["cover", "algebraic", "3", "3"],
        "1f1d6265676584f5c466f0b032826346803cd57a1fc4d0f170b46b1baaa16b6c",
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, argv in BUILT_INPUTS.items():
        with redirect_stdout(StringIO()):
            assert main(argv + ["-o", str(root / name)]) == 0
    for name, text in LITERAL_INPUTS.items():
        (root / name).write_text(text)
    return root


def run(argv, inputs, capsys, monkeypatch):
    monkeypatch.delenv("BOOLRANK_MAX_ENTRIES", raising=False)
    code = main([str(inputs / a) if (inputs / a).is_file() else a for a in argv])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("label", list(PRINTED))
def test_printed(label, inputs, capsys, monkeypatch):
    argv, rc, digest = PRINTED[label]
    assert run(argv, inputs, capsys, monkeypatch) == (rc, digest)


@pytest.mark.parametrize("label", list(WRITTEN))
def test_written(label, inputs, tmp_path, capsys, monkeypatch):
    argv, digest = WRITTEN[label]
    out = tmp_path / "out"
    assert run(argv + ["-o", str(out)], inputs, capsys, monkeypatch) == (0, EMPTY)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gap_builds_no_product_rectangle(inputs, tmp_path, capsys, monkeypatch):
    """``cover gap`` writes its golden bytes from the factors alone."""
    def refuse(self):
        raise AssertionError("a product rectangle was built")
    monkeypatch.setattr(KronCoverDescription, "iter_rectangles", refuse)
    test_written("cover-gap", inputs, tmp_path, capsys, monkeypatch)

"""Byte pins on the argparse surface of `evs`: the exit code, stdout and
stderr of help, usage and argument errors at two terminal widths, recorded
at commit 976c320, where every invocation built the parser of every
command."""

import hashlib

import pytest

from evslib.cli import main

WIDTHS = ("80", "200")

ARGV_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["-h", "validate"],
    *([cmd, "-h"] for cmd in ("validate", "combine", "compare", "transform",
                              "builtin", "partial-compare", "cauchy-demo",
                              "norms", "axioms", "order")),
    *(["norms", action, "-h"]
      for action in ("partition", "weights", "eval", "witness", "embed")),
    *(["order", action, "-h"]
      for action in ("in-l", "indep", "generates", "basis", "feasible")),
    ["validate"], ["compare", "a.json"], ["validate", "a.json", "b.json"],
    ["validate", "--bogus", "a.json"], ["norms"], ["order"],
    ["norms", "bogus"], ["combine", "a.json"],
    ["combine", "--add", "b.json", "--scale", "2", "a.json"],
    ["builtin", "nope", "--depth", "3"],
    ["axioms", "--instance", "metrics", "--seed", "x"],
    ["order", "in-l", "--universe", "u.json", "--x", "a.json"],
]

# " ".join(argv) -> (exit code, sha256 of stdout and stderr at both widths)
GOLDEN = {
    "": (2, "42f6221d207cb442f28101e477a4c1967c2cb2ca4da2d23c5cfec5ba2f78b9c2"),
    "-h": (0, "68050ed7b265117c6f12992f6dd60293dd61986f903f83b8d65359a0fca63766"),
    "--help": (0, "68050ed7b265117c6f12992f6dd60293dd61986f903f83b8d65359a0fca63766"),
    "bogus": (2, "c3107ea81727cd16f52bd3de0724df5fd7816d096d92a71a1fae0fc34bfe1b70"),
    "--bogus": (2, "42f6221d207cb442f28101e477a4c1967c2cb2ca4da2d23c5cfec5ba2f78b9c2"),
    "-h validate": (0, "68050ed7b265117c6f12992f6dd60293dd61986f903f83b8d65359a0fca63766"),
    "validate -h": (0, "0a56dcb3c33e7eccdfb5fb8ea3203cbaa417f004e208f4541833b4cce91a62ea"),
    "combine -h": (0, "d62f7d3ebbdda3c106b9e54fa52ec2a5b87f0dd17ce4201e5214d83375140b68"),
    "compare -h": (0, "2b350c831892f877979ebf68a8a135480fc659c1ac8d5959d23321bebd335729"),
    "transform -h": (0, "ada1efdf3512c0dc5c1544f35e5ddb9108b617df1e092cfb2358179efc31c3f5"),
    "builtin -h": (0, "abba726ee8e29d0096fbce50e1874988f44b5e554edb2ca1585a0d9810881acd"),
    "partial-compare -h": (0, "a443014dc98c5755d283c53e3161d33145dfd8e7e950a59e7290cc9e8d6803cd"),
    "cauchy-demo -h": (0, "08c88349e3d9f33cce81207cc8c7801db2f475eb6e05c3918d1b444ea364e45d"),
    "norms -h": (0, "d1156e1481df97c7d87b8668717ce4424bdb67c233b51b30bfb8d78d790328a9"),
    "axioms -h": (0, "35db1e96b65513f256ab7533b7d058a32e586bb0b1959dd247980b8c8a1ed3b5"),
    "order -h": (0, "55aa05f14f9c6789bbc37df3c8210f6d7a8fc6cdc6d6576a07a9168e4c02d937"),
    "norms partition -h": (0, "bc056258595107d9b794bc022f9275ac0e30449377ba1ead260aba3d2dc0f2d7"),
    "norms weights -h": (0, "8e177191106b67f31ee6a0d5dc713a7a46832cf2fadf5bb8eae9228f7dddf9d6"),
    "norms eval -h": (0, "15775622ae5e90b577bb2d85f7794eb8cbf0d1a00f534bcbf4652f5aa6856de8"),
    "norms witness -h": (0, "72a78a72f1b7ab5a4fb671e8b3819d6b7be2715c80242b1107f0ef3d80bb3068"),
    "norms embed -h": (0, "49240b68c1ec972760d2c754bdf421fbd04c450eb41e3d5a0dcc3a178dc77a55"),
    "order in-l -h": (0, "463e0bfeb7788c64b7f4b0133c38311c506de1774d89a2b6345e6c857e7c170d"),
    "order indep -h": (0, "1d70bb9b10582ceea063ec0e673efb300ab94b9cdac2132bf0b5afe2b50def23"),
    "order generates -h": (0, "bfa9071cbb960a9da1346fa5b1b66d5266052710983ff07ca141bd9be0ee29a3"),
    "order basis -h": (0, "ec2459f7c1d929819ec636ce97d4ac2ae1e1983d2fc012adbf0586d1fd38e628"),
    "order feasible -h": (0, "9da43a611fe703f7aabd92f3803f6a8212e7eddbbb844e89394141825d41dca7"),
    "validate": (2, "dd28422b0ac3ebf12e6ea778a91f5cd76ed07a62d79e1bb403fb9c758ec91be8"),
    "compare a.json": (2, "0f8a7000102934231c04722990a30847a552a76af6905eec95583d27c835a028"),
    "validate a.json b.json": (2, "1ec898308017abdf4bc7027d233db9f664965613aa95c6640dffac7f372797a3"),
    "validate --bogus a.json": (2, "f648dfcd064ee7f04d4d0d683f71a3b95ca14654cf8cd2f63cee08fa8ce95621"),
    "norms": (2, "f96f32848f959b86e066e8c2311dbe68c36a43584d4af455d730bd012d512aca"),
    "order": (2, "e38dbf21725372774fcfbbd23c7c6e4676188a3d967d29add0bfe0cd83395c1c"),
    "norms bogus": (2, "b7dab8616da2f052ddd15aa7e7f18c49efa7df6adff23795931d557666864f5d"),
    "combine a.json": (2, "6b46ddf6bc4df0c560748810f08b4a28336cf5de0c776fa5c0e8b5c845c60808"),
    "combine --add b.json --scale 2 a.json": (2, "05493c49df6256fd1156ea7599243f8d464cdad1d7be38b23e70bde41975afa1"),
    "builtin nope --depth 3": (2, "0b8e06f4dff56350c66a4a570b92dd958df761f2822ae5bba0e19d3edd25aaf4"),
    "axioms --instance metrics --seed x": (2, "3e5c7a8e232223992c91acd87d97a39bcf0d623ff0722c7075c28aa31b82e310"),
    "order in-l --universe u.json --x a.json": (2, "26407822cfca940fec6da0e05b14ead8ecaf356219b01972d18fe6ce7de923e6"),
}


def run(capsys, monkeypatch, argv) -> tuple:
    h = hashlib.sha256()
    codes = set()
    for width in WIDTHS:
        monkeypatch.setenv("COLUMNS", width)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        codes.add(code)
        captured = capsys.readouterr()
        for text in (captured.out, captured.err):
            h.update(text.encode() + b"\0")
    assert len(codes) == 1
    return codes.pop(), h.hexdigest()


@pytest.mark.parametrize("argv", ARGV_CASES, ids=" ".join)
def test_usage_bytes_match_golden(capsys, monkeypatch, argv):
    assert run(capsys, monkeypatch, argv) == GOLDEN[" ".join(argv)]

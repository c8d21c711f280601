"""Golden report bytes: `analyze` and `boundcheck` output is pinned by digest.

The determinism tests only check that two runs in one process agree.  These
digests pin the XML and TXT reports themselves, so a refactor of the
analyses that changes one byte of a report fails here.  A change that means
to alter reports updates the digests below and says why.
"""

import hashlib

import pytest

from overrun_lint.cli import main as cli_main

from progen import seeded_unit

TIMESTAMP = "2012-03-28 12:04:00"
REPORTS = (
    ("analyze", "xml"),
    ("analyze", "txt"),
    ("boundcheck", "xml"),
    ("boundcheck", "txt"),
)


def _units(corpus_sources) -> dict[str, str]:
    units = dict(corpus_sources)
    for seed in range(1, 6):
        units[f"seeded{seed}.sl"] = seeded_unit(seed)
    return units


def _report_digests(name: str, capsys) -> dict[str, str]:
    out = {}
    for command, fmt in REPORTS:
        code = cli_main([command, name, "--format", fmt, "--timestamp", TIMESTAMP])
        document = capsys.readouterr().out
        out[f"{command}.{fmt}"] = f"{code}:" + hashlib.sha256(document.encode("utf-8")).hexdigest()
    return out


GOLDEN: dict[str, dict[str, str]] = {
    "assert_demo.sl": {
        "analyze.xml": "1:91fd5b68983186ffddb5d26f33cbdeb68794f2e915c50d1625f37885c59ea97e",
        "analyze.txt": "1:f11feed1c24f0d1ad3d093d797c44ade92e7efbe3e00b974beacaa4bef9632f3",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "building_lift.sl": {
        "analyze.xml": "1:9754562b4a29150bfab5c5a64abc5af53ab60863ee03d3c2c909898d649f6c8d",
        "analyze.txt": "1:d92bf783211537c59c03d39a618d9345aca66664443056eb93fe825980768a5c",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "checkers_state.sl": {
        "analyze.xml": "1:5b0753866bf1887023954850d7fbc154e5d28eca15e0a0c0934f3a525b7f2d5a",
        "analyze.txt": "1:373a6dd9e1d3404201ec9260c58f45f1e7cebd3957e2845d60a2f7e2b95d78ef",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "deadlock_demo.sl": {
        "analyze.xml": "1:849ba67df09d18cf09d12bb976e9410791ec5c9e019014f8cfb071f846f22140",
        "analyze.txt": "1:3c17f7650dd8a2f8e5320ea23442a8441e95718a4c8683d4eb5439012e2a9555",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "equals_demo.sl": {
        "analyze.xml": "1:be5540077bcd155293364b959276407cc9898cde47e4fb8717d165999c5b37c6",
        "analyze.txt": "1:be35c42b53a75697f649a32bba9920c0e1c2c8232a2fea42b59bf2b649604930",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "file_check.sl": {
        "analyze.xml": "1:634d3edeaaf188537e080f10ce522983d276c727819bb3239a78f95f430b6c27",
        "analyze.txt": "1:b8e3a6d6e444e4efa79e5cddf1c77ddd40233887afd28de27b894fa411874254",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "makeover.sl": {
        "analyze.xml": "1:96e0cd4f30efe0aa629f3a015fb0f1f180ab46ed9446a85a3c8dff5378fb38be",
        "analyze.txt": "1:5f18661a8ab19c54357d0e1c5ef15b17bc424523240a44c0bcfd6858493ac4ef",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "readline_loop.sl": {
        "analyze.xml": "1:de21767395eb4ecff5156102544991022f3866983f0b8e3518bcd1b76a1de0f2",
        "analyze.txt": "1:87070c77e22524d0083386f96ace1d43be90a31bfddf057e808d6ab5f75ed7e0",
        "boundcheck.xml": "1:2a91418acf072de05f04b55cd339e11f6c898c03d35546572b905635803f6369",
        "boundcheck.txt": "1:4cf4ef4cfdb5b3863f3d415dbd0d2e35addb02e32efb87759581c477661d2695",
    },
    "robustness.sl": {
        "analyze.xml": "1:0748fcb4ef97fa38843fa48263d0f1fe8f4be73592a8a754a2f79d3c74aa4734",
        "analyze.txt": "1:d54ccd7494130acf04f6089a74547bdb0959470d69e7b37aba994e3defcfafcc",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "seeded1.sl": {
        "analyze.xml": "1:1fcc6c3cbc995108c4d22a94cf86671d3c96f0e44b53f31b6baf1dd30b0f9fb1",
        "analyze.txt": "1:936b2723bce65ad8b7ac8282159fefd06a9916b448fc4b3e1e3444ded0cc381a",
        "boundcheck.xml": "1:539bb76e5746570696c449157d2117727ecbd523b9906377d5041d5791da4f51",
        "boundcheck.txt": "1:3552a5b8b5d3a8803d0d1b7aed354537f7783726e6b82e0787bd4d554e93bdd8",
    },
    "seeded2.sl": {
        "analyze.xml": "1:69309cc76e582d49328d38efcd6bd508dff7fa3aa8d5f91e4c98519c69b4eec9",
        "analyze.txt": "1:2cdcf71444c8f6e8649306daad350470e6e02fdaafb6a2a88bfeb203f147fdbc",
        "boundcheck.xml": "1:034c05ec2c7add8e29babb3b9dd57ee5cc5a26041fe383c1bf347e481241eaa3",
        "boundcheck.txt": "1:f5fe2676eb2f70e8adadf3876f6b4a749e88cbeff9b2cd154bf55bf7193151db",
    },
    "seeded3.sl": {
        "analyze.xml": "1:81f61c3ee5eea2315c496e8338ddd536aecbd42c8c2eaa6c641102e9eff43696",
        "analyze.txt": "1:0ee1b2144712fedc913e30d3100ac87070bca9dc8bb1a031c406098639460274",
        "boundcheck.xml": "1:0c9cf867c1d93122d17ec004170d9fb03e246f506ee8655ee3165e191caf5306",
        "boundcheck.txt": "1:cae6a300fd951d1496d56b352018cbfb853903983fc672a32a5b2016d2c0ca79",
    },
    "seeded4.sl": {
        "analyze.xml": "1:50821db1800981f04633ade7421695be4e001e6fdd18ebac79f4b0adc3515c61",
        "analyze.txt": "1:e8b36929013ce7a5f0d05bc175ad871d71a854571d45cdde1588dedc8d61a236",
        "boundcheck.xml": "1:cafec8f6f5a76685317b73739c8a396f8412705663103b27fc64af623569751b",
        "boundcheck.txt": "1:fbefd94ec4a8b81703c48dc169f052b95635041c4264cf236156a7b08b1875f4",
    },
    "seeded5.sl": {
        "analyze.xml": "1:ab4ac2586a758b3e18d6947f31447f2e6eba310ce7a7297cf7517f587b5c30b6",
        "analyze.txt": "1:2def1a0087e2a783fc51480bbca0e2ca77aee15d2ecf7e8b4d7b15122833445d",
        "boundcheck.xml": "1:3c0e1cb5cbe94c602000de66bb56cfbdb8dbf72302c302493e2e8d8c361fc0dd",
        "boundcheck.txt": "1:f0f8bdddfed9bb3fa3735a0d93949ce5e9d812ed22124db59291ff1c0945216c",
    },
    "testing.sl": {
        "analyze.xml": "1:ed6cad07cbfb040054a0875db0c54da5a7fa1656a1069d3eeb53545500188688",
        "analyze.txt": "1:4626fd8a09e88a7543219377c5a1fa123c355cd111ce3f1cbcbca30874d95b47",
        "boundcheck.xml": "1:0dba1380d39bdb43c597674d7b1e55150551e85232528a69aae0013794feaa92",
        "boundcheck.txt": "1:ed5418787155b3879f720ccf0303755de8244ffbb1cb9e85311a8a23b53c37ba",
    },
    "wait_demo.sl": {
        "analyze.xml": "1:56d9fe82cc88f0ada6bdc18f497fada57da66b60c5735bc132fda799d7d814e9",
        "analyze.txt": "1:ddae6406bdb1859e2a94ec40e9995f43be139cebb1aec10d42d058a44cd7e945",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
    "yang.sl": {
        "analyze.xml": "1:04bd66931f26f3f02c8c17dd7bb6fc7daf389580bb2ad95440763fe18ebc43f7",
        "analyze.txt": "1:432c03e5853bc7ca6d6bff137114df5779b2d9c4952264c55b0086eea1238675",
        "boundcheck.xml": "0:ecc14dcfa5f08f1d77267f203f10dc7e6a1f50a5123dfd6047f67bc26741fdbd",
        "boundcheck.txt": "0:d87d1776624f624c88e0a362b4b327e696df030f5ca5ba2614478cb6ba3be33d",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name, corpus_sources, tmp_path, monkeypatch, capsys):
    # Reports name the file as given on the command line: run from a scratch
    # directory with a bare file name so the digests do not depend on where
    # the checkout lives.
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(_units(corpus_sources)[name], encoding="utf-8")
    assert _report_digests(name, capsys) == GOLDEN[name]


def test_golden_covers_every_unit(corpus_sources):
    assert sorted(GOLDEN) == sorted(_units(corpus_sources))

"""Golden CLI outputs: refactors must keep stdout byte-identical.

Each case is one small in-process ``run_cli`` run; the fixture pins its
exit code and the sha256 of everything it writes to stdout.  The ``detect``
rows are exact figures computed by floating-point algebra whose order may
legitimately change, so they are also checked by value.
"""

import csv
import hashlib
import io
import json

import pytest

from anonkey.cli import run_cli

# (case id, argv, exit code, sha256 of stdout)
GOLDEN = [
    ("detect-csv", ["detect", "--M", "4,8,16", "--six-state"], 0,
     "222b20374077f113bb3a429fd6a846aa4ea026f81284d0a27dc0aab0a417344b"),
    ("detect-json", ["detect", "--M", "4,12", "--format", "json"], 0,
     "7002a637a052b6c9fe45a814e44bc52eee2bb102e2604eae58038844906c5cc3"),
    ("attack-impersonation", ["attack", "--strategy", "impersonation", "--k", "6"], 0,
     "9a8657181ba9c4c75c58dfe35db439ce2b84b135a36d0f497d5761e627f31a13"),
    ("attack-opaque", ["attack", "--strategy", "opaque", "--M", "4,8", "--trials", "2000",
                       "--seed", "5"], 0,
     "7b1de89c03b397791f76c0d78759146166d5ae7e48b6f8301805d30a14c0a8e9"),
    ("attack-translucent-json", ["attack", "--strategy", "translucent", "--k", "4",
                                 "--M", "4,8", "--format", "json"], 0,
     "9267e2cf6d88b42f8de72c5419c0dc471c668bb46aef9312a59af4d2cb71aacb"),
    ("ake-none-csv", ["ake", "--k", "2", "--trials", "3", "--seed", "1", "--format", "csv"], 0,
     "b3d1b3dd7193f0b9260203955e05c03409c043bfbf05e78eebce9f48a8660498"),
    ("ake-opaque-transcript", ["ake", "--k", "2", "--M", "8", "--eve", "opaque", "--seed", "2",
                               "--transcript"], 0,
     "8e6ed3ea72a7790d08c933631e2e24acd87aabb2e6ed5bbe1b34dafc16dc1884"),
    ("ake-impersonate-json", ["ake", "--k", "3", "--eve", "impersonate-order", "--trials", "2",
                              "--seed", "3"], 0,
     "1d6500fbd68e0566119908ba0f06cbaa603e86662332de121c58c0ec354f07d6"),
    ("ake-translucent-csv", ["ake", "--k", "2", "--eve", "translucent", "--trials", "2",
                             "--seed", "4", "--format", "csv"], 0,
     "be4a70c5e8a99047a58f9e883596fdb0a769c6abda7f115a997b00247e918d74"),
    ("ake-noisy-uncoded", ["ake", "--k", "2", "--cecc", "none", "--depolarize", "0.1",
                           "--seed", "6", "--transcript"], 0,
     "1099d65a223fb9243ac80017e63a8544d63ef7e8970e38c3f55e6ac20e7e30bc"),
    ("ake-abort", ["ake", "--k", "2", "--loss", "0.95", "--seed", "0"], 3,
     "e7cc228aef9390c6df5cb66c6b6e3b5e3505b1225ee36669ae42a2db4c912cb3"),
    ("ake-abort-transcript", ["ake", "--k", "2", "--loss", "0.95", "--seed", "0",
                              "--transcript"], 3,
     "3bac3b9943c4cf9ca9eb77f72574ec99d78b21c194e30914351a552ed41a7de7"),
    ("ake-impersonate-multiblock-transcript", ["ake", "--k", "9", "--M", "16", "--eve",
                                               "impersonate-order", "--trials", "2",
                                               "--seed", "8", "--transcript"], 0,
     "c9ab4f5a615563eecbbc5b2a1c416d4ac8c0a237aa89b39498ce49aa4ae09073"),
    ("aki", ["aki", "--m", "1,2,4", "--M", "8", "--trials", "2000", "--seed", "9"], 0,
     "e45bfc3e4a58ffb962f42100f26f162e10bc18f3414433d62b46ab1cee725afe"),
    ("coherent-json", ["coherent", "--alpha0", "3", "--M", "16", "--trials", "500",
                       "--seed", "2", "--format", "json"], 0,
     "e11e6939a6235cd326bd904ca0a30f2e9e0d760886802598e6de212dde46fe92"),
    # opaque at ring sizes 12, 60 and 192 and aki at 60 (one binomial draw of
    # 70000 trials each), resend's 53 bit-count draws, heterodyne and
    # canonical counts in the bin at -pi (alpha0 = 0.4), and the session's opaque interceptor,
    # whose cdf search meets a bucket holding several detector offsets (M = 12)
    ("attack-opaque-crowded", ["attack", "--strategy", "opaque", "--M", "12,60,192",
                               "--trials", "70000", "--seed", "3"], 0,
     "b0c62d18bc3335da450a0b267a4da6c3ca28f834a97a69d0603dc9ab31c8edb5"),
    ("aki-across-blocks", ["aki", "--m", "1,3", "--M", "60", "--trials", "70000",
                           "--seed", "4"], 0,
     "af9ba2a83e97105b4b48f507b82bb3e5e9221c908e019fb0376dacdaf624e061"),
    ("coherent-across-blocks", ["coherent", "--alpha0", "0.4,2.5,23", "--M", "4,4096",
                                "--trials", "70000", "--seed", "5"], 0,
     "9eb8f163c30d397cb7a96870525fd6811f54c0db333f65001369342bd5e4f9ff"),
    ("ake-opaque-M12", ["ake", "--k", "16", "--M", "12", "--eve", "opaque", "--trials", "3",
                        "--seed", "6"], 0,
     "afc50ee2ef7cc09ea8dd365d55c6282551d78431b8e6e7e93a0f44ff4a0f82a0"),
]


def run_stdout(argv, capsys):
    code = run_cli(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case, argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_golden_hash(case, argv, code, digest, capsys):
    got_code, out = run_stdout(argv, capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_detect_rows_hold_exact_figures(capsys):
    _, out = run_stdout(GOLDEN[0][1], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    circle = [r for r in rows if r["ensemble"] == "circle"]
    assert [int(r["M"]) for r in circle] == [4, 8, 16]
    for r in circle:
        M = int(r["M"])
        assert float(r["p_correct"]) == pytest.approx(2.0 / M, abs=1e-9)
        assert float(r["p_accept"]) == pytest.approx(0.75, abs=1e-9)
        assert float(r["p_accept_guessing"]) == pytest.approx(0.5, abs=1e-9)
    six = rows[-1]
    assert six["ensemble"] == "six-state"
    assert float(six["p_accept"]) == pytest.approx(2.0 / 3.0, abs=1e-9)

    _, out = run_stdout(GOLDEN[1][1], capsys)
    rows = json.loads(out)["rows"]
    assert [r["p_correct"] for r in rows] == pytest.approx([0.5, 1.0 / 6.0], abs=1e-9)
    assert [r["p_accept"] for r in rows] == pytest.approx([0.75, 0.75], abs=1e-9)
    assert [r["p_accept_guessing"] for r in rows] == pytest.approx([0.5, 0.5], abs=1e-9)

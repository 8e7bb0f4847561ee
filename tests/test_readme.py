"""The README's examples run as written: its `python` block, its `ini` config
and its command-line round trip."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hspansharp.harness.cli import main
from hspansharp.harness.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def blocks(language):
    """The body of each fenced block of `language` in the README, in order."""
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_python_block_runs():
    (code,) = blocks("python")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "ERGAS" in done.stdout


def test_ini_block_parses():
    (text,) = blocks("ini")
    config = parse_config(text)
    assert config.methods == ("PCA", "GFPCA", "CNMF", "BayesNaive")
    assert config.method_params == {"CNMF": {"inner_iters": 300}}


def test_round_trip_runs(tmp_path, monkeypatch, capsys):
    (script,) = [b for b in blocks("sh") if "hspansharp synth" in b]
    commands = [
        shlex.split(line) for line in script.replace("\\\n", " ").splitlines() if line
    ]
    assert [argv[:2] for argv in commands] == [
        ["hspansharp", "synth"], ["hspansharp", "degrade"],
        ["hspansharp", "fuse"], ["hspansharp", "eval"],
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "CC,SAM,RMSE,ERGAS"
    assert sorted(os.listdir(tmp_path)) == [
        f"{name}.{ext}" for name in ("fused", "hs", "pan", "scene") for ext in ("dat", "hdr")
    ]

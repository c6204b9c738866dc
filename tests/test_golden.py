"""The pinned outputs of tests/golden.json, each run through cli.main in
process: exit code, standard output and, where a pin gives it, standard
error.  CI's packaging step runs the same pins with the installed
`heckeledger` command, so one file holds every output pin.

The level-150 census, the slowest pin at a few seconds, runs here too: a
pin left to CI alone could change unseen by the tier-1 suite.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from heckeledger.cli import ENV_FIELD_PRIME, main

PINS = json.loads(Path(__file__).with_name("golden.json").read_text())["pins"]


@pytest.mark.parametrize("pin", PINS, ids=[pin["name"] for pin in PINS])
def test_golden_output(pin, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_FIELD_PRIME, raising=False)
    for name, text in pin.get("files", {}).items():
        (tmp_path / name).write_text(text)
    for key, value in pin.get("env", {}).items():
        monkeypatch.setenv(key, value)
    start = time.perf_counter()
    out = err = ""
    for argv in pin["argv"]:
        assert main(list(argv)) == pin["exit"], argv
        captured = capsys.readouterr()
        out += captured.out
        err += captured.err
    assert time.perf_counter() - start < pin.get("timeout", float("inf"))
    if "stdout" in pin:
        assert out == pin["stdout"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]
    if "stderr" in pin:
        assert err == pin["stderr"]

"""``repro-serve`` refuses values it cannot serve before it binds, with
one ``repro-serve: error:`` line."""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("argv", [
    ["--window", "0"],
    ["--prune-interval", "-1"],
    ["--checkpoint-dir", "D"],
    ["--checkpoint-interval", "5"],
    ["--bogus"],
    ["--analyzer-policy", "nope"],
    ["--queue-size"],
    # Chaos mode hosts its daemon in a temporary directory, which a
    # refused value must not leave behind.
    pytest.param(["--chaos", "1", "--tenants", "0"], id="chaos-tenants-0"),
    pytest.param(["--chaos", "1", "--tenants", "-2"], id="chaos-tenants-neg"),
    pytest.param(["--chaos", "1", "--max-points", "0"],
                 id="chaos-max-points-0"),
], ids=lambda argv: argv[0])
def test_unservable_values_exit_2_before_binding(tmp_path, argv):
    socket_path = tmp_path / "ingest.sock"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.service.cli",
         "--socket", str(socket_path),
         "--control", str(tmp_path / "control.sock"), *argv],
        env={**os.environ, "PYTHONPATH": SRC, "TMPDIR": str(tmp_path)},
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode == 2, completed.stderr
    err = completed.stderr.strip()
    assert err.startswith("repro-serve: error: ")
    assert "\n" not in err, f"expected one line, got: {err!r}"
    assert not socket_path.exists()
    assert not list(tmp_path.glob("repro-chaos-*"))

"""The ``repro`` package imports nothing outside the standard library.

``pyproject.toml`` declares no runtime dependencies, and CI installs only
the test tools, so a third-party import anywhere in ``src/`` would fail
there.
"""

import os
import subprocess
import sys

import repro

# Runs in a fresh interpreter: whatever ``site`` loaded (``.pth`` hooks,
# say) is in sys.modules before the first repro import and is ignored.
PROBE = """
import pkgutil
import sys
before = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
after = {name.partition(".")[0] for name in sys.modules}
print("\\n".join(sorted(after - before)))
"""


def test_every_module_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=120).stdout.split()
    assert "repro" in loaded
    outside = [name for name in loaded
               if name != "repro" and not name.startswith("__")
               and name not in sys.stdlib_module_names]
    assert outside == []

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from exchange_clear import Allocation, fixture

ROOT = Path(__file__).resolve().parent.parent


def subprocess_env(**overrides: str) -> dict[str, str]:
    """The environment for running the package in a child process: the
    current one plus `overrides`, with `src` first on PYTHONPATH and no node
    budget inherited from EXCHANGE_CLEAR_BUDGET."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("EXCHANGE_CLEAR_BUDGET", None)
    return env


def look_up_in_child(value, build: str) -> tuple[int, str]:
    """Unpickle `value` in a child process under another PYTHONHASHSEED and
    look it up in a dict keyed by an equal value built fresh there by the
    expression `build` (over the `exchange_clear` names).  Returns the
    child's hash of the fresh value and what the lookup found.  `value` is
    hashed here first, so a kept hash would have a stale value to carry."""
    hash(value)
    seed = "8" if os.environ.get("PYTHONHASHSEED") == "7" else "7"
    code = (
        "import pickle, sys\n"
        "from exchange_clear import *\n"
        "value = pickle.loads(sys.stdin.buffer.read())\n"
        "assert '_hash' not in vars(value)\n"
        f"fresh = {build}\n"
        "print(hash(fresh), {fresh: 'found'}.get(value))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(value), capture_output=True,
        env=subprocess_env(PYTHONHASHSEED=seed), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    child_hash, found = proc.stdout.decode().split()
    return int(child_hash), found


@pytest.fixture(scope="session")
def example1():
    return fixture("example1")


@pytest.fixture(scope="session")
def theorem5():
    return fixture("theorem5")


@pytest.fixture(scope="session")
def example1_all_satisfying():
    # the allocation satisfying all three agents of the example1 market
    return Allocation(
        {"p": "1", "c1": "1", "c2": "1", "c3": "1", "s": "2", "h": "2", "c4": "3"}
    )

import os
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

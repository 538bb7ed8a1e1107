import importlib.util
import pathlib
import random

import pytest

from intalg import algebra


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_element(rng, p):
    """Uniform-ish canonical element over order size p."""
    if p == 0:
        return algebra.empty(0)
    pool = [algebra.NEG_INF, *range(1, p), algebra.POS_INF]
    count = rng.randint(0, max(0, len(pool) // 2))
    eps = tuple(sorted(rng.sample(pool, 2 * count)))
    return algebra.Element(p, eps)


def load_script(name):
    """Import scripts/<name>.py, which is not part of the package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

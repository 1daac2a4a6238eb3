"""The demos print the same text whatever the string hash seed."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


def _stdout(demo: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_independent_of_hash_seed(demo):
    assert _stdout(demo, "1") == _stdout(demo, "2")

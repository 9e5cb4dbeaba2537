"""The library names the benchmark relies on.

benchmark/spans.py hooks public uhwt functions by module and attribute
path, and benchmark/rep.py records ``uhwt._streams.thread_count()``.  A
hook that no longer resolves is reported as an absent span and a missing
function fails every repetition, so a rename must fail here first.
"""

import importlib.util
from pathlib import Path

import pytest

from uhwt import _streams

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(spans):
    missing = [name for name, module, attr, _ in spans.HOOKS if spans.resolve(module, attr) is None]
    assert missing == []


def test_forest_worker_count_is_one():
    assert _streams.thread_count() == 1

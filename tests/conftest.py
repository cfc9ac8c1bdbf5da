from pathlib import Path

import pytest


@pytest.fixture
def workloads(monkeypatch):
    # The benchmark's closed-form relevance corpus.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads

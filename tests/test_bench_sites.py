"""The traced bench run can still wrap every tunekit name it patches.

``bench/spans.py`` replaces module and class attributes, such as
``acquisition.predict_batch``, ``inference.lml_function`` and
``JobStore.write_trial``, for the length of a ``bench/run.py --trace 1``
run.  Deleting or renaming one of them breaks that run; this test breaks
first, inside the tier-1 suite.
"""
from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_wrappers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    patches = spans.Patches(spans.Tracer())
    with patches:
        assert not patches.restored()
    assert patches.restored()

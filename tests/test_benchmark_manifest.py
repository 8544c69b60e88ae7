import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_json_matches_the_manifest(monkeypatch):
    # perfbench/manifest.py is the source; `python3 perfbench/manifest.py`
    # rewrites BENCHMARK.json from it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        manifest = importlib.import_module("manifest")
    finally:
        sys.modules.pop("manifest", None)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == manifest.manifest()

"""The fixture generators in tools/ reproduce the checked-in files byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DATA = ROOT / "src" / "rcaudit" / "data"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_fixtures_reproduces_the_bundled_data(tmp_path, monkeypatch):
    # main() also runs its own checks: partitions, cf_accuracy of the oracle
    # and frequency models on the coreference pairs, and the antonym twins.
    tool = load_tool("gen_fixtures")
    monkeypatch.setattr(tool, "DATA_DIR", tmp_path)
    tool.main()
    for name in ("fixture_corpus.jsonl", "coref_cf_pairs.jsonl"):
        assert (tmp_path / name).read_bytes() == (PACKAGE_DATA / name).read_bytes(), name


def test_gen_heuristic_expected_reproduces_the_snapshot(tmp_path, monkeypatch):
    tool = load_tool("gen_heuristic_expected")
    out = tmp_path / "heuristic_expected.json"
    monkeypatch.setattr(tool, "OUT", out)
    tool.main()
    expected = ROOT / "tests" / "data" / "heuristic_expected.json"
    assert out.read_bytes() == expected.read_bytes()

"""Every reader checks field types where it decodes them: a record with a
field of the wrong JSON type, or with an integer past Python's 4300-digit
conversion limit, is an input error that names the file and the record,
never an internal error and never a run on a record that means something
else.

Each property changes one typed leaf of a valid record: to a value of
another JSON type, to the same integer written as a float, or to a
5000-digit integer. A token's `end` is only checked against its start
plus length and then dropped, so an `end` of equal value (`10.0`, or
`true` for 1) still describes the same instance; that, and only that, may
load.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcaudit.cli import main
from rcaudit.corpus.schema import load_jsonl
from rcaudit.counterfactuals import load_cf_pairs
from rcaudit.data import coref_cf_pairs_path, fixture_corpus_path
from rcaudit.errors import InputError
from rcaudit.gateway import build_gateway
from rcaudit.gateway.remote import serve_stream
from rcaudit.saliency import SaliencyCache

CORPUS = fixture_corpus_path()
CF_PAIRS = coref_cf_pairs_path()
CORPUS_LINES = CORPUS.read_text(encoding="utf-8").splitlines()
CF_LINES = CF_PAIRS.read_text(encoding="utf-8").splitlines()
# Stands for an integer past the digit limit until the record is JSON text.
_BIG = "\x00big"
BIG_DIGITS = "1" + "0" * 5000


def leaf_paths(node, path=()) -> list[tuple]:
    """The path of every scalar in a JSON value."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in leaf_paths(child, path + (key,))]


def other_values(value) -> list:
    """Values of another JSON type than `value`, the same integer as a float
    and as a string, and a 5000-digit integer."""
    pool = ["w", 0, 2.5, True, None, [], {"k": 1}]
    if type(value) is int:
        pool += [float(value), str(value)]
    elif type(value) is str:
        pool.append(list(value))  # as long as the string, so an `end` still fits
    same = (int, float) if type(value) is float else (type(value),)
    return [v for v in pool if type(v) not in same] + [_BIG]


def as_json(doc) -> str:
    return json.dumps(doc, ensure_ascii=False).replace(json.dumps(_BIG), BIG_DIGITS)


@st.composite
def one_leaf_changed(draw, lines: list[str]) -> tuple[int, dict, str]:
    """(index of the changed line, the changed record, its JSON text)."""
    index = draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[index])
    path = draw(st.sampled_from(leaf_paths(doc)))
    holder = reduce(getitem, path[:-1], doc)
    holder[path[-1]] = draw(st.sampled_from(other_values(holder[path[-1]])))
    return index, doc, as_json(doc)


def run_cli(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def write_lines(path: Path, lines: list[str], index: int, line: str) -> Path:
    path.write_text("\n".join(lines[:index] + [line] + lines[index + 1 :]) + "\n", encoding="utf-8")
    return path


ORIGINAL_CORPUS = load_jsonl(CORPUS)


class TestUnifiedFile:
    @settings(max_examples=300, deadline=None)
    @given(one_leaf_changed(CORPUS_LINES))
    def test_a_mistyped_leaf_is_named_or_changes_nothing(self, case):
        index, _, line = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "corpus.jsonl", CORPUS_LINES, index, line)
            code, err = run_cli("evaluate", "--dataset", path, "--model", "oracle",
                                "--out", Path(tmp) / "out")
            if code == 0:
                assert load_jsonl(path) == ORIGINAL_CORPUS
            else:
                assert code == 2, err
                assert err.startswith(f"error: {path}: malformed record {index}: ") or (
                    err.startswith(f"error: {path}: bad JSON on line {index + 1}: ")
                ), err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda doc: doc["question"]["tokens"][1].update(start=6.0, end=10.0),
             "cmp-01 question: token 1 start must be an integer, not 6.0"),
            (lambda doc: doc["context"][0]["tokens"][1].update(start=6.0, end=11.0),
             "cmp-01 sentence 0: token 1 start must be an integer, not 6.0"),
            (lambda doc: doc["question"]["tokens"][1].update(start=True, end=5),
             "cmp-01 question: token 1 start must be an integer, not True"),
            (lambda doc: doc["context"][0]["tokens"][1].update(text=list("Shaft")),
             "cmp-01 sentence 0: token 1 text must be a string, not ['S', 'h', 'a', 'f', 't']"),
            (lambda doc: doc.update(id=12345),
             "TypeError('id must be a string, not 12345')"),
            (lambda doc: doc["question"].update(text=None),
             "TypeError('question text must be a string, not None')"),
            (lambda doc: doc["answers"][0].update(sent=True),
             "TypeError('answer sent must be an integer, not True')"),
            (lambda doc: doc["answers"][0].update(tok_start="14"),
             """TypeError("answer tok_start must be an integer, not '14'")"""),
            (lambda doc: doc["annotations"].update(value_tokens=[1.0]),
             "TypeError('annotation index must be an integer, not 1.0')"),
            (lambda doc: doc["annotations"]["compared_entities"][0].append(False),
             "TypeError('annotation index must be an integer, not False')"),
            (lambda doc: doc["annotations"].update(relevant_cluster=None),
             "TypeError('relevant_cluster must be an integer, not None')"),
            (lambda doc: doc.update(coref_clusters=[[dict(doc["answers"][0], tok_end=18.0)]]),
             "TypeError('mention tok_end must be an integer, not 18.0')"),
            (lambda doc: doc["context"][1].update(supporting="false"),
             """TypeError("supporting must be a boolean, not 'false'")"""),
            (lambda doc: doc["context"][0].update(paragraph_id=0),
             "TypeError('paragraph_id must be a string, not 0')"),
            (lambda doc: doc["annotations"].update(unannotatable=1),
             "TypeError('unannotatable must be a boolean, not 1')"),
        ],
        ids=["question-offsets-float", "context-offsets-float", "start-true", "text-list",
             "id-int", "question-text-null", "sent-true", "tok-start-str", "annotation-float",
             "annotation-false", "relevant-cluster-null", "mention-float", "supporting-str",
             "paragraph-id-int", "unannotatable-int"],
    )
    def test_each_reproduced_fault_exits_2_with_the_record_named(self, tmp_path, edit, reason):
        doc = json.loads(CORPUS_LINES[0])
        edit(doc)
        path = write_lines(tmp_path / "corpus.jsonl", CORPUS_LINES, 0, as_json(doc))
        code, err = run_cli("evaluate", "--dataset", path, "--model", "oracle",
                            "--out", tmp_path / "out")
        assert (code, err) == (2, f"error: {path}: malformed record 0: {reason}\n")

    def test_an_id_past_the_digit_limit_is_bad_json(self, tmp_path):
        doc = json.loads(CORPUS_LINES[0])
        doc["id"] = _BIG
        path = write_lines(tmp_path / "corpus.jsonl", CORPUS_LINES, 0, as_json(doc))
        code, err = run_cli("evaluate", "--dataset", path, "--model", "oracle",
                            "--out", tmp_path / "out")
        assert code == 2
        assert err.startswith(f"error: {path}: bad JSON on line 1: Exceeds the limit (4300 digits)")


class TestCfFile:
    @settings(max_examples=150, deadline=None)
    @given(one_leaf_changed(CF_LINES))
    def test_a_mistyped_leaf_is_named(self, case):
        index, doc, line = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "pairs.jsonl", CF_LINES, index, line)
            code, err = run_cli("align", "--dataset", CORPUS, "--cf-file", path,
                                "--model", "toy:7", "--out", Path(tmp) / "out")
        assert code == 2, err
        assert err.startswith(f"error: {path}: "), err
        assert f"line {index + 1}" in err or str(doc["original_id"]) in err, err

    def test_a_supporting_flag_that_is_not_a_boolean_is_named(self, tmp_path):
        doc = json.loads(CF_LINES[0])
        doc["perturbed_context"][0]["supporting"] = "false"
        path = write_lines(tmp_path / "pairs.jsonl", CF_LINES, 0, as_json(doc))
        code, err = run_cli("align", "--dataset", CORPUS, "--cf-file", path,
                            "--model", "toy:7", "--out", tmp_path / "out")
        assert (code, err) == (
            2, f"error: {path}: malformed record for {doc['original_id']!r}:"
               " supporting must be a boolean, not 'false'\n"
        )

    def test_a_pair_on_a_comparison_original_is_refused(self, tmp_path):
        # cor-01 made a comparison instance: its pair would join the other
        # pairs' audit plan with a partition of another reasoning step.
        doc = json.loads(CORPUS_LINES[10])
        doc["skill"] = "comparison"
        doc["annotations"]["comparison_operator"] = [0]
        dataset = write_lines(tmp_path / "corpus.jsonl", CORPUS_LINES, 10, as_json(doc))
        code, err = run_cli("align", "--dataset", dataset, "--cf-file", CF_PAIRS,
                            "--model", "toy:7", "--out", tmp_path / "out")
        assert (code, err) == (
            2, f"error: {CF_PAIRS}: record for 'cor-01': its original has skill 'comparison',"
               " not 'coreference'\n"
        )


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory) -> list[str]:
    out = tmp_path_factory.mktemp("cold")
    assert run_cli("align", "--dataset", CORPUS, "--model", "toy:7", "--out", out)[0] == 0
    return (out / "saliency_cache.jsonl").read_text(encoding="utf-8").splitlines()


class TestSaliencyCache:
    @settings(max_examples=200, deadline=None)
    @given(case=st.data())
    def test_a_mistyped_leaf_is_named(self, cold_cache, case):
        index, _, line = case.draw(one_leaf_changed(cold_cache))
        with tempfile.TemporaryDirectory() as tmp:
            cache = write_lines(Path(tmp) / "saliency_cache.jsonl", cold_cache, index, line)
            code, err = run_cli("align", "--dataset", CORPUS, "--model", "toy:7", "--out", tmp)
        assert code == 2, err
        assert err.startswith(f"error: {cache}: bad cache record on line {index + 1}: ") or (
            err.startswith(f"error: {cache}: bad JSON on line {index + 1}: ")
        ), err


def served(requests: list[str]) -> list[dict]:
    out = io.StringIO()
    serve_stream(build_gateway("toy:7"), io.StringIO("".join(r + "\n" for r in requests)), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


INFO = '{"op": "info"}'


class TestServer:
    @settings(max_examples=300, deadline=None)
    @given(one_leaf_changed(CORPUS_LINES))
    def test_a_mistyped_leaf_is_an_input_error_and_the_server_serves_on(self, case):
        index, _, line = case
        unchanged = '{"op": "predict", "instance": ' + CORPUS_LINES[index] + "}"
        changed = '{"op": "predict", "instance": ' + line + "}"
        reply, info = served([changed, INFO])
        assert info["ok"]
        if reply["ok"]:
            assert reply == served([unchanged])[0]
        else:
            assert reply["kind"] == "input", reply

    def test_a_request_past_the_digit_limit_is_answered(self):
        reply, info = served(['{"op": "info", "x": ' + BIG_DIGITS + "}", INFO])
        assert reply["ok"] is False and reply["kind"] == "input"
        assert reply["error"].startswith("bad JSON: Exceeds the limit (4300 digits)")
        assert info["ok"]

    def test_a_supporting_flag_that_is_not_a_boolean_is_an_input_error(self):
        doc = json.loads(CORPUS_LINES[0])
        doc["context"][1]["supporting"] = "false"
        (reply,) = served([json.dumps({"op": "predict", "instance": doc})])
        assert reply["ok"] is False and reply["kind"] == "input", reply
        assert "supporting must be a boolean, not 'false'" in reply["error"], reply

    def test_a_mistyped_instance_is_an_input_error(self):
        doc = json.loads(CORPUS_LINES[0])
        doc["question"]["tokens"][1].update(start=6.0, end=10.0)
        (reply,) = served([json.dumps({"op": "predict", "instance": doc})])
        assert reply == {
            "ok": False,
            "error": "cmp-01 question: token 1 start must be an integer, not 6.0",
            "kind": "input",
        }


@pytest.mark.parametrize(
    "read",
    [load_jsonl, SaliencyCache.load, lambda path: load_cf_pairs(path, ORIGINAL_CORPUS)],
    ids=["unified", "cache", "cf"],
)
def test_a_json_lines_file_that_is_not_utf8_is_named(tmp_path, read):
    path = tmp_path / "file.jsonl"
    path.write_bytes(b"\n\xff{}\n")
    with pytest.raises(InputError) as refused:
        read(path)
    assert str(refused.value) == (
        f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 1:"
        " invalid start byte"
    )


class TestSingleDocumentReaders:
    def test_an_adapter_file_past_the_digit_limit_exits_2(self, tmp_path):
        path = tmp_path / "squad.json"
        text = (Path(__file__).parent / "data" / "squad_like.json").read_text(encoding="utf-8")
        path.write_text(text.rstrip()[:-1] + ', "x": ' + BIG_DIGITS + "}", encoding="utf-8")
        code, err = run_cli("evaluate", "--dataset", path, "--format", "squad_like",
                            "--out", tmp_path / "out")
        assert code == 2
        assert err.startswith(f"error: {path}: not valid JSON: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{name: 1}", "not valid JSON: Expecting property name enclosed in double quotes:"
                          " line 1 column 2 (char 1)"),
            ('{"name": "x"}', "a script is an object with an 'instances' object"),
            ('{"instances": []}', "a script is an object with an 'instances' object"),
            ("[1]", "a script is an object with an 'instances' object"),
            ('{"instances": {"cmp-01": {"answer": "ab"}}}',
             "entry for 'cmp-01': answer must be two integers, not 'ab'"),
            ('{"instances": {"cmp-01": {"answer": [14, true]}}}',
             "entry for 'cmp-01': answer must be two integers, not [14, True]"),
            ('{"instances": {"cmp-01": {"answer": [14, 15], "base": "0.9"}}}',
             "entry for 'cmp-01': base must be a number in [0, 1], not '0.9'"),
            ('{"instances": {"cmp-01": {"answer": [14, 15], "base": 1.5}}}',
             "entry for 'cmp-01': base must be a number in [0, 1], not 1.5"),
            ('{"instances": {"cmp-01": {"answer": [14, 15], "base": -0.5}}}',
             "entry for 'cmp-01': base must be a number in [0, 1], not -0.5"),
            ('{"instances": {"cmp-01": {"answer": [14, 15], "sensitivity": [0.1, null]}}}',
             "entry for 'cmp-01': sensitivity must be a list of numbers, not [0.1, None]"),
            ('{"instances": {"cmp-01": [14, 15]}}',
             "entry for 'cmp-01': an entry is an object, not [14, 15]"),
            ('{"instances": {"cmp-01": {"answer": [-1, 15]}}}',
             "entry for 'cmp-01': answer must be a start and an end with 0 <= start <= end,"
             " not [-1, 15]"),
            ('{"instances": {"cmp-01": {"answer": [15, 14]}}}',
             "entry for 'cmp-01': answer must be a start and an end with 0 <= start <= end,"
             " not [15, 14]"),
            # cmp-01, the first instance asked, has 15 question and 34 context words
            ('{"instances": {"cmp-01": {"answer": [99, 99]}}}',
             "entry for 'cmp-01': answer [99, 99] lies past the 34 context words"),
            ('{"instances": {"cmp-01": {"answer": [14, 18], "sensitivity": [0.1]}}}',
             "entry for 'cmp-01': sensitivity length 1 is not the instance's 49 words"),
        ],
        ids=["bad-json", "no-instances", "instances-not-an-object", "not-an-object",
             "answer-str", "answer-bool", "base-str", "base-above-1", "base-below-0",
             "sensitivity-null", "entry-list",
             "answer-negative", "answer-reversed", "answer-past-the-context",
             "sensitivity-length"],
    )
    def test_a_faulty_script_exits_2(self, tmp_path, text, reason):
        script = tmp_path / "script.json"
        script.write_text(text, encoding="utf-8")
        code, err = run_cli("evaluate", "--dataset", CORPUS, "--model", f"scripted:{script}",
                            "--out", tmp_path / "out")
        assert (code, err) == (2, f"error: {script}: {reason}\n")


DATA = Path(__file__).parent / "data"


def _set(path: tuple, value):
    """An edit of a native document: the leaf at `path` becomes `value`."""
    return lambda doc: reduce(getitem, path[:-1], doc).__setitem__(path[-1], value)


class TestAdapterRecords:
    @pytest.mark.parametrize(
        "fmt, text, reason",
        [
            ("squad_like", (DATA / "hotpot_like.json").read_text(encoding="utf-8"),
             "TypeError('list indices must be integers or slices, not str')"),
            ("quoref_like", (DATA / "hotpot_like.json").read_text(encoding="utf-8"),
             "TypeError('list indices must be integers or slices, not str')"),
            ("squad_like", '{"data": 5}', "TypeError(\"'int' object is not iterable\")"),
            ("hotpot_like", '[{"_id": "h", "context": [["t"]]}]',
             "ValueError('not enough values to unpack (expected 2, got 1)')"),
        ],
        ids=["squad-on-a-list", "quoref-on-a-list", "data-not-a-list", "paragraph-unpaired"],
    )
    def test_a_document_of_the_wrong_shape_exits_2(self, tmp_path, fmt, text, reason):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code, err = run_cli("evaluate", "--dataset", path, "--format", fmt, "--model", "oracle",
                            "--out", tmp_path / "out")
        assert (code, err) == (2, f"error: {path}: malformed record 0: {reason}\n")

    @pytest.mark.parametrize(
        "fmt, edit, reason",
        [
            ("hotpot_like", _set((0, "_id"), None), "id must be a string, not None"),
            ("hotpot_like", _set((0, "context", 1, 0), 3), "title must be a string, not 3"),
            ("squad_like", _set(("data", 0, "paragraphs", 0, "qas", 0, "id"), 7),
             "id must be a string, not 7"),
            ("squad_like", _set(("data", 0, "title"), ["x"]), "title must be a string, not ['x']"),
            ("quoref_like", _set(("data", 0, "paragraphs", 0, "qas", 0, "id"), True),
             "id must be a string, not True"),
            ("wiki2hop_like", _set((0, "id"), 1.0), "id must be a string, not 1.0"),
        ],
        ids=["hotpot-id", "hotpot-title", "squad-id", "squad-title", "quoref-id", "wiki2hop-id"],
    )
    def test_an_id_or_title_that_is_not_a_string_exits_2(self, tmp_path, fmt, edit, reason):
        doc = json.loads((DATA / f"{fmt}.json").read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / f"{fmt}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err = run_cli("evaluate", "--dataset", path, "--format", fmt, "--model", "oracle",
                            "--out", tmp_path / "out")
        assert (code, err) == (2, f"error: {path}: malformed record 0: {reason}\n")

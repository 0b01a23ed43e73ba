"""Input and output files: one reader and one writer for every text file."""

import ast
import errno
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from affixgen import config, corpus, disambig, morphgen, retrieval, rules, textfiles
from affixgen.cli import build_parser, main
from affixgen.corpus import Document, read_documents, tokenize
from affixgen.disambig import QueryTerm, WeightedQuery
from affixgen.morphgen import FormationCandidate
from affixgen.retrieval import Qrels, RunFile
from synthcorpus import build_world, world_files


def load_stems(path):
    stem = morphgen.load_stem_table(path)
    return [stem(word) for word in ("gatos", "perros", "luna")]


def load_tags(path):
    tagger = corpus.load_pos_lexicon(path)
    return [tagger(word) for word in ("gato", "correr", "luna")]


# One small file of each kind the program reads, and the loader that reads it.
LOADERS = {
    "dictionary": ("cat\tgato,felino\ndog\tperro\n", disambig.load_dictionary),
    "topics": ("q1\tcat dog\nq2\tdog\n", disambig.load_topics),
    "tsv corpus": ("d1\tgato perro\nd2\tperro\n", read_documents),
    "sgml corpus": ("<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>gato perro</TEXT>\n</DOC>\n",
                    read_documents),
    "stopwords": ("the\nand\n", corpus.load_stopwords),
    "pos lexicon": ("gato\tN\ncorrer\tV\n", load_tags),
    "stem table": ("gatos\tgato\nperros\tperro\n", load_stems),
    "weighted queries": ("q1\tgato\t0.75\tdictionary\nq1\tgatos\t0.25\tformation\n",
                         disambig.load_weighted_queries),
    "rules": ("#k_max\t2\ni:e:s\tUNK\t3\t0.75\nd:b:a\tUNK\t1\t0.25\n", rules.load_rules),
    "qrels": ("q1 0 d1 1\nq1 0 d2 0\n", retrieval.load_qrels),
    "run file": ("q1 Q0 d1 1 -1.5 tag\nq1 Q0 d2 2 -2.0 tag\n", retrieval.load_run),
    "config": ("[pipeline]\nseed = 7\n", config.load_config),
}


@pytest.mark.parametrize("kind", LOADERS)
def test_a_byte_order_mark_reads_like_none(tmp_path, kind):
    text, load = LOADERS[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load(marked) == load(plain)


@pytest.mark.parametrize("kind", LOADERS)
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, kind):
    text, load = LOADERS[kind]
    path = tmp_path / "latin1"
    path.write_bytes(text.encode("utf-8") + "café\n".encode("latin-1"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text: ")):
        load(path)


def test_evaluate_names_a_qrels_file_that_is_not_utf8(tmp_path, capsys):
    run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
    run.write_text("q1 Q0 d1 1 -1.5 tag\n", encoding="utf-8")
    qrels.write_bytes("q1 0 café 1\n".encode("latin-1"))
    assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {qrels}: not UTF-8 text: ")
    assert err.count("\n") == 1


def test_lines_end_at_newline_carriage_return_or_both(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(b"d1\tgato\r\nd2\tperro\rd3\tluna\n\r\nd4\tsol")
    assert read_documents(path) == [Document("d1", "gato"), Document("d2", "perro"),
                                    Document("d3", "luna"), Document("d4", "sol")]


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c"])
def test_other_line_separators_stay_inside_a_document(tmp_path, separator):
    path = tmp_path / "corpus.tsv"
    path.write_text(f"d1\tgato{separator}perro\n", encoding="utf-8")
    assert read_documents(path) == [Document("d1", f"gato{separator}perro")]
    assert tokenize(read_documents(path)[0].text) == ["gato", "perro"]


def test_a_form_feed_does_not_split_off_a_document(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d2\tluna\x0csol\tx\n", encoding="utf-8")
    assert read_documents(path) == [Document("d2", "luna\x0csol\tx")]


def test_document_line_numbers_count_file_lines(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\ta\x85b\x0cc\n\nd2\tluna sol\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed document line 4:")):
        read_documents(path)


# The writers' inputs: the synthetic collection, its snapshot and its rules.
@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    paths = world_files(build_world(), root)
    index_dir, rules_file = str(root / "snapshot"), str(root / "rules.tsv")
    assert main(["index", "--corpus", paths["corpus"], "--index-dir", index_dir]) == 0
    assert main(["mine-rules", "--index-dir", index_dir, "--rules-file", rules_file]) == 0
    docs = read_documents(paths["corpus"])
    return SimpleNamespace(paths=paths, index_dir=index_dir, rules_file=rules_file,
                           docs=docs, rules=rules.load_rules(rules_file))


def write_index(world, target, wrap):
    corpus.save_index(wrap([(doc.doc_id, tokenize(doc.text)) for doc in world.docs[:5]]),
                      target)


def write_rules(world, target, wrap):
    rules.save_rules(world.rules, target)


def write_queries(world, target, wrap):
    disambig.save_weighted_queries(wrap([
        WeightedQuery("q1", [QueryTerm("gato", 0.75, "dictionary"),
                             QueryTerm("gatos", 0.25, "formation")]),
    ]), target)


def write_formations(world, target, wrap):
    rule, _, prob = world.rules.ranked()[0]
    morphgen.save_formations(wrap([FormationCandidate("gatos", "gato", rule, prob)]), target)


def write_run(world, target, wrap):
    assert retrieval.write_run(wrap([("q1", [("d1", -1.0), ("d2", -2.0)])]), "tag",
                               target) == 1


def write_eval(world, target, wrap):
    run = RunFile("tag", {"q1": [("d1", -1.0), ("d2", -2.0)]})
    retrieval.save_eval(retrieval.evaluate(run, Qrels({"q1": {"d2"}})), target)


def write_config(world, target, wrap):
    config.save_config(config.ExperimentConfig(seed=7), target)


def write_tuning_report(world, target, wrap):
    args = build_parser().parse_args([
        "tune-thresholds", "--dictionary", world.paths["dictionary"],
        "--topics", world.paths["topics"], "--index-dir", world.index_dir,
        "--rules-file", world.rules_file, "--qrels", world.paths["qrels"],
        "--tau-grid", "0.01", "--min-len-grid", "4,5,6", "--out", str(target),
    ])
    assert args.func(args) == 0


WRITERS = {
    "save_index": write_index,
    "save_rules": write_rules,
    "save_weighted_queries": write_queries,
    "save_formations": write_formations,
    "write_run": write_run,
    "save_eval": write_eval,
    "save_config": write_config,
    "tune-thresholds --out": write_tuning_report,
}


def then_fail(items):
    yield from items
    raise ValueError("input failed midway")


def then_bad_id(items):
    yield from items
    yield "q2", [("d1", -1.0), ("d 2", -2.0)]


class HalfWrite:
    """A handle that writes half of what it is given, then fails as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def files_under(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize("writer, failure", [
    *((writer, "write fails") for writer in WRITERS),
    *((writer, "input raises") for writer in ("save_index", "save_weighted_queries",
                                              "save_formations", "write_run")),
    ("write_run", "bad id"),
])
def test_a_failed_write_leaves_the_target_and_no_temporary_file(
        world, tmp_path, monkeypatch, writer, failure):
    write = WRITERS[writer]
    target = tmp_path / "target"
    if writer == "save_index":
        corpus.save_index([("old", ["kept"])], target)
    else:
        target.write_text("old\n", encoding="utf-8")
    before = files_under(tmp_path)

    wrap = {"input raises": then_fail, "bad id": then_bad_id}.get(failure, iter)
    if failure == "write fails":
        def half_open(file, mode="r", **kwargs):
            handle = open(file, mode, **kwargs)
            return HalfWrite(handle) if "w" in mode else handle
        monkeypatch.setattr(textfiles, "open", half_open, raising=False)
    with pytest.raises((OSError, ValueError),
                       match="No space left|input failed midway|'d 2' is empty"):
        write(world, target, wrap)
    assert files_under(tmp_path) == before

    monkeypatch.undo()
    write(world, target, iter)
    after = files_under(tmp_path)
    assert after.keys() == before.keys()
    assert after != before


# The snapshot's strict reader keeps its own file reads: every line ends with a
# newline, no line is blank, and the bytes are fingerprinted.
SNAPSHOT_READS = {
    ("corpus.py", "read_snapshot", "read_text"),
    ("corpus.py", "_read_lines", "read_bytes"),
    ("corpus.py", "_read_array", "open"),
}
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(path):
    """(module, enclosing function, callee) for each call that opens, reads or writes a file."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in FILE_CALLS:
                    found.add((path.name, where, func.id))
                elif (isinstance(func, ast.Attribute) and func.attr in FILE_CALLS
                        and not (isinstance(func.value, ast.Name)
                                 and func.value.id == "textfiles")):
                    found.add((path.name, where, func.attr))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_textfiles_opens_files():
    src = Path(textfiles.__file__).parent
    found = set().union(*(file_calls(path) for path in sorted(src.glob("*.py"))
                          if path.name != "textfiles.py"))
    assert found == SNAPSHOT_READS


def test_no_module_imports_private_names():
    # A name behind an underscore is its module's own; another module that
    # needs it should call what the owner makes public.
    src = Path(textfiles.__file__).parent
    found = {(path.name, node.module, alias.name)
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name.startswith("_")}
    assert found == set()

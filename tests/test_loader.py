"""The block-parsing edge-list loader against the line-by-line loader it
replaced.

``graphs.load_edge_list`` parses the body of a file with numpy, a block of
``LOAD_BLOCK_LINES`` lines at a time, and reads a file that numpy refuses
again by the per-line rules.  ``oracle_load`` below is the former loader,
which held every line and every edge as a pair of strings.  On every file
here, and at block sizes that put block boundaries between any two lines,
the new loader must give the same graph and mapping (in the same order), or
the same exception class and message, and must emit no warning.
"""

import random
import sys
import warnings
from typing import Optional

import numpy as np
import pytest

from uppertail import graphs
from uppertail.errors import ValidationError
from uppertail.graphs import HostGraph, load_edge_list


def oracle_load(path_name: str):
    """The former ``load_edge_list``, kept verbatim as the oracle."""
    with open(path_name, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"edge-list file is not UTF-8 text: {exc}") from None
    n = None
    raw_edges: list[tuple[str, str]] = []
    for line in lines:
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValidationError("edge-list file must start with 'n <N>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ValidationError(f"vertex count {parts[1]!r} is not an integer") from None
            if n < 1:
                raise ValidationError(f"vertex count must lie in [1, inf), got {n}")
            continue
        if len(parts) != 2:
            raise ValidationError(f"bad edge line: {text!r}")
        raw_edges.append((parts[0], parts[1]))
    if n is None:
        raise ValidationError("empty edge-list file")

    def dense(tok: str) -> Optional[int]:
        try:
            value = int(tok)
        except ValueError:
            return None
        return value if 0 <= value < n else None

    if all(dense(a) is not None and dense(b) is not None for a, b in raw_edges):
        mapping = {str(i): i for i in range(n)}
        edges = [(int(a), int(b)) for a, b in raw_edges]
    else:
        mapping = {}
        for a, b in raw_edges:
            for tok in (a, b):
                if tok not in mapping:
                    if len(mapping) == n:
                        raise ValidationError("more labels than declared vertices")
                    mapping[tok] = len(mapping)
        edges = [(mapping[a], mapping[b]) for a, b in raw_edges]
    return HostGraph(n, edges), mapping


def _outcome(load, path_name):
    try:
        host, mapping = load(path_name)
    except ValidationError as exc:
        return type(exc), str(exc)
    rows = [sorted(row) for row in host.adjacency_rows()]
    assert all(type(v) is int for row in rows for v in row)
    return host.vertex_count, host.edge_count, rows, list(mapping.items())


BLOCK_SIZES = (1, 2, 3, graphs.LOAD_BLOCK_LINES)


def _check(tmp_path, monkeypatch, data: bytes, name="g.txt"):
    path_name = tmp_path / name
    path_name.write_bytes(data)
    want = _outcome(oracle_load, str(path_name))
    for size in BLOCK_SIZES:
        monkeypatch.setattr(graphs, "LOAD_BLOCK_LINES", size)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _outcome(load_edge_list, str(path_name))
        assert caught == [], (size, [str(w.message) for w in caught])
        assert got == want, (size, data[:200])
    return want


NBSP = "\xa0"
ARABIC_THREE = "\u0663"  # Arabic-Indic digit three

CASES = {
    # comments and blanks: before the header, trailing, and whole blocks
    "comments": "# lead\n\n  # indented\nn 4\n0 1 # trailing\n# only\n\n#\n\n1 2#tight\n\n\n\n2 3\n# end",
    "comment_blocks_at_end": "n 3\n0 1\n#\n#\n\n#\n",
    "comment_header": "n 3 # three\n0 1\n",
    # line ends and whitespace
    "crlf": "n 3\r\n0 1\r\n1 2\r\n",
    "lone_cr": "n 3\r0 1\r1 2\r",
    "tabs_nbsp": f"n\t3\n0\t1\n1{NBSP}2\n {NBSP}\t\n",
    "unicode_spaces": "n 5\n0\u20031\n1\x1c2\n2\x0c3\n3\x0b4\n4\x850\n0\u20282\n\u3000\n",
    "no_final_newline": "n 3\n0 1\n1 2",
    # integer spellings that int() reads
    "plus_zero_pad": "n 4\n+1 02\n-0 +3\n002 3\n",
    "underscore": "n 12\n1_0 1\n0 1\n",
    "arabic_indic": f"n 5\n{ARABIC_THREE} 1\n0 1\n",
    "fullwidth": "n 5\n\uff11 2\n",
    "digit_limit": "n 4\n" + "0" * 5000 + "1 2\n0 1\n",
    "int64_overflow": "n 3\n9223372036854775808 1\n0 1\n",
    "int64_underflow": "n 3\n-9223372036854775809 1\n",
    "float_and_hex": "n 3\n1.0 2\n0x1 2\n1e0 0\n",
    # labels
    "out_of_range": "n 6\n0 1\n1 6\n6 2\n",
    "negative": "n 3\n-1 0\n0 1\n",
    "names": "n 3\nalice bob\nbob carol\n",
    "spellings_as_labels": "n 4\n01 1\nx 2\n",
    "spellings_too_many": "n 3\n01 1\n+1 x\n",
    "too_many_labels": "n 2\na b\nb c\n",
    "too_many_then_bad_line": "n 2\na b\nb c\n0 1 2\n",
    "dense_spellings_many": "n 2\n0 1\n00 01\n+0 +1\n-0 001\n",
    # loops, repeats and line shapes
    "self_loop": "n 3\n0 1\n2 2\n1 1\n",
    "self_loop_labels": "n 3\na b\nc c\n",
    "self_loop_then_bad_line": "n 3\n1 1\n0 1\n0 1 2\n",
    "duplicates": "n 3\n0 1\n1 0\n0 1\n2 1\n",
    "one_token": "n 3\n0 1\n2\n",
    "three_tokens": "n 3\n0 1\n0 1 2\n",
    "all_three_tokens": "n 3\n0 1 2\n1 2 0\n",
    "all_one_token": "n 3\n0\n1\n",
    "second_header": "n 3\n0 1\nn 2\n",
    # headers
    "header_only": "n 5\n",
    "header_only_no_newline": "n 5",
    "empty": "",
    "only_comments": "# nothing\n\n",
    "no_header": "0 1\n",
    "bad_count": "n x\n",
    "zero_count": "n 0\n",
    "header_three_tokens": "n 3 4\n",
    "bom": "\ufeffn 3\n0 1\n",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_loader_matches_line_loader(name, tmp_path, monkeypatch):
    _check(tmp_path, monkeypatch, CASES[name].encode("utf-8"))


def test_representative_outcomes(tmp_path, monkeypatch):
    # A few of the cases above, pinned, so the oracle itself is checked too.
    def outcome(name):
        return _check(tmp_path, monkeypatch, CASES[name].encode("utf-8"))

    assert outcome("plus_zero_pad")[:2] == (4, 3)
    assert outcome("names")[3] == [("alice", 0), ("bob", 1), ("carol", 2)]
    assert outcome("spellings_as_labels")[3] == [("01", 0), ("1", 1), ("x", 2), ("2", 3)]
    assert outcome("digit_limit")[3][0] == ("0" * 5000 + "1", 0)
    assert outcome("self_loop") == (ValidationError, "self-loop at vertex 2")
    assert outcome("self_loop_then_bad_line") == (ValidationError, "bad edge line: '0 1 2'")
    assert outcome("too_many_then_bad_line") == (ValidationError, "bad edge line: '0 1 2'")
    assert outcome("spellings_too_many") == (ValidationError, "more labels than declared vertices")
    assert outcome("header_only")[:3] == (5, 0, [[]] * 5)


@pytest.mark.parametrize("where", ["header", "first_line", "late"])
def test_non_utf8_bytes_are_reported_first(where, tmp_path, monkeypatch):
    # The former loader decoded the whole file before reading any line, so a
    # bad byte anywhere wins over a bad header or line before it.  Files past
    # the decoder's 8 KiB chunks check that the reported position matches.
    body = b"".join(b"%d %d\n" % (i % 50, (i + 1) % 50) for i in range(3000))
    bad = b"\xff\xfe"
    files = {
        "header": [bad + b"n 50\n" + body],
        "first_line": [b"n 50\n" + bad + b" 1\n" + body, b"n 50\n0 1 2\n" + bad + body],
        "late": [b"n 50\n" + body + bad + b"\n",
                 b"n 50\n" + body + b"3\n" + body + bad,
                 b"n x\n" + body + bad,
                 b"n 50\n1 1\n" + body + body[:9001] + bad + body,
                 b"n 2\na b\nb c\n" + body + bad],
    }
    for data in files[where]:
        want = _check(tmp_path, monkeypatch, data)
        assert want[0] is ValidationError and "not UTF-8 text" in want[1]


def test_random_files_match_line_loader(tmp_path, monkeypatch):
    rng = random.Random(1207)
    tokens = ["0", "1", "2", "3", "4", "5", "+1", "01", "-1", "7", "a", "b", ARABIC_THREE, "1_0"]
    gaps = [" ", "  ", "\t", NBSP, " \t "]
    ends = ["\n", "\r\n", "\r"]
    for k in range(150):
        n = rng.randint(1, 6)
        lines = [rng.choice(["", "# c", " "]) for _ in range(rng.randint(0, 2))] + [f"n {n}"]
        plain = rng.random() < 0.5  # half the files use only in-range digits
        for _ in range(rng.randint(0, 12)):
            pick = [str(rng.randrange(n)) for _ in range(2)] if plain else rng.choices(tokens, k=2)
            if rng.random() < 0.05:
                pick = pick[: rng.choice([1, 3])] + ["2"]
            line = rng.choice(gaps).join(pick)
            if rng.random() < 0.2:
                line += rng.choice(["#x", " # y", "#"])
            lines.append(line)
            if rng.random() < 0.2:
                lines.append(rng.choice(["", "#", "  # z"]))
        text = rng.choice(ends).join(lines) + rng.choice(["", "\n"])
        _check(tmp_path, monkeypatch, text.encode("utf-8"), name=f"r{k}.txt")


def test_digit_limit_follows_the_interpreter(tmp_path, monkeypatch):
    # numpy reads zero-padded integers of any length; int() refuses more
    # digits than the interpreter's limit, which makes such a token a label.
    token = "0" * 700 + "1"
    data = f"n 4\n{token} 2\n0 1\n".encode()
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert _check(tmp_path, monkeypatch, data)[3][0] == (token, 0)
        sys.set_int_max_str_digits(0)
        assert _check(tmp_path, monkeypatch, data)[3][0] == ("0", 0)
    finally:
        sys.set_int_max_str_digits(old)


def test_large_dense_file_matches_line_loader(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    n = 300
    edges = rng.integers(0, n, size=(4000, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    path_name = tmp_path / "big.txt"
    np.savetxt(path_name, edges, fmt="%d", header=f"n {n}", comments="")
    want = _outcome(oracle_load, str(path_name))
    for size in (7, 1000, graphs.LOAD_BLOCK_LINES):
        monkeypatch.setattr(graphs, "LOAD_BLOCK_LINES", size)
        assert _outcome(load_edge_list, str(path_name)) == want


def test_second_pass_only_when_numpy_refuses(tmp_path, monkeypatch):
    calls = []
    second = graphs._load_by_lines
    monkeypatch.setattr(graphs, "_load_by_lines", lambda p: calls.append(p) or second(p))
    for name in ("comments", "crlf", "tabs_nbsp", "plus_zero_pad", "self_loop", "duplicates",
                 "header_only", "comment_blocks_at_end"):
        _check(tmp_path, monkeypatch, CASES[name].encode("utf-8"))
        assert calls == [], name
    for name in ("names", "underscore", "arabic_indic", "out_of_range", "three_tokens", "digit_limit"):
        _check(tmp_path, monkeypatch, CASES[name].encode("utf-8"))
        assert len(calls) == len(BLOCK_SIZES), name
        calls.clear()

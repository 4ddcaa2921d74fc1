"""The line reader: universal newlines only, and a digest of exactly the
bytes it read. The writers create the parents of their path."""

import hashlib

import pytest

from cxrgen.errors import IntegrityError
from cxrgen.files import read_lines, write_json, write_json_lines, write_lines


def test_digest_is_taken_of_the_bytes_read(tmp_path):
    """Mixed line endings and multi-byte characters over many buffer-sized
    chunks: the lines are those of universal newlines, and the digest is the
    file's."""
    lines = [f"line {i} é ü {'x' * (i % 97)}" for i in range(3000)]
    endings = ["\n", "\r\n", "\r"]
    raw = "".join(line + endings[i % 3] for i, line in enumerate(lines)).encode()
    path = tmp_path / "mixed.txt"
    path.write_bytes(raw)
    digest = hashlib.sha256()
    assert list(read_lines(path, digest)) == [line + "\n" for line in lines]
    assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()
    assert list(read_lines(path)) == [line + "\n" for line in lines]


def test_bytes_that_are_not_utf8_are_an_integrity_error_with_a_digest(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(IntegrityError, match="is not UTF-8 text"):
        list(read_lines(path, hashlib.sha256()))


@pytest.mark.parametrize("write, payload, text", [
    (write_lines, ["a", "b"], "a\nb\n"),
    (write_json, {"a": 1}, '{\n  "a": 1\n}\n'),
    (write_json_lines, [{"a": 1}, {"b": 2}], '{"a": 1}\n{"b": 2}\n'),
], ids=["lines", "json", "json-lines"])
def test_writers_create_the_parent_directories(tmp_path, write, payload, text):
    path = tmp_path / "missing" / "dir" / "out"
    write(path, payload)
    assert path.read_text(encoding="utf-8") == text
    write(path, payload)   # the directories exist now
    assert path.read_text(encoding="utf-8") == text

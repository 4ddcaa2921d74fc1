r"""How the commands read and write their JSON and text files.

Text is UTF-8: bytes that are not raise ``IntegrityError`` naming the file.
A text file of lines ends each line, the last included, with a newline. A
JSON file holds one object, written with two-space indentation and a final
newline; a JSON-lines file holds one object per line, each in
``json.dumps``'s default layout. Lines end at ``\n``, ``\r\n`` or ``\r``
only (universal newlines), so other line separators such as U+2028 stay
inside a line, where ``str.split`` takes them for whitespace. A writer
creates the missing parent directories of its path. A path that cannot be
opened raises its ``OSError`` unchanged; the command line reports it as a
usage error.

A reader given a ``hashlib`` object ``digest`` adds to it the bytes it reads,
so that once the file is read to the end it holds the digest of what was
parsed, with no second read.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from .errors import IntegrityError


class _HashingReader(io.BufferedReader):
    """A buffered binary file that adds each chunk it reads to ``digest``."""

    def __init__(self, raw, digest):
        super().__init__(raw)
        self.digest = digest

    def read1(self, size=-1) -> bytes:   # what a text wrapper reads its chunks with
        chunk = super().read1(size)
        self.digest.update(chunk)
        return chunk


def read_lines(path, digest=None):
    """The lines of the UTF-8 text file at ``path``, newlines kept, read one
    at a time so that a large file streams."""
    raw = open(path, "rb", buffering=0)
    buffered = io.BufferedReader(raw) if digest is None else _HashingReader(raw, digest)
    with io.TextIOWrapper(buffered, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise IntegrityError(f"{path} is not UTF-8 text: {exc}") from None


def read_text(path, digest) -> str:
    return "".join(read_lines(path, digest))


def read_json_object(path, error, digest) -> dict:
    """The JSON object in the file at ``path``, its bytes added to ``digest``
    unless it is None. Malformed JSON, or a value that is not an object,
    raises ``error`` naming the path."""
    try:
        payload = json.loads(read_text(path, digest))
    except (json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
        raise error(f"{path} is malformed JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise error(f"{path} is not a JSON object")
    return payload


def _open_for_writing(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def write_lines(path, lines) -> None:
    with _open_for_writing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload, sort_keys: bool = False) -> None:
    with _open_for_writing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_json_lines(path, records) -> None:
    with _open_for_writing(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def append_json_line(path, record) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

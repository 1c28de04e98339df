"""A from-scratch, recursive-descent XML 1.0 parser (well-formed subset).

Two processing models are built over the same scanner, mirroring the two
models taught in CSE445 Unit 4:

* :func:`parse` / :func:`parse_document` — DOM model: build a
  :class:`~repro.xmlkit.dom.Document` tree.
* :func:`parse_events` — pull/streaming model yielding events; the SAX
  push API in :mod:`repro.xmlkit.sax` is layered on this.

Supported grammar: prolog with XML declaration, comments and processing
instructions; elements with attributes (single or double quoted); character
data; CDATA sections; the five predefined entities plus decimal/hex
character references. DTDs are tolerated (skipped), not interpreted.

Cost: parsing is linear in the input, and the scanning runs at C level.
Text runs, names, whitespace and DOCTYPE bodies are found with
``str.find`` or one compiled-pattern match, not walked per character in
Python, and line/column are kept with ``str.count``/``str.rfind`` over
each consumed span. References are expanded with a ``str.replace`` chain
when every ``&`` starts a predefined entity.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterator, Optional

from .dom import Comment, Document, Element, Node, ProcessingInstruction, Text

__all__ = [
    "XMLSyntaxError",
    "Event",
    "StartElement",
    "EndElement",
    "Characters",
    "CommentEvent",
    "PIEvent",
    "parse",
    "parse_document",
    "parse_events",
]


class XMLSyntaxError(ValueError):
    """Raised on malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


def _name_class(ascii_allowed: str) -> str:
    """A character class of ``ascii_allowed`` plus every code point above
    0x7F, spelled as "no other ASCII character": a negated ASCII class
    compiles to one small bitmap, where a range up to U+10FFFF makes
    ``re.compile`` walk 64K code points (~13 ms at import)."""
    others = "".join(chr(code) for code in range(0x80) if chr(code) not in ascii_allowed)
    return f"[^{re.escape(others)}]"


# An XML name: an ASCII letter, ':' or '_', then ASCII letters, digits and
# ':_-.'; any code point above 0x7F is accepted in either position.
_NAME = re.compile(
    _name_class(string.ascii_letters + ":_")
    + _name_class(string.ascii_letters + string.digits + ":_-.")
    + "*"
)
_WHITESPACE = re.compile(r"[ \t\r\n]*")
_ANGLE = re.compile("[<>]")
# an '&' that does not start one of the five predefined entities
_NOT_PREDEFINED = re.compile("&(?!(?:lt|gt|amp|quot|apos);)")


# ---------------------------------------------------------------------------
# event types (pull model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    line: int
    column: int


@dataclass(frozen=True)
class StartElement(Event):
    tag: str
    attributes: dict[str, str]


@dataclass(frozen=True)
class EndElement(Event):
    tag: str


@dataclass(frozen=True)
class Characters(Event):
    data: str
    cdata: bool = False


@dataclass(frozen=True)
class CommentEvent(Event):
    data: str


@dataclass(frozen=True)
class PIEvent(Event):
    target: str
    data: str


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------


class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.line, self.column)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def advance(self, n: int = 1) -> None:
        start = self.pos
        end = min(start + n, len(self.text))
        newlines = self.text.count("\n", start, end)
        if newlines:
            self.line += newlines
            self.column = end - self.text.rfind("\n", start, end)
        else:
            self.column += end - start
        self.pos = end

    def expect(self, literal: str, what: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {what} ({literal!r})")
        self.advance(len(literal))

    def skip_whitespace(self) -> None:
        self.advance(_WHITESPACE.match(self.text, self.pos).end() - self.pos)

    def read_until(self, terminator: str, what: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end == -1:
            raise self.error(f"unterminated {what}")
        data = self.text[self.pos : end]
        self.advance(end + len(terminator) - self.pos)
        return data

    def read_name(self) -> str:
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error("expected XML name")
        self.advance(match.end() - self.pos)
        return match.group()


def _decode_references(raw: str, scanner: _Scanner) -> str:
    """Expand entity and character references in character/attribute data."""
    if "&" not in raw:
        return raw
    if _NOT_PREDEFINED.search(raw) is None:
        # every '&' starts a predefined entity; '&amp;' goes last so the
        # '&' it yields cannot start another reference
        return (
            raw.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", '"')
            .replace("&apos;", "'")
            .replace("&amp;", "&")
        )
    out: list[str] = []
    i = 0
    while True:
        amp = raw.find("&", i)
        if amp == -1:
            out.append(raw[i:])
            return "".join(out)
        out.append(raw[i:amp])
        end = raw.find(";", amp + 1)
        if end == -1:
            raise scanner.error("unterminated entity reference")
        name = raw[amp + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(_character_reference(name, name[2:], 16, scanner))
        elif name.startswith("#"):
            out.append(_character_reference(name, name[1:], 10, scanner))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};")
        i = end + 1


def _character_reference(name: str, digits: str, base: int, scanner: _Scanner) -> str:
    try:
        return chr(int(digits, base))
    except (ValueError, OverflowError):
        # OverflowError: a code point too large for chr() to take at all
        raise scanner.error(f"bad character reference &{name};") from None


def _read_attributes(scanner: _Scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        nxt = scanner.peek()
        if nxt in (">", "/", "?") or scanner.eof():
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=", "'=' after attribute name")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        value = scanner.read_until(quote, "attribute value")
        if "<" in value:
            raise scanner.error("'<' not allowed in attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = _decode_references(value, scanner)


# ---------------------------------------------------------------------------
# pull parser
# ---------------------------------------------------------------------------


def parse_events(text: str) -> Iterator[Event]:
    """Yield a stream of parse events for ``text`` (a full XML document).

    The stream is well-formedness checked: exactly one root element, all
    tags properly nested and matched.
    """
    scanner = _Scanner(text)
    scanner.skip_whitespace()
    if scanner.peek(5) == "<?xml":
        scanner.advance(5)
        scanner.read_until("?>", "XML declaration")
    stack: list[str] = []
    seen_root = False

    while not scanner.eof():
        line, column = scanner.line, scanner.column
        if scanner.peek() != "<":
            # character data
            end = scanner.text.find("<", scanner.pos)
            if end == -1:
                raw = scanner.text[scanner.pos :]
                scanner.advance(len(raw))
            else:
                raw = scanner.text[scanner.pos : end]
                scanner.advance(end - scanner.pos)
            if stack:
                yield Characters(line, column, _decode_references(raw, scanner))
            elif raw.strip():
                raise scanner.error("character data outside root element")
            continue

        if scanner.peek(4) == "<!--":
            scanner.advance(4)
            data = scanner.read_until("-->", "comment")
            if "--" in data:
                raise scanner.error("'--' not allowed inside comment")
            yield CommentEvent(line, column, data)
            continue
        if scanner.peek(9) == "<![CDATA[":
            if not stack:
                raise scanner.error("CDATA outside root element")
            scanner.advance(9)
            data = scanner.read_until("]]>", "CDATA section")
            yield Characters(line, column, data, cdata=True)
            continue
        if scanner.peek(2) == "<!":
            # DOCTYPE or other declaration: skip to the matching '>' (or eof)
            scanner.advance(2)
            end = len(scanner.text)
            depth = 0
            for angle in _ANGLE.finditer(scanner.text, scanner.pos):
                if angle.group() == "<":
                    depth += 1
                elif depth == 0:
                    end = angle.end()
                    break
                else:
                    depth -= 1
            scanner.advance(end - scanner.pos)
            continue
        if scanner.peek(2) == "<?":
            scanner.advance(2)
            target = scanner.read_name()
            body = scanner.read_until("?>", "processing instruction").strip()
            yield PIEvent(line, column, target, body)
            continue
        if scanner.peek(2) == "</":
            scanner.advance(2)
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect(">", "'>' closing end tag")
            if not stack:
                raise scanner.error(f"unexpected end tag </{name}>")
            expected = stack.pop()
            if expected != name:
                raise scanner.error(
                    f"mismatched end tag: expected </{expected}>, got </{name}>"
                )
            yield EndElement(line, column, name)
            continue

        # start tag
        scanner.advance()  # consume '<'
        name = scanner.read_name()
        attributes = _read_attributes(scanner)
        if scanner.peek(2) == "/>":
            scanner.advance(2)
            if seen_root and not stack:
                raise scanner.error("multiple root elements")
            seen_root = True
            yield StartElement(line, column, name, attributes)
            yield EndElement(line, column, name)
            continue
        scanner.expect(">", "'>' closing start tag")
        if seen_root and not stack:
            raise scanner.error("multiple root elements")
        seen_root = True
        stack.append(name)
        yield StartElement(line, column, name, attributes)

    if stack:
        raise scanner.error(f"unclosed element <{stack[-1]}>")
    if not seen_root:
        raise scanner.error("no root element")


# ---------------------------------------------------------------------------
# DOM parser
# ---------------------------------------------------------------------------


def parse_document(text: str) -> Document:
    """Parse ``text`` into a :class:`~repro.xmlkit.dom.Document`."""
    declaration: Optional[dict[str, str]] = None
    stripped = text.lstrip()
    if stripped.startswith("<?xml"):
        decl_scanner = _Scanner(stripped[5:])
        declaration = _read_attributes(decl_scanner)

    prolog: list[Node] = []
    root: Optional[Element] = None
    stack: list[Element] = []
    pending_text: list[str] = []

    def flush_text() -> None:
        if pending_text and stack:
            data = "".join(pending_text)
            if data:
                stack[-1].append(Text(data))
        pending_text.clear()

    for event in parse_events(text):
        if isinstance(event, StartElement):
            flush_text()
            element = Element(event.tag, event.attributes)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            stack.append(element)
        elif isinstance(event, EndElement):
            flush_text()
            stack.pop()
        elif isinstance(event, Characters):
            pending_text.append(event.data)
        elif isinstance(event, CommentEvent):
            flush_text()
            node = Comment(event.data)
            if stack:
                stack[-1].append(node)
            else:
                prolog.append(node)
        elif isinstance(event, PIEvent):
            flush_text()
            node = ProcessingInstruction(event.target, event.data)
            if stack:
                stack[-1].append(node)
            else:
                prolog.append(node)

    assert root is not None  # parse_events guarantees a root element
    # prolog nodes that arrived after the root close are dropped into prolog
    return Document(root, declaration, prolog)


def parse(text: str) -> Element:
    """Parse ``text`` and return the root :class:`Element`."""
    return parse_document(text).root

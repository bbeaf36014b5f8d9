"""The positional XML parser: expat events into a columnar token stream.

The TReX data model needs *token positions assigned during parsing*:
each open tag, each indexable token, and each close tag consumes one
position, in document order (see :mod:`repro.corpus.document`).  The
stdlib's C parser, :mod:`xml.parsers.expat`, does the lexing; its
start / end / character-data callbacks assign the positions, and each
text run between two tags is tokenized in one :meth:`Tokenizer.terms`
call.

Accepted (the XML 1.0 well-formed documents expat reads):

* elements with attributes (single- or double-quoted; whitespace in
  values normalized as XML prescribes), self-closing tags, non-ASCII
  names;
* character data with the five predefined entities plus decimal and
  hexadecimal character references;
* CDATA sections, taken verbatim (no entity decoding inside);
* comments and processing instructions, which break tokens in content;
* an XML declaration (only at the very start), and a ``<!DOCTYPE``
  (upper case, as XML requires) whose internal subset declares no
  entity.

Rejected with :class:`~repro.errors.XMLParseError` (line, column):
malformed markup, mismatched or unclosed tags, trailing content, and
every entity that is not predefined — a DTD declaration, an undeclared
reference or a skipped one — so no input ever expands an entity.
"""

from __future__ import annotations

from array import array
from xml.parsers.expat import ErrorString, ExpatError, ParserCreate

from ..errors import XMLParseError
from .document import Document, XMLNode
from .tokenizer import Tokenizer

__all__ = ["XMLParser", "parse_document", "parse_xml"]


class XMLParser:
    """Parses XML text into positional :class:`Document` objects."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        #: Tag and attribute names, shared by every document parsed.
        self._names: dict[str, str] = {}

    def parse(self, text: str, docid: int = 0) -> Document:
        """Parse *text* and return a :class:`Document` with id *docid*."""
        expat = ParserCreate(intern=self._names)
        expat.buffer_text = True
        expat.specified_attributes = True
        terms_of = self.tokenizer.terms
        terms: list[str] = []
        positions = array("q")
        open_nodes: list[XMLNode] = []
        pending: list[str] = []
        position = 0
        root: XMLNode | None = None

        def flush() -> None:
            # The text run since the last tag: its surviving tokens take
            # the next positions.
            nonlocal position
            found = terms_of("".join(pending))
            pending.clear()
            terms.extend(found)
            positions.extend(range(position, position + len(found)))
            position += len(found)

        def start(tag: str, attributes: dict[str, str]) -> None:
            nonlocal position
            if pending:
                flush()
            node = XMLNode(tag, attributes)
            node.start_pos = position
            position += 1
            if open_nodes:
                open_nodes[-1].append(node)
            open_nodes.append(node)

        def end(tag: str) -> None:
            nonlocal position, root
            if pending:
                flush()
            root = open_nodes.pop()  # the last one closed is the root
            root.end_pos = position
            position += 1

        def break_tokens(*_: object) -> None:
            # Comments and processing instructions separate words.
            pending.append(" ")

        def reject_entity(name: str, *_: object) -> None:
            raise XMLParseError(f"entity {name!r} is not supported "
                                "(only the predefined entities are)",
                                expat.CurrentLineNumber,
                                expat.CurrentColumnNumber + 1)

        expat.StartElementHandler = start
        expat.EndElementHandler = end
        expat.CharacterDataHandler = pending.append
        expat.CommentHandler = break_tokens
        expat.ProcessingInstructionHandler = break_tokens
        expat.EntityDeclHandler = reject_entity
        expat.SkippedEntityHandler = reject_entity
        try:
            expat.Parse(text, True)
        except ExpatError as err:
            raise XMLParseError(ErrorString(err.code), err.lineno,
                                err.offset + 1) from None
        return Document(docid=docid, root=root, terms=terms,
                        positions=positions, position_count=position)


def parse_document(text: str, docid: int = 0,
                   tokenizer: Tokenizer | None = None) -> Document:
    """Convenience wrapper: parse one document string."""
    return XMLParser(tokenizer).parse(text, docid)


def parse_xml(text: str) -> XMLNode:
    """Parse and return just the element tree (positions still assigned)."""
    return parse_document(text).root

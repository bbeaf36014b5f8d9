"""Loading collections from directories of XML files.

The synthetic generators cover the paper's experiments, but a real
deployment indexes documents from disk.  ``load_collection`` parses
every ``*.xml`` file of a directory (sorted, for stable docids) through
the positional parser, and ``dump_collection`` writes a generated
collection out as one file per document so the CLI round-trips.
"""

from __future__ import annotations

import os

from ..errors import TrexError
from .collection import Collection
from .document import Document, XMLNode
from .tokenizer import Tokenizer
from .xmlparser import XMLParser

__all__ = ["load_collection", "dump_collection", "node_to_xml"]


def load_collection(directory: str, tokenizer: Tokenizer | None = None,
                    name: str | None = None) -> Collection:
    """Parse every ``*.xml`` file under *directory* into a collection.

    Files are assigned docids in sorted filename order, so reloading a
    directory always produces identical ids.
    """
    if not os.path.isdir(directory):
        raise TrexError(f"not a directory: {directory}")
    files = sorted(entry for entry in os.listdir(directory)
                   if entry.endswith(".xml"))
    if not files:
        raise TrexError(f"no .xml files in {directory}")
    parser = XMLParser(tokenizer)
    collection = Collection(name=name or os.path.basename(directory.rstrip("/")))
    for docid, filename in enumerate(files):
        path = os.path.join(directory, filename)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            collection.add(parser.parse(text, docid))
        except TrexError as err:
            raise TrexError(f"{path}: {err}") from err
    return collection


#: Whitespace other than a space is a character reference, because the
#: parser normalizes literal tabs and newlines in a value to spaces.
_ATTRIBUTE_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                                    '"': "&quot;", "\t": "&#9;",
                                    "\n": "&#10;", "\r": "&#13;"})


def node_to_xml(node: XMLNode, texts: dict[int, list[str]] | None = None) -> str:
    """Serialize an element tree back to XML (structure + attributes).

    Token text is not retained by the node model (it lives in the
    document's token stream); pass *texts* mapping ``start_pos`` to the
    words to embed, as :func:`dump_collection` does.
    """
    parts = [f"<{node.tag}"]
    for key, value in node.attributes.items():
        parts.append(f' {key}="{value.translate(_ATTRIBUTE_ESCAPES)}"')
    parts.append(">")
    if texts is not None:
        own = texts.get(node.start_pos)
        if own:
            parts.append(" ".join(own))
    for child in node.children:
        parts.append(node_to_xml(child, texts))
    parts.append(f"</{node.tag}>")
    return "".join(parts)


def dump_collection(collection: Collection, directory: str) -> list[str]:
    """Write one ``doc-<id>.xml`` per document; returns the paths written.

    Tokens are re-attached to the deepest element containing them, so a
    reload produces the same terms inside the same elements (token
    *positions* may shift because the original inter-element text
    layout is not preserved — scores and structure are unaffected).
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    for document in collection:
        path = os.path.join(directory, f"doc-{document.docid:06d}.xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(node_to_xml(document.root, _owned_terms(document)))
        written.append(path)
    return written


def _owned_terms(document: Document) -> dict[int, list[str]]:
    """Each token's term under its innermost element's ``start_pos``:
    one pass merging the element extents (pre-order, so by start) with
    the position column."""
    texts: dict[int, list[str]] = {}
    nodes = document.elements()
    upcoming = next(nodes, None)
    open_nodes: list[XMLNode] = []
    for term, position in zip(document.terms, document.positions):
        while upcoming is not None and upcoming.start_pos < position:
            open_nodes.append(upcoming)
            upcoming = next(nodes, None)
        while open_nodes[-1].end_pos < position:
            open_nodes.pop()
        texts.setdefault(open_nodes[-1].start_pos, []).append(term)
    return texts

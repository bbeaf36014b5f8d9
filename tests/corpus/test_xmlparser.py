"""Tests for the positional XML parser."""

import os
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus import Tokenizer, XMLParser, parse_document, parse_xml
from repro.errors import XMLParseError


def tok():
    return Tokenizer(stopwords=())


class TestStructure:
    def test_single_element(self):
        root = parse_xml("<a></a>")
        assert root.tag == "a"
        assert root.children == []

    def test_self_closing(self):
        root = parse_xml("<a/>")
        assert root.tag == "a"
        assert root.length == 1

    def test_nested_elements(self):
        root = parse_xml("<a><b><c/></b><d/></a>")
        assert [c.tag for c in root.children] == ["b", "d"]
        assert root.children[0].children[0].tag == "c"

    def test_parent_links(self):
        root = parse_xml("<a><b/></a>")
        assert root.children[0].parent is root
        assert root.parent is None

    def test_attributes(self):
        root = parse_xml('<a x="1" y=\'two\'/>')
        assert root.attributes == {"x": "1", "y": "two"}

    def test_attribute_entities(self):
        root = parse_xml('<a t="a&amp;b"/>')
        assert root.attributes["t"] == "a&b"

    def test_label_path(self):
        root = parse_xml("<books><journal><article/></journal></books>")
        article = root.children[0].children[0]
        assert article.label_path() == ("books", "journal", "article")
        assert article.depth() == 2

    def test_prolog_comment_doctype_skipped(self):
        text = '<?xml version="1.0"?><!-- hi --><!DOCTYPE a><a/>'
        assert parse_xml(text).tag == "a"

    def test_comments_inside_content(self):
        doc = parse_document("<a>x <!-- skip me --> y</a>", tokenizer=tok())
        assert doc.terms == ["x", "y"]

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[x <b> y]]></a>", tokenizer=tok())
        assert doc.terms == ["x", "b", "y"]

    def test_processing_instruction_in_content(self):
        doc = parse_document("<a>x<?pi data?>y</a>", tokenizer=tok())
        assert doc.terms == ["x", "y"]


class TestErrors:
    def test_mismatched_tags(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a></b>")

    def test_unclosed_tag(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a><b></a>")

    def test_unterminated_document(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>text")

    def test_trailing_content(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a/><b/>")

    def test_unknown_entity(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&nbsp;</a>")

    def test_unquoted_attribute(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a x=1/>")

    def test_duplicate_attribute(self):
        with pytest.raises(XMLParseError):
            parse_xml('<a x="1" x="2"/>')

    def test_error_carries_location(self):
        try:
            parse_xml("<a>\n  <b></c>\n</a>")
        except XMLParseError as err:
            assert err.line == 2
        else:
            pytest.fail("expected XMLParseError")

    def test_not_xml_at_all(self):
        with pytest.raises(XMLParseError):
            parse_xml("just words")


class TestEntities:
    def test_predefined(self):
        doc = parse_document("<a>x &amp; y &lt;tag&gt;</a>", tokenizer=tok())
        assert doc.terms == ["x", "y", "tag"]

    def test_numeric_decimal_and_hex(self):
        doc = parse_document("<a>&#65;&#x42;</a>", tokenizer=tok())
        assert doc.terms == ["ab"]


class TestPositions:
    """The positional model: tags and tokens each consume one position."""

    def test_empty_element_positions(self):
        root = parse_xml("<a></a>")
        assert (root.start_pos, root.end_pos) == (0, 1)
        assert root.length == 1

    def test_tokens_strictly_inside(self):
        doc = parse_document("<a>one two</a>", tokenizer=tok())
        root = doc.root
        assert root.start_pos == 0
        assert list(doc.positions) == [1, 2]
        assert root.end_pos == 3
        for position in doc.positions:
            assert root.start_pos < position < root.end_pos

    def test_nested_positions(self):
        doc = parse_document("<a>x<b>y</b>z</a>", tokenizer=tok())
        a, b = doc.root, doc.root.children[0]
        # positions: <a>=0 x=1 <b>=2 y=3 </b>=4 z=5 </a>=6
        assert (a.start_pos, a.end_pos) == (0, 6)
        assert (b.start_pos, b.end_pos) == (2, 4)
        assert list(doc.positions) == [1, 3, 5]
        assert a.contains(b)
        assert not b.contains(a)

    def test_sibling_positions_disjoint(self):
        doc = parse_document("<a><b>x</b><c>y</c></a>", tokenizer=tok())
        b, c = doc.root.children
        assert b.end_pos < c.start_pos

    def test_position_count(self):
        doc = parse_document("<a>x<b>y</b>z</a>", tokenizer=tok())
        assert doc.position_count == 7

    def test_stopwords_consume_no_position(self):
        doc = parse_document("<a>the cat</a>", tokenizer=Tokenizer())
        assert doc.terms == ["cat"]
        assert doc.root.end_pos == 2  # <a>=0 cat=1 </a>=2

    def test_find_by_end(self):
        doc = parse_document("<a><b>x</b></a>", tokenizer=tok())
        b = doc.root.children[0]
        assert doc.find_by_end(b.end_pos) is b
        assert doc.find_by_end(999) is None

    def test_tokens_in_span(self):
        doc = parse_document("<a>x<b>y</b>z</a>", tokenizer=tok())
        b = doc.root.children[0]
        assert doc.terms_in_span(b.start_pos, b.end_pos) == ["y"]
        assert doc.token_span(b.start_pos, b.end_pos) == slice(1, 2)


class TestChangedBehaviour:
    """Inputs the hand-written parser this one replaced read differently:
    each behaviour is the XML 1.0 one, pinned so it does not drift."""

    def test_cdata_is_not_entity_decoded(self):
        doc = parse_document("<a><![CDATA[x &amp; y]]></a>", tokenizer=tok())
        assert doc.terms == ["x", "amp", "y"]

    def test_attribute_whitespace_is_normalized(self):
        assert parse_xml('<a t="1\n2\t3"/>').attributes == {"t": "1 2 3"}

    def test_lowercase_doctype_is_rejected(self):
        with pytest.raises(XMLParseError):
            parse_xml("<!doctype a><a/>")

    def test_whitespace_before_xml_declaration_is_rejected(self):
        with pytest.raises(XMLParseError):
            parse_xml(' <?xml version="1.0"?><a/>')

    def test_non_ascii_names_are_accepted(self):
        root = parse_xml('<s\u00e9c \u540d="v"><b/></s\u00e9c>')
        assert root.tag == "s\u00e9c"
        assert root.attributes == {"\u540d": "v"}


class TestEntitiesNeverExpand:
    def test_declared_entity_is_rejected(self):
        with pytest.raises(XMLParseError) as err:
            parse_xml('<!DOCTYPE a [<!ENTITY e "boom">]><a>&e;</a>')
        assert err.value.line == 1

    def test_unused_declaration_is_rejected(self):
        with pytest.raises(XMLParseError):
            parse_xml('<!DOCTYPE a [<!ENTITY % p "x">]><a/>')

    def test_skipped_entity_is_rejected(self):
        # With an external subset expat does not read, an undeclared
        # reference is skipped rather than an error: still refused.
        with pytest.raises(XMLParseError):
            parse_xml('<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>')

    def test_dtd_default_attributes_are_not_applied(self):
        text = '<!DOCTYPE a [<!ATTLIST a x CDATA "d">]><a/>'
        assert parse_xml(text).attributes == {}


EXAMPLES = int(os.environ.get("REPRO_XML_EXAMPLES", "60"))

_NAMES = ["a", "b", "sec", "p", "s\u00e9c", "\u540d"]
_WORDS = ["alpha", "Beta", "gamma", "x1", "caf\u00e9", "al&#112;ha",
          "g&#x61;mma", "&amp;", "&lt;b&gt;", "be&#x212A;ta", "&#65;B"]
_MARKUP = ["<!-- alpha beta -->", "<?pi gamma?>",
           "<![CDATA[alpha <b> &amp; beta]]>", "<![CDATA[]]>"]


@st.composite
def _attributes(draw):
    names = draw(st.lists(st.sampled_from(["x", "id", "\u540d"]),
                          max_size=2, unique=True))
    parts = []
    for name in names:
        quote, other = draw(st.sampled_from([("'", '"'), ('"', "'")]))
        pieces = ["v", " ", "\t", "\n", "&amp;", "&#65;", "&quot;", other]
        value = "".join(draw(st.lists(st.sampled_from(pieces), max_size=4)))
        parts.append(f" {name}={quote}{value}{quote}")
    return "".join(parts)


@st.composite
def xml_trees(draw, depth=0):
    """Random small XML documents: attributes in both quote styles,
    entity and character references, comments, processing
    instructions, CDATA and self-closing tags."""
    tag = draw(st.sampled_from(_NAMES))
    attributes = draw(_attributes())
    n_children = 0 if depth >= 3 else draw(st.integers(0, 3))
    if not n_children and draw(st.booleans()):
        return f"<{tag}{attributes}/>"
    items = draw(st.lists(st.sampled_from(_WORDS + _MARKUP), max_size=5))
    items += [draw(xml_trees(depth=depth + 1)) for _ in range(n_children)]
    items = draw(st.permutations(items))
    gaps = draw(st.lists(st.sampled_from(["", " ", "\n"]),
                         min_size=len(items), max_size=len(items)))
    inner = "".join(gap + item for gap, item in zip(gaps, items))
    return f"<{tag}{attributes}>{inner}</{tag}>"


@st.composite
def xml_documents(draw):
    """A tree, sometimes behind a prolog and followed by misc items."""
    prolog = draw(st.lists(st.sampled_from(
        ["<!-- c -->", "<?pi d?>", "\n"]), max_size=2))
    if draw(st.booleans()):
        prolog.insert(0, '<?xml version="1.0"?>')
    if draw(st.booleans()):
        prolog.append("<!DOCTYPE a>")
    epilog = draw(st.lists(st.sampled_from(["<!-- c -->", "<?pi d?>", " "]),
                           max_size=2))
    return "".join(prolog) + draw(xml_trees()) + "".join(epilog)


_ORACLE_TOKEN = re.compile(r"[0-9a-zA-Z]+")


def etree_oracle(text):
    """Extents and term columns derived from ``xml.etree``: each tag and
    each alphanumeric run of a text piece takes the next position, and
    comments and processing instructions end a piece."""
    builder = ET.TreeBuilder(insert_comments=True, insert_pis=True)
    parser = ET.XMLParser(target=builder)
    parser.feed(text)
    extents, terms, positions = [], [], []
    position = 0

    def piece(text):
        nonlocal position
        for word in _ORACLE_TOKEN.findall(text or ""):
            terms.append(word.lower())
            positions.append(position)
            position += 1

    def walk(element):
        nonlocal position
        extent = [element.tag, position, None, dict(element.attrib)]
        extents.append(extent)
        position += 1
        piece(element.text)
        for child in element:
            if isinstance(child.tag, str):
                walk(child)
            piece(child.tail)
        extent[2] = position
        position += 1

    walk(parser.close())
    return extents, terms, positions


class TestPropertyBased:
    @given(xml_documents())
    @example("<a>x<!--c-->y<?p d?>z<![CDATA[w]]>v<b/>u</a>")
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_matches_the_etree_oracle(self, text):
        doc = parse_document(text, tokenizer=tok())
        extents, terms, positions = etree_oracle(text)
        assert [[n.tag, n.start_pos, n.end_pos, n.attributes]
                for n in doc.elements()] == extents
        assert doc.terms == terms
        assert list(doc.positions) == positions
        assert doc.position_count == 2 * len(extents) + len(terms)

    @given(xml_documents())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_positions_well_nested(self, text):
        doc = parse_document(text, tokenizer=tok())
        nodes = list(doc.elements())
        for node in nodes:
            assert node.start_pos < node.end_pos
            if node.parent is not None:
                assert node.parent.contains(node)
        # all assigned positions are distinct
        positions = [n.start_pos for n in nodes] + [n.end_pos for n in nodes]
        positions += list(doc.positions)
        assert len(positions) == len(set(positions))
        assert sorted(positions) == list(range(doc.position_count))

    @given(xml_documents())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_token_count_matches_text(self, text):
        doc = parse_document(text, tokenizer=tok())
        builder = ET.TreeBuilder(insert_comments=True, insert_pis=True)
        root = ET.fromstring(text, ET.XMLParser(target=builder))
        pieces = [node.text for node in root.iter()
                  if isinstance(node.tag, str)]
        pieces += [node.tail for node in root.iter() if node is not root]
        raw_words = _ORACLE_TOKEN.findall(" ".join(filter(None, pieces)))
        assert len(doc.terms) == len(raw_words)

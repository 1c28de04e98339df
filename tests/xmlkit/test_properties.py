"""Property-based tests (hypothesis) for the XML stack invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.xmlkit import (
    Element,
    ElementCounter,
    dumps,
    escape_attribute,
    escape_text,
    loads,
    parse,
    parse_events,
    sax_parse,
)
from repro.xmlkit.parser import StartElement

# -- strategies ---------------------------------------------------------------

tag_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,10}", fullmatch=True)

# XML 1.0 valid chars, avoiding control chars and surrogates
text_data = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Z"),
        include_characters=" \t\n<>&\"'",
    ),
    max_size=40,
)

attr_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,8}", fullmatch=True)


@st.composite
def elements(draw, depth=3):
    tag = draw(tag_names)
    n_attrs = draw(st.integers(0, 3))
    attrs = {}
    for _ in range(n_attrs):
        attrs[draw(attr_names)] = draw(text_data)
    element = Element(tag, attrs)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                element.append(draw(elements(depth=depth - 1)))
            else:
                element.append(draw(text_data))
    else:
        maybe_text = draw(st.one_of(st.none(), text_data))
        if maybe_text:
            element.append(maybe_text)
    return element


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(string.ascii_letters, min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


# -- properties ---------------------------------------------------------------


@given(elements())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(element):
    """toxml() of a normalized tree always reparses structurally equal."""
    element.normalize()
    reparsed = parse(element.toxml())
    assert element.equals(reparsed)


@given(text_data)
@settings(max_examples=100, deadline=None)
def test_text_escaping_round_trip(data):
    e = Element("t")
    e.append(data)
    assert parse(e.toxml()).text == data


@given(text_data)
@settings(max_examples=100, deadline=None)
def test_attribute_escaping_round_trip(data):
    e = Element("t", {"v": data})
    assert parse(e.toxml())["v"] == data


@given(elements())
@settings(max_examples=40, deadline=None)
def test_sax_dom_agree_on_element_count(element):
    """SAX counter over serialized output matches DOM traversal count."""
    counter = ElementCounter()
    sax_parse(element.toxml(), counter)
    dom_count = sum(1 for _ in element.iter())
    assert counter.total() == dom_count


@given(elements())
@settings(max_examples=40, deadline=None)
def test_pretty_print_preserves_structure(element):
    element.normalize()
    pretty = element.topretty()
    assert parse(pretty).equals(element, ignore_whitespace=True) or element.equals(
        parse(pretty), ignore_whitespace=True
    )


@given(json_values)
@settings(max_examples=80, deadline=None)
def test_databind_round_trip(value):
    """dumps/loads is lossless for the supported value universe."""
    assert loads(dumps("root", value)) == value


@given(text_data)
def test_escape_text_never_emits_raw_specials(data):
    escaped = escape_text(data)
    assert "<" not in escaped.replace("&lt;", "")
    # all ampersands must start entities we produced
    rest = escaped
    for ent in ("&amp;", "&lt;", "&gt;"):
        rest = rest.replace(ent, "")
    assert "&" not in rest


@given(text_data)
def test_escape_attribute_never_emits_quote(data):
    escaped = escape_attribute(data)
    rest = escaped
    for ent in ("&amp;", "&lt;", "&gt;", "&quot;", "&apos;"):
        rest = rest.replace(ent, "")
    assert '"' not in rest


@given(elements())
@settings(max_examples=40, deadline=None)
def test_xpath_descendant_matches_iter(element):
    """//tag selects exactly the DOM-traversal descendants, in order."""
    from repro.xmlkit import select

    element.normalize()
    tags = {e.tag for e in element.iter()}
    for tag in list(tags)[:3]:
        via_xpath = select(element, f"//{tag}")
        via_iter = [e for e in element.iter(tag)]
        assert via_xpath == via_iter


@given(elements())
@settings(max_examples=40, deadline=None)
def test_xpath_wildcard_children(element):
    """'*' selects exactly the direct child elements."""
    from repro.xmlkit import select

    assert select(element, "*") == list(element.elements())


@given(elements())
@settings(max_examples=30, deadline=None)
def test_xpath_parent_inverts_child(element):
    """For every child reached by '*', '..' climbs back to the element."""
    from repro.xmlkit import select

    for child in select(element, "*"):
        parents = select(child, "..")
        assert parents == [element]


# -- positions ------------------------------------------------------------------

position_names = st.sampled_from(["a", "b-1", "ns:item", "_x.y", "é", "名前", "Δx"])
separators = st.sampled_from([" ", "\n", "\r\n", "\t", " \r\n\t "])
# entity-laden character data, with line breaks; legal in text and in a
# double-quoted attribute value alike
fragment_text = st.lists(
    st.sampled_from(
        ["word", " ", "\n", "\r\n", "\t", "ü", "&lt;", "&amp;", "&gt;&quot;'", "&#65;", "&#x4E2D;"]
    ),
    max_size=6,
).map("".join)
misc_nodes = st.sampled_from(
    ["<!-- note\r\n  more -->", "<![CDATA[x\n<&>\r\n]]>", "<?pi data\n?>", "<!---->"]
)
equals_signs = st.sampled_from(["=", " = ", "\n=\t"])
tag_ends = st.sampled_from(["", " ", "\r\n"])
prologs = st.sampled_from(
    [
        "",
        "\n\t",
        '<?xml version="1.0"?>\r\n',
        "<!-- prolog\nline -->\n",
        "<!DOCTYPE r [\n<!ELEMENT r ANY>\n]>\n",
    ]
)


@st.composite
def positioned_documents(draw):
    """A multi-line document and the offset of each start tag in it."""
    pieces: list[str] = [draw(prologs)]
    offsets: list[int] = []
    length = len(pieces[0])

    def emit(fragment, start_tag=False):
        nonlocal length
        if start_tag:
            offsets.append(length)
        pieces.append(fragment)
        length += len(fragment)

    def element(depth):
        name = draw(position_names)
        attributes = "".join(
            f'{draw(separators)}k{index}{draw(equals_signs)}"{draw(fragment_text)}"'
            for index in range(draw(st.integers(0, 2)))
        )
        space = draw(tag_ends)
        if depth == 0 or draw(st.integers(0, 4)) == 0:
            emit(f"<{name}{attributes}{space}/>", start_tag=True)
            return
        emit(f"<{name}{attributes}{space}>", start_tag=True)
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.integers(0, 2))
            if kind == 0:
                element(depth - 1)
            elif kind == 1:
                emit(draw(fragment_text))
            else:
                emit(draw(misc_nodes))
        emit(f"</{name}{draw(tag_ends)}>")

    element(3)
    emit(draw(st.sampled_from(["", "\n", "\r\n \t"])))
    return "".join(pieces), offsets


@given(positioned_documents())
@settings(max_examples=150, deadline=None)
def test_start_element_positions_match_offsets(case):
    """Each StartElement's (line, column) is the 1-based position of its '<'."""
    text, offsets = case
    starts = [e for e in parse_events(text) if isinstance(e, StartElement)]
    expected = [
        (text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)) for off in offsets
    ]
    assert [(e.line, e.column) for e in starts] == expected

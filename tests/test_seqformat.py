import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docrec import seqformat
from docrec.model import (
    BoundingBox,
    Category,
    Document,
    DocumentValidationError,
    Element,
    FigureContent,
    FormulaContent,
    ParagraphContent,
    TableCell,
    TableContent,
    TextLine,
    validate_document,
)
from docrec.seqformat import (
    ParseError,
    ParseErrorKind,
    ScanError,
    TokenSequence,
    parse,
    render_tokens,
    scan_tokens,
    serialize,
)
from helpers import random_document


def _figure_doc():
    return Document(
        1000.0,
        1000.0,
        (Element(Category.FIGURE, BoundingBox(0, 0, 1000, 1000), FigureContent()),),
    )


def test_serialize_single_figure():
    seq = serialize(_figure_doc(), bins=1000)
    assert seq.tokens == ("<Figure>", 0, 0, 999, 999, "<Sep>")


def test_serialize_empty_document():
    assert len(serialize(Document(100.0, 100.0, ()))) == 0


def _two_line_paragraph():
    return Document(
        1000.0,
        1000.0,
        (
            Element(
                Category.PARAGRAPH,
                BoundingBox(0, 0, 500, 200),
                ParagraphContent(
                    (
                        TextLine(BoundingBox(0, 0, 500, 100), "ab"),
                        TextLine(BoundingBox(0, 100, 500, 200), "cd"),
                    )
                ),
            ),
        ),
    )


def test_serialize_paragraph_line_separator():
    seq = serialize(_two_line_paragraph())
    tokens = list(seq.tokens)
    seps = [i for i, t in enumerate(tokens) if t == "<\\n>"]
    assert len(seps) == 1
    # category + quartet + (quartet + 2 chars) + linesep + (quartet + 2 chars) + sep
    assert len(tokens) == 1 + 4 + 6 + 1 + 6 + 1
    assert seps[0] == 1 + 4 + 6
    assert tokens[-1] == "<Sep>"


def test_serialize_requires_valid_document():
    doc = Document(
        100.0,
        100.0,
        (Element(Category.FIGURE, BoundingBox(50, 0, 10, 10), FigureContent()),),
    )
    with pytest.raises(DocumentValidationError) as err:
        serialize(doc)
    assert err.value.violations


def test_sep_count_equals_element_count():
    rng = random.Random(5)
    for _ in range(30):
        doc = random_document(rng, 0, 6)
        seq = serialize(doc)
        assert seq.tokens.count("<Sep>") == len(doc.elements)


def _structure(doc):
    """Quantization-independent skeleton of a document."""
    out = []
    for el in doc.elements:
        if isinstance(el.content, ParagraphContent):
            detail = tuple(l.text for l in el.content.lines)
        elif isinstance(el.content, TableContent):
            detail = tuple(
                tuple((c.rowspan, c.colspan, c.text) for c in row)
                for row in el.content.rows
            )
        elif isinstance(el.content, FormulaContent):
            detail = el.content.latex
        else:
            detail = None
        out.append((el.category, detail))
    return out


def _boxes(doc):
    out = []
    for el in doc.elements:
        out.append(el.bbox)
        if isinstance(el.content, ParagraphContent):
            out.extend(l.bbox for l in el.content.lines)
        elif isinstance(el.content, TableContent):
            out.extend(c.bbox for row in el.content.rows for c in row)
    return out


def test_round_trip_document():
    rng = random.Random(11)
    for _ in range(100):
        doc = random_document(rng, 0, 6, tricky_text=True)
        bins = rng.choice((100, 1000, 1024))
        seq = serialize(doc, bins=bins)
        back = parse(seq, doc.page_width, doc.page_height)
        assert _structure(back) == _structure(doc)
        for a, b in zip(_boxes(back), _boxes(doc)):
            assert abs(a.x_min - b.x_min) <= doc.page_width / bins
            assert abs(a.x_max - b.x_max) <= doc.page_width / bins
            assert abs(a.y_min - b.y_min) <= doc.page_height / bins
            assert abs(a.y_max - b.y_max) <= doc.page_height / bins
        # Token-level round trip is exact.
        assert serialize(back, bins=bins) == seq


def test_parse_missing_category():
    seq = TokenSequence((0,))
    with pytest.raises(ParseError) as err:
        parse(seq, 100, 100)
    assert err.value.kind is ParseErrorKind.MISSING_CATEGORY
    assert err.value.offset == 0


def test_parse_truncated_quartet():
    seq = TokenSequence(("<Figure>", 1, 1))
    with pytest.raises(ParseError) as err:
        parse(seq, 100, 100)
    assert err.value.kind is ParseErrorKind.TRUNCATED_COORD_QUARTET
    assert err.value.offset == 3
    assert "expected Xmax coordinate, got end of sequence" in str(err.value)


def test_parse_unterminated_element():
    tokens = serialize(_figure_doc()).tokens[:-1]  # drop the final Sep
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens), 1000, 1000)
    assert err.value.kind is ParseErrorKind.UNTERMINATED_ELEMENT
    assert err.value.offset == len(tokens)


def _table_doc():
    return Document(
        1000.0,
        1000.0,
        (
            Element(
                Category.TABLE,
                BoundingBox(0, 0, 400, 200),
                TableContent(
                    ((TableCell(BoundingBox(0, 0, 200, 100), 1, 1, "x"),),)
                ),
            ),
        ),
    )


def test_parse_missing_td_close_is_malformed_table():
    seq = serialize(_table_doc())
    tokens = list(seq.tokens)
    drop = next(
        i for i, t in enumerate(tokens) if t == "</td>"
    )
    del tokens[drop]
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens), 1000, 1000)
    assert err.value.kind is ParseErrorKind.MALFORMED_TABLE_TAGS
    # The </tr> now sits where </td> was expected.
    assert err.value.offset == drop
    assert tokens[drop] == "</tr>"


@pytest.mark.parametrize(
    "close, message", [("/td", "table cell never closed"), ("/tr", "table row never closed")]
)
def test_parse_table_ending_inside_a_row(close, message):
    tokens = serialize(_table_doc()).tokens
    # Cut the sequence just before the cell's or the row's closing tag.
    cut = tokens.index(f"<{close}>")
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens[:cut]), 1000, 1000)
    assert err.value.kind is ParseErrorKind.UNTERMINATED_ELEMENT
    assert err.value.offset == cut
    assert message in str(err.value)


_CELL = ("<Table>", 0, 0, 1, 1, "<tr>", "<td>", 0, 0, 1, 1, "x")


@pytest.mark.parametrize(
    "tokens, message",
    [
        (_CELL, "UnterminatedElement at token 12: table cell never closed"),
        ((*_CELL, "</tr>"), "MalformedTableTags at token 12: expected </td>, got '</tr>'"),
        ((*_CELL, "</td>"), "UnterminatedElement at token 13: table row never closed"),
        (("<Figure>", 0, 0, 1, 1), "UnterminatedElement at token 5: element missing <Sep>"),
        (("<Formula>", 0, 0, 1, 1, "x", 3), "UnexpectedToken at token 6: expected <Sep>, got 3"),
        (("<Table>", 0, 0, 1, 1, "<tr>", "</tr>", "</td>"),
         "MalformedTableTags at token 7: expected <tr> or <Sep>, got '</td>'"),
    ],
)
def test_parse_closing_tag_messages_are_pinned(tokens, message):
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens, bins=10), 100, 100)
    assert str(err.value) == message


@pytest.mark.parametrize("width, height", [(math.nan, 100), (100, math.inf), (-math.inf, 100), (0, 100)])
def test_parse_rejects_a_page_size_that_is_not_positive_and_finite(width, height):
    # No coordinate token: only the page-size check can see the bad size.
    with pytest.raises(ValueError, match="page dimensions must be positive and finite"):
        parse(TokenSequence(()), width, height)


@pytest.mark.parametrize("bins", [1, 0, -2, 2.5, 2.0, True, None])
def test_parse_rejects_bins_that_are_not_an_int_of_at_least_two(bins):
    # No coordinate token: only a check made before any token is read can see it.
    with pytest.raises(ValueError, match="bins must be an int >= 2"):
        parse(TokenSequence((), bins=bins), 100, 100)


@pytest.mark.parametrize("bins", [1000.0, np.int64(10), True, 1])
@pytest.mark.parametrize("doc", [_figure_doc(), Document(1000.0, 1000.0, ())])
def test_serialize_refuses_bins_that_parse_refuses(doc, bins):
    with pytest.raises(ValueError, match="bins must be an int >= 2"):
        serialize(doc, bins=bins)


def test_serialize_and_parse_check_the_grid_once_per_call(monkeypatch):
    calls = []
    monkeypatch.setattr(seqformat, "check_grid", lambda bins: calls.append(bins))
    box = BoundingBox(1.5, 1.5, 2.5, 2.5)  # bin centres, so parse gives the page back
    doc = Document(100.0, 100.0, tuple(Element(Category.FIGURE, box, FigureContent()) for _ in range(50)))
    seq = serialize(doc, bins=100)
    assert parse(seq, 100.0, 100.0).elements == doc.elements
    assert calls == [100, 100]


def test_parse_stray_table_tag_in_paragraph():
    seq = serialize(_two_line_paragraph())
    tokens = list(seq.tokens)
    tokens.insert(len(tokens) - 1, "<tr>")
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens), 1000, 1000)
    assert err.value.kind is ParseErrorKind.UNEXPECTED_TOKEN


def test_parse_coord_out_of_range():
    tokens = ("<Figure>", 0, 1000, 10, 10, "<Sep>")
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens, bins=1000), 100, 100)
    assert err.value.kind is ParseErrorKind.COORD_OUT_OF_RANGE
    assert err.value.offset == 2


def test_parse_text_inside_figure_is_unexpected():
    tokens = list(serialize(_figure_doc()).tokens)
    tokens.insert(5, "!")
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens), 1000, 1000)
    assert err.value.kind is ParseErrorKind.UNEXPECTED_TOKEN
    assert err.value.offset == 5


@pytest.mark.parametrize(
    "tokens, kind, offset, got",
    [
        (("<Figure>", 0, 0, 1, 1, None, "<Sep>"), ParseErrorKind.UNEXPECTED_TOKEN, 5, "None"),
        (("<Paragraph>", 0, 0, 1, 1, 0, 0, 1, 1, "a", None, "<Sep>"),
         ParseErrorKind.UNEXPECTED_TOKEN, 10, "None"),
        (("<Table>", 0, 0, 1, 1, "<tr>", None, "</tr>", "<Sep>"),
         ParseErrorKind.MALFORMED_TABLE_TAGS, 6, "None"),
        (("<Figure>", 0, "3", 1, 1, "<Sep>"), ParseErrorKind.TRUNCATED_COORD_QUARTET, 2, "'3'"),
        (("<Figure>", 0, 3.0, 1, 1, "<Sep>"), ParseErrorKind.TRUNCATED_COORD_QUARTET, 2, "3.0"),
        (("<Figure>", 0, 10**5000, 1, 1, "<Sep>"), ParseErrorKind.COORD_OUT_OF_RANGE, 2,
         "a 16610-bit int"),
        (("Figure", 0, 0, 1, 1, "<Sep>"), ParseErrorKind.MISSING_CATEGORY, 0, "'Figure'"),
    ],
)
def test_parse_reports_a_value_that_is_no_token_at_its_own_offset(tokens, kind, offset, got):
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens, bins=10), 100, 100)
    assert (err.value.kind, err.value.offset) == (kind, offset)
    assert got in str(err.value)


def test_parse_allows_invalid_geometry():
    # min > max parses fine; geometry is validate_document's job.
    tokens = ("<Figure>", 50, 0, 10, 10, "<Sep>")
    doc = parse(TokenSequence(tokens, bins=100), 100, 100)
    assert doc.elements[0].bbox.x_min > doc.elements[0].bbox.x_max


#: Values that are no token: not an exact int or str, or a str that is
#: neither one character nor a tag.
_NON_TOKENS = (
    None, 1.5, True, b"<Sep>", "", "ab", "<th>", np.int64(3), np.array(["</td>", "<Sep>"]),
    10**5000,  # an int too long for str()
)

_FUZZ_POOL = (
    "<Paragraph>",
    "<Table>",
    "<Formula>",
    "<Figure>",
    3,
    7,
    90,
    2000,
    "a",
    "<",
    "<\\n>",
    "<Sep>",
    "<tr>",
    "</tr>",
    "<td>",
    '<td rowspan="2">',
    "</td>",
    *_NON_TOKENS,
)


def test_parse_total_on_fuzzed_streams():
    rng = random.Random(2024)
    for _ in range(500):
        tokens = tuple(rng.choice(_FUZZ_POOL) for _ in range(rng.randint(0, 30)))
        try:
            parse(TokenSequence(tokens, bins=1000), 500, 500)
        except ParseError:
            pass  # structured failure is the contract


def test_parse_total_on_mutated_serializations():
    rng = random.Random(77)
    for _ in range(200):
        doc = random_document(rng, 1, 4)
        tokens = list(serialize(doc).tokens)
        op = rng.choice(("drop", "dup", "insert", "swap"))
        if op == "drop" and tokens:
            del tokens[rng.randrange(len(tokens))]
        elif op == "dup" and tokens:
            i = rng.randrange(len(tokens))
            tokens.insert(i, tokens[i])
        elif op == "insert":
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(_FUZZ_POOL))
        elif len(tokens) > 1:
            i = rng.randrange(len(tokens) - 1)
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        try:
            parse(TokenSequence(tokens), doc.page_width, doc.page_height)
        except ParseError:
            pass


def test_render_single_figure():
    assert render_tokens(serialize(_figure_doc())) == "<Figure><0><0><999><999><Sep>"


def test_render_one_element_per_line():
    rng = random.Random(13)
    doc = random_document(rng, 3, 6)
    text = render_tokens(serialize(doc))
    # Escaped text never contains a raw newline, so lines == elements.
    assert len(text.split("\n")) == len(doc.elements)
    assert not text.endswith("\n")


def test_scan_render_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        doc = random_document(rng, 0, 5, tricky_text=True)
        seq = serialize(doc)
        assert scan_tokens(render_tokens(seq)) == seq


def test_render_escapes():
    seq = TokenSequence(("<", "\\", "\n", ">"))
    assert render_tokens(seq) == "\\<\\\\\\n>"
    assert scan_tokens(render_tokens(seq)) == seq


def test_render_pins_the_text_of_every_token_kind():
    cell = TableCell(BoundingBox(0, 20, 50, 60), 2, 3, "x")
    doc = Document(100.0, 100.0, (
        Element(Category.PARAGRAPH, BoundingBox(0, 0, 50, 20), ParagraphContent((
            TextLine(BoundingBox(0, 0, 50, 10), "a<b"),
            TextLine(BoundingBox(0, 10, 50, 20), "c\\d\ne"),
        ))),
        Element(Category.TABLE, BoundingBox(0, 20, 100, 60), TableContent((
            (cell, TableCell(BoundingBox(50, 20, 100, 60), 1, 1, "")),
        ))),
        Element(Category.FORMULA, BoundingBox(0, 60, 100, 80), FormulaContent("x<y")),
        Element(Category.FIGURE, BoundingBox(0, 80, 100, 100), FigureContent()),
    ))
    seq = serialize(doc, bins=10)
    text = render_tokens(seq)
    assert text == (
        '<Paragraph><0><0><5><2><0><0><5><1>a\\<b<\\n><0><1><5><2>c\\\\d\\ne<Sep>\n'
        '<Table><0><2><9><6><tr><td rowspan="2" colspan="3"><0><2><5><6>x</td>'
        '<td><5><2><9><6></td></tr><Sep>\n'
        '<Formula><0><6><9><8>x\\<y<Sep>\n'
        '<Figure><0><8><9><9><Sep>'
    )
    assert len(seq) == 59
    assert {type(tok) for tok in seq.tokens} == {int, str}
    assert parse(scan_tokens(text, bins=10), 100, 100) == parse(seq, 100, 100)


def test_scan_td_attributes():
    seq = scan_tokens('<td rowspan="2" colspan="3">')
    assert seq.tokens == ('<td rowspan="2" colspan="3">',)
    assert render_tokens(seq) == '<td rowspan="2" colspan="3">'


def test_scan_unknown_tag():
    with pytest.raises(ScanError) as err:
        scan_tokens("<Chart>")
    assert err.value.offset == 0
    with pytest.raises(ScanError) as err:
        scan_tokens("abc<Chart>")
    assert err.value.offset == 3


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("<1\n>", "<1>"),
        ("<0001>", "<1>"),
        ("<00>", "<0>"),
        ("<td\n>", "<td>"),
        ('<td rowspan="\u0662">', '<td rowspan="2">'),
    ],
)
def test_scan_rejects_non_canonical_tags(text, canonical):
    with pytest.raises(ScanError):
        scan_tokens(text)
    assert render_tokens(scan_tokens(canonical)) == canonical


#: Most digits int() and str() convert between: 4,300 unless the environment sets it.
_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("digits", [_LIMIT, _LIMIT + 1])
def test_scan_takes_numbers_of_at_most_the_int_digit_limit(digits):
    number = "9" * digits
    for tag, token in ((f"<{number}>", 10**digits - 1), (f'<td colspan="{number}">', None)):
        text = "ab" + tag
        if digits <= _LIMIT:
            assert scan_tokens(text).tokens == ("a", "b", token or tag)
            continue
        with pytest.raises(ScanError, match="unknown tag") as err:
            scan_tokens(text)
        assert err.value.offset == 2


@pytest.mark.parametrize("digits", [_LIMIT, _LIMIT + 1])
def test_parse_takes_spans_of_at_most_the_int_digit_limit(digits):
    tokens = ("<Table>", 0, 0, 1, 1, "<tr>", f'<td rowspan="{"9" * digits}">', 0, 0, 1, 1,
              "</td>", "</tr>", "<Sep>")
    if digits <= _LIMIT:
        cell = parse(TokenSequence(tokens, bins=10), 10, 10).elements[0].content.rows[0][0]
        assert cell.rowspan == 10**digits - 1
        return
    with pytest.raises(ParseError) as err:
        parse(TokenSequence(tokens, bins=10), 10, 10)
    assert err.value.kind is ParseErrorKind.MALFORMED_TABLE_TAGS
    assert err.value.offset == 6


@pytest.mark.parametrize("span", ["rowspan", "colspan"])
@pytest.mark.parametrize("digits", [_LIMIT, _LIMIT + 1])
def test_serialize_takes_spans_of_at_most_the_int_digit_limit(span, digits):
    spans = {"rowspan": 1, "colspan": 1, span: 10**digits - 1}
    cell = TableCell(BoundingBox(1, 1, 9, 9), text="x", **spans)
    doc = Document(10.0, 10.0, (Element(Category.TABLE, BoundingBox(0, 0, 10, 10), TableContent(((cell,),))),))
    if digits <= _LIMIT:
        assert validate_document(doc) == []
        assert f'<td {span}="{"9" * digits}">' in serialize(doc, bins=10).tokens
        return
    problem = f"element 0 cell 0,0: {span} has more than {_LIMIT} digits"
    assert validate_document(doc) == [problem]
    with pytest.raises(DocumentValidationError) as err:
        serialize(doc, bins=10)
    assert err.value.violations == [problem]


@pytest.mark.parametrize("digits", [_LIMIT, _LIMIT + 1])
def test_render_names_a_bin_past_the_int_digit_limit(digits):
    for bin_ in (10**digits - 1, -(10**digits - 1)):
        seq = TokenSequence(("<Figure>", 0, bin_))
        if digits <= _LIMIT:
            assert render_tokens(seq).endswith(f"<{bin_}>")
            continue
        with pytest.raises(ValueError, match=f"token 2: a bin of more than {_LIMIT} digits"):
            render_tokens(seq)


def test_scan_unterminated_tag_and_bad_escape():
    with pytest.raises(ScanError):
        scan_tokens("<Figure")
    with pytest.raises(ScanError):
        scan_tokens("ab\\q")
    with pytest.raises(ScanError):
        scan_tokens("ab\\")


#: Pieces of token text: whole and broken tags, escapes, raw newlines, non-ASCII text.
_FRAGMENTS = (
    "<Paragraph>", "<Table>", "<Formula>", "<Figure>", "<Sep>", "<\\n>",
    "<tr>", "</tr>", "<td>", "</td>", '<td rowspan="2" colspan="3">',
    "<0>", "<17>", "<007>", "<", ">", "Sep", "td",
    "\\", "\\\\", "\\<", "\\n", "\\q",
    "\n", "a", " ", "\r", "\u00e9", "\u4e2d", "\u2028",
)


@example("<Figure><0><0><9><9><Sep>\n<Formula><1><1><2><2>x\\<\\né<Sep>")
@example("a\nb")
@example("<Figure><0><0><9><9><Sep>\n")
@example("<Figure><0><0><9><9><Sep><Figure><0><0><9><9><Sep>")
@settings(max_examples=500)
@given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.characters())).map("".join))
def test_scanned_text_renders_back_to_itself(text):
    try:
        seq = scan_tokens(text)
    except ScanError:
        return
    assert render_tokens(seq) == text


def _td_tag(rowspan, colspan):
    spans = "".join(
        f' {name}="{span}"' for name, span in (("rowspan", rowspan), ("colspan", colspan))
        if span is not None
    )
    return f"<td{spans}>"


_CATEGORY_TAG = st.sampled_from(Category).map(lambda cat: f"<{cat.value}>")
#: Canonical tokens: a bin >= 0, one character per text token, spans absent or >= 0,
#: no number of more than _LIMIT digits.
_CANONICAL_TOKEN = st.one_of(
    _CATEGORY_TAG,
    st.integers(min_value=0, max_value=10**_LIMIT - 1),
    st.characters(),
    st.just("<Sep>"),
    st.just("<\\n>"),
    st.sampled_from(["<tr>", "</tr>", "</td>"]),
    st.builds(_td_tag, *[st.none() | st.integers(min_value=0, max_value=10**_LIMIT - 1)] * 2),
)


@example(TokenSequence(("<Sep>", "\n", 0, "<", "<Sep>"), bins=2))
@settings(max_examples=500)
@given(st.builds(TokenSequence, st.lists(_CANONICAL_TOKEN), st.integers(2, 2000)))
def test_rendered_tokens_scan_back_to_themselves(seq):
    assert scan_tokens(render_tokens(seq), bins=seq.bins) == seq


_BIN = st.integers(-3, 2003)
#: A span, or the text of one too long to convert to an int.
_SPAN = st.one_of(st.none(), st.integers(-2, 4), st.just("9" * (_LIMIT + 1)))
_TOKEN = st.one_of(
    _CATEGORY_TAG,
    _BIN,
    st.text(max_size=2),
    st.just("<Sep>"),
    st.just("<\\n>"),
    st.sampled_from(["<tr>", "</tr>", "</td>"]),
    st.builds(_td_tag, _SPAN, _SPAN),
    st.sampled_from(_NON_TOKENS),
)
# A whole coordinate quartet, so that parses get past the first box.
_QUARTET = st.lists(_BIN, min_size=4, max_size=4)
_PAGE_SIZE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@example(
    ["<Table>", *[0] * 4,
     "<tr>", '<td rowspan="-1" colspan="0">', *[1] * 4,
     "</td>", "</tr>", "<Sep>"],
    2,
    1.0,
    1.0,
)
@example(["<Table>", *[0] * 4, "<tr>", _td_tag("9" * (_LIMIT + 1), None)], 2, 1.0, 1.0)
@settings(max_examples=500)
@given(
    st.lists(st.one_of(_TOKEN.map(lambda tok: [tok]), _QUARTET), max_size=30).map(
        lambda runs: [tok for run in runs for tok in run]
    ),
    st.integers(2, 2000),
    _PAGE_SIZE,
    _PAGE_SIZE,
)
def test_parse_returns_document_or_parse_error(tokens, bins, width, height):
    try:
        doc = parse(TokenSequence(tokens, bins=bins), width, height)
    except ParseError:
        return
    assert isinstance(doc, Document)

"""Independent reference implementations used to cross-check production code.

Everything here recomputes values from first principles (direct recursion,
exhaustive enumeration, plain arithmetic) without calling the production
algorithms, so a bug on either side shows up as a disagreement.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from docrec.model import (
    BoundingBox,
    Category,
    Document,
    Element,
    FigureContent,
    FormulaContent,
    ParagraphContent,
    TableCell,
    TableContent,
    TextLine,
)
from docrec.readorder import OrderConfig, fallback_sort  # the row-band fallback is not what the oracle checks


def naive_edit_distance(a: str, b: str) -> int:
    """Direct memoized recursion on the Levenshtein recurrence."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return rec(i + 1, j + 1)
        return 1 + min(rec(i + 1, j), rec(i, j + 1), rec(i + 1, j + 1))

    return rec(0, 0)


def oracle_edit_distance(a: str, b: str) -> int:
    """The full-width Myers pass, as ``metrics.edit_distance`` ran before its band: the
    reference for strings too long for ``naive_edit_distance``.

    Myers' bit-vector algorithm (1999) in Hyyrö's form for global edit
    distance: bit i of ``vp``/``vn`` says whether the DP column grows or
    shrinks between rows i and i + 1 of the longer string, so one pass over
    the shorter string updates a whole column with a few big-int operations.
    Bits above the longer string's length hold junk; carries and shifts only
    move upward, so it never reaches the bits that count. A shared prefix and
    suffix are trimmed first: the distance of p + x + s and p + y + s is that
    of x and y.
    """
    if a == b:
        return 0
    n = min(len(a), len(b))
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a, b = a[lo:len(a) - hi], b[lo:len(b) - hi]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    top = bit >> 1
    mask = bit - 1
    vp, vn, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (mask ^ (d0 | vp))
        hn = vp & d0
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        x = (hp << 1) | 1
        vn = x & d0
        vp = ((hn << 1) | (mask ^ (x | d0))) & mask
    return dist


def oracle_iou(a, b) -> float:
    """IoU by its formula; int zeros keep int boxes in exact integer arithmetic.

    A zero union is 1.0 for equal boxes and 0.0 otherwise. A NaN or infinite
    coordinate raises the error production raises."""
    _require_finite(a)
    _require_finite(b)
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = ix * iy if ix > 0 and iy > 0 else 0
    area_a = max(a.x_max - a.x_min, 0) * max(a.y_max - a.y_min, 0)
    area_b = max(b.x_max - b.x_min, 0) * max(b.y_max - b.y_min, 0)
    union = area_a + area_b - inter
    return inter / union if union > 0 else float(a == b)


def oracle_element_text(el: Element) -> str:
    content = el.content
    if isinstance(content, ParagraphContent):
        return "\n".join(line.text for line in content.lines)
    if isinstance(content, TableContent):
        out = []
        for row in content.rows:
            out.append("<tr>")
            for cell in row:
                attrs = ""
                if cell.rowspan > 1:
                    attrs += f' rowspan="{cell.rowspan}"'
                if cell.colspan > 1:
                    attrs += f' colspan="{cell.colspan}"'
                out.append(f"<td{attrs}>{cell.text}</td>")
            out.append("</tr>")
        return "".join(out)
    if isinstance(content, FormulaContent):
        return content.latex
    return ""


def oracle_element_cost(gt: Element, pred: Element) -> float:
    loc = (
        (0.0 if gt.category is pred.category else 1.0)
        + (1.0 - oracle_iou(gt.bbox, pred.bbox))
    ) / 2.0
    a = oracle_element_text(gt)
    b = oracle_element_text(pred)
    if not a and not b:
        tran = 0.0
    else:
        tran = naive_edit_distance(a, b) / max(len(a), len(b))
    return (loc + tran) / 2.0


def oracle_document_distance(gt: Document, pred: Document) -> float:
    """Exhaustive minimum over all monotone alignment paths.

    Path sums accumulate left to right so the float result is bit-identical
    to a DP that adds the cell cost onto the best predecessor.
    """
    k = len(gt.elements)
    kt = len(pred.elements)
    assert k > 0 and kt > 0
    cost = [
        [oracle_element_cost(g, p) for p in pred.elements] for g in gt.elements
    ]

    def walk(i: int, j: int, acc: float) -> float:
        acc = acc + cost[i][j]
        if i == k - 1 and j == kt - 1:
            return acc
        best = math.inf
        if i + 1 < k:
            best = min(best, walk(i + 1, j, acc))
        if j + 1 < kt:
            best = min(best, walk(i, j + 1, acc))
        if i + 1 < k and j + 1 < kt:
            best = min(best, walk(i + 1, j + 1, acc))
        return best

    return walk(0, 0, 0.0)


def oracle_document_normalized(gt: Document, pred: Document) -> float:
    k = len(gt.elements)
    kt = len(pred.elements)
    if k == 0 and kt == 0:
        return 0.0
    if k == 0 or kt == 0:
        return 1.0
    return oracle_document_distance(gt, pred) / max(k, kt)


def oracle_dsm(gt_corpus, pred_corpus) -> float:
    values = [
        oracle_document_normalized(g, p) for g, p in zip(gt_corpus, pred_corpus)
    ]
    return 1.0 - sum(values) / len(values)


def oracle_markdown(doc: Document) -> str:
    return "\n\n".join(oracle_element_text(el) for el in doc.elements)


def oracle_ned(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - naive_edit_distance(a, b) / max(len(a), len(b))


def oracle_corpus_ned(gt_corpus, pred_corpus) -> float:
    values = [
        oracle_ned(oracle_markdown(g), oracle_markdown(p))
        for g, p in zip(gt_corpus, pred_corpus)
    ]
    return sum(values) / len(values)


def _injections(matrix):
    """Every injection of rows into columns, in lexicographic order."""
    return itertools.permutations(range(len(matrix[0])), len(matrix))


def _row_order_sum(matrix, cols) -> float:
    total = 0.0
    for row, col in enumerate(cols):
        total = total + matrix[row][col]
    return total


def oracle_min_assignment_cost(matrix) -> float:
    """Exhaustive minimum over all injections of rows into columns."""
    return min(_row_order_sum(matrix, cols) for cols in _injections(matrix))


def oracle_lexicographic_assignment(matrix) -> list[int]:
    """The lexicographically first injection whose cost is within
    1e-9 * max(1, |min|) of the exhaustive minimum."""
    best = oracle_min_assignment_cost(matrix)
    bound = best + 1e-9 * max(1.0, abs(best))
    return next(list(cols) for cols in _injections(matrix) if _row_order_sum(matrix, cols) <= bound)


def oracle_matching_cost(targets, preds):
    """The per-pair matching cost, one ``iou`` call per cell.

    Calls the production ``iou`` on purpose: the array form of
    ``matching_cost`` must equal this loop bit for bit, exact measures
    included.
    """
    import numpy as np

    from docrec.losses import LOG_EPS, class_index
    from docrec.metrics import iou

    out = np.zeros((len(targets), len(preds)))
    for k, target in enumerate(targets):
        ci = class_index(target.category)
        for n, pred in enumerate(preds):
            p = max(float(pred.class_probs[ci]), LOG_EPS)
            out[k, n] = -math.log(p) + (1.0 - iou(pred.box, target.box))
    return out


def _area(box):
    return max(box.x_max - box.x_min, 0) * max(box.y_max - box.y_min, 0)


def _coords(box):
    return (box.x_min, box.y_min, box.x_max, box.y_max)


def _is_finite(v) -> bool:
    return not (v != v or v in (math.inf, -math.inf))


def _require_finite(box):
    """Raise the error production raises for a box with a NaN or infinite coordinate."""
    if not all(map(_is_finite, _coords(box))):
        raise ValueError(f"box {box} has a non-finite coordinate")


def _as_is(box, kind) -> bool:
    same = type(box.x_min) is type(box.y_min) is type(box.x_max) is type(box.y_max) is kind
    return same and (kind is int or (all(map(_is_finite, _coords(box))) and math.isfinite(_area(box))))


def _exact(box):
    """``box`` in Fractions; a NaN or infinity raises the error production raises."""
    _require_finite(box)
    return BoundingBox(*(Fraction(v) for v in _coords(box)))


def oracle_associate_lines(elements, lines, cfg=None):
    """Every line measured against every element: the all-pairs loop.

    A call whose boxes are neither all int nor all float with finite
    coordinates and areas is measured in Fractions. ``associate_lines`` skips
    the pairs that cannot overlap and must return the same assignments, or
    raise the same ``ValueError``.
    """
    from docrec.gtgen import AssocConfig

    cfg = cfg or AssocConfig()
    boxes = [box for _, box in elements]
    line_boxes = [line.bbox for line in lines]
    every = boxes + line_boxes
    if not (all(_as_is(b, int) for b in every) or all(_as_is(b, float) for b in every)):
        boxes, line_boxes = [_exact(b) for b in boxes], [_exact(b) for b in line_boxes]
    result = []
    for line_box in line_boxes:
        line_area = _area(line_box)
        best = None
        best_key = None
        if line_area > 0:
            for idx, box in enumerate(boxes):
                ix = min(line_box.x_max, box.x_max) - max(line_box.x_min, box.x_min)
                iy = min(line_box.y_max, box.y_max) - max(line_box.y_min, box.y_min)
                ratio = (ix * iy if ix > 0 and iy > 0 else 0) / line_area
                if ratio < cfg.iou_threshold:
                    continue
                key = (-ratio, _area(box), idx)
                if best_key is None or key < best_key:
                    best_key = key
                    best = idx
        result.append(best)
    return result


def oracle_discrimination_loss(targets, preds, assignment) -> float:
    """Direct re-summation of the discrimination loss, numpy-free."""
    eps = 1e-9
    from docrec.losses import class_index, NO_OBJECT_INDEX

    total = 0.0
    for k, target in enumerate(targets):
        pred = preds[assignment[k]]
        total += -math.log(max(float(pred.class_probs[class_index(target.category)]), eps))
        total += 1.0 - oracle_iou(pred.box, target.box)
        for t in range(min(5, len(target.tokens))):
            if int(target.mask[t]):
                total += -math.log(max(float(pred.token_probs[t][int(target.tokens[t])]), eps))
    used = set(assignment)
    for n, pred in enumerate(preds):
        if n not in used:
            total += -math.log(max(float(pred.class_probs[NO_OBJECT_INDEX]), eps))
    return total


def oracle_transcription_loss(targets, preds, assignment) -> float:
    eps = 1e-9
    total = 0.0
    for k, target in enumerate(targets):
        pred = preds[assignment[k]]
        for t in range(5, len(target.tokens)):
            if int(target.mask[t]):
                total += -math.log(max(float(pred.token_probs[t][int(target.tokens[t])]), eps))
    return total


# --- reading order: every region re-sorted and tried on both axes -------------


def _oracle_split_groups(spans, idxs, min_gap):
    order = sorted(idxs, key=spans.__getitem__)
    groups = []
    current = [order[0]]
    reach = max(spans[order[0]])
    for i in order[1:]:
        start, end = spans[i]
        if start - reach >= min_gap:
            groups.append(current)
            current = [i]
        else:
            current.append(i)
        reach = max(reach, start, end)
    groups.append(current)
    return groups if len(groups) > 1 else None


def oracle_xy_cut_order(boxes, cfg=None):
    """The XY-cut as first written: each region tries rows, then columns, then
    ``fallback_sort``, even on the axis that cut it out (where no gap can be)."""
    cfg = cfg or OrderConfig()
    rows = [(b.y_min, b.y_max) for b in boxes]
    cols = [(b.x_min, b.x_max) for b in boxes]
    out = []
    stack = [list(range(len(boxes)))]
    while stack:
        idxs = stack.pop()
        if len(idxs) <= 1:
            out.extend(idxs)
            continue
        groups = _oracle_split_groups(rows, idxs, cfg.min_gap)
        if groups is None:
            groups = _oracle_split_groups(cols, idxs, cfg.min_gap)
        if groups is None:
            local = fallback_sort([boxes[i] for i in idxs], cfg.y_tolerance)
            out.extend(idxs[k] for k in local)
        else:
            stack.extend(reversed(groups))
    return out


# --- decoding: every part checked by isinstance, every path formatted ----------

_NOUN = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


def _expect(value, kind, where):
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{where}: expected {_NOUN[kind]}, got {value!r}")
    return value


def _finite(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    # An int that rounds to 2**1024 or beyond is past the float range, as non-finite as 1e999.
    if isinstance(value, int) and abs(value) >= 2**1024 - 2**970 or not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _oracle_box(value, where) -> BoundingBox:
    items = _expect(value, list, where)
    if len(items) != 4:
        raise ValueError(f"{where}: expected 4 coordinates, got {len(items)}")
    return BoundingBox(*(_finite(v, f"{where}[{i}]") for i, v in enumerate(items)))


def oracle_text_lines_from_value(value, where="lines"):
    """The slow reference decoder of a list of ``{bbox, text}`` lines: no fast path."""
    out = []
    for j, item in enumerate(_expect(value, list, where)):
        item = _expect(item, dict, f"{where}[{j}]")
        box = _oracle_box(item.get("bbox"), f"{where}[{j}].bbox")
        out.append(TextLine(box, _expect(item.get("text", ""), str, f"{where}[{j}].text")))
    return tuple(out)


def _oracle_cell(item, where) -> TableCell:
    item = _expect(item, dict, where)
    return TableCell(
        _oracle_box(item.get("bbox"), f"{where}.bbox"),
        _expect(item.get("rowspan", 1), int, f"{where}.rowspan"),
        _expect(item.get("colspan", 1), int, f"{where}.colspan"),
        _expect(item.get("text", ""), str, f"{where}.text"),
    )


def oracle_document_from_dict(data, where="document") -> Document:
    """The slow reference decoder of a document: every check in document order, no fast path."""
    data = _expect(data, dict, where)
    if "page_width" not in data or "page_height" not in data:
        raise ValueError(f"{where}: missing page_width/page_height")
    width = _finite(data["page_width"], f"{where}.page_width")
    height = _finite(data["page_height"], f"{where}.page_height")
    elements = []
    for i, item in enumerate(_expect(data.get("elements", []), list, f"{where}.elements")):
        sub = f"{where}.elements[{i}]"
        item = _expect(item, dict, sub)
        name = _expect(item.get("category"), str, f"{sub}.category")
        category = next((c for c in Category if c.value == name), None)
        if category is None:
            raise ValueError(f"{sub}.category: unknown category {name!r}")
        box = _oracle_box(item.get("bbox"), f"{sub}.bbox")
        at = f"{sub}.content"
        data_ = _expect(item.get("content", {}), dict, at)
        if category is Category.PARAGRAPH:
            content = ParagraphContent(oracle_text_lines_from_value(data_.get("lines", []), f"{at}.lines"))
        elif category is Category.TABLE:
            content = TableContent(tuple(
                tuple(_oracle_cell(cell, f"{at}.rows[{r}][{c}]")
                      for c, cell in enumerate(_expect(row, list, f"{at}.rows[{r}]")))
                for r, row in enumerate(_expect(data_.get("rows", []), list, f"{at}.rows"))
            ))
        elif category is Category.FORMULA:
            content = FormulaContent(_expect(data_.get("latex", ""), str, f"{at}.latex"))
        else:
            content = FigureContent()
        elements.append(Element(category, box, content))
    return Document(width, height, tuple(elements))

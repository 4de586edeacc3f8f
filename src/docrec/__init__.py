"""Document reconstruction toolkit.

Core pieces: a document model with coordinate quantization (`model`), the
flat token sequence format (`seqformat`), similarity metrics (`metrics`),
reading-order detection (`readorder`), ground-truth assembly (`gtgen`),
set-prediction losses (`losses`), format converters (`convert`), and a CLI
(`cli`).
"""

from .model import (
    DEFAULT_BINS,
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
    dequantize_coord,
    document_from_dict,
    document_to_dict,
    quantize_coord,
    to_json_value,
    validate_document,
)
from .seqformat import (
    ParseError,
    ParseErrorKind,
    ScanError,
    TokenSequence,
    parse,
    render_tokens,
    scan_tokens,
    serialize,
)
from .metrics import (
    EvalReport,
    dsm,
    document_distance,
    edit_distance,
    element_cost,
    evaluate,
    iou,
    location_cost,
    ned_similarity,
    transcription_cost,
)
from .readorder import OrderConfig, fallback_sort, xy_cut_order
from .gtgen import (
    AssemblyResult,
    AssocConfig,
    assemble_ground_truth,
    associate_lines,
    fuzzy_match,
    merge_boxes,
)
from .convert import (
    LayoutRecord,
    extract_formulas,
    extract_tables,
    to_layout_records,
    to_markdown,
    to_plain_text,
)

__version__ = "0.1.0"

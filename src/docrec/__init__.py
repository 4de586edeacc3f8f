"""Document reconstruction toolkit.

Core pieces: a document model (`model`), the flat token sequence format
with its coordinate grid (`seqformat`), similarity metrics (`metrics`),
reading-order detection (`readorder`), ground-truth assembly (`gtgen`),
set-prediction losses (`losses`), format converters (`convert`), and a CLI
(`cli`). Each name is imported from the module that defines it, as in
``from docrec.metrics import dsm``; importing ``docrec`` loads no module.
"""

__version__ = "0.1.0"

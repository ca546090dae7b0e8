"""Detector-agnostic document layout assembly engine and evaluation toolkit.

Turns per-page detection results into reading-ordered, grouped, multi-format
document representations (JSON, Markdown, RAG chunks, knowledge graph,
DP-Bench predictions) and scores predictions against references with NID,
TEDS, and TEDS-S.
"""

from .assembly import (
    AssemblyParams,
    ClusterParams,
    HeaderFooterParams,
    NOISE,
    RowOrderParams,
    assemble_page,
    assign_groups,
    candidate_members,
    cluster_multi_column,
    correct_headers_footers,
    dbscan,
    dedupe_page,
    fuzzy_ratio,
    line_angle,
    minmax_scale,
    order_generic_group,
    order_page_elements,
    order_row_group,
)
from .clients import (
    CategoryTable,
    EnrichmentResult,
    FixtureEnrichmentClient,
    HttpEnrichmentClient,
    StubEnrichmentClient,
    UsefulnessTable,
    UsefulnessVerdict,
)
from .errors import (
    DetectionInputError,
    DocweaveError,
    EvaluationError,
    TableParseError,
    ValidationError,
)
from .export import (
    extract_list_items,
    to_chunks_jsonl,
    to_dpbench_json,
    to_graph_json,
    to_markdown,
)
from .geometry import BBox, contains_midpoint, iou, union_bbox
from .ingest import (
    DetectionInput,
    LayoutDetection,
    PageDetections,
    RawDetection,
    build_entities,
    classify_document,
    enrich_entities,
    gate_images,
    load_detections,
    normalize_body,
    normalize_title,
)
from .metrics import (
    DPBenchElement,
    EvalReport,
    TableNode,
    evaluate,
    indel_distance,
    levenshtein,
    nid,
    parse_table_html,
    serialize_for_nid,
    teds,
    teds_s,
    tree_edit_distance,
)
from .model import (
    DocumentResult,
    ElementLabel,
    Entity,
    EntityValue,
    Group,
    GroupType,
    LayoutLabel,
    PageResult,
    document_from_json,
    document_to_json,
    make_group,
)
from .pipeline import PipelineConfig, export_document, process_document, run_pipeline

__version__ = "0.1.0"

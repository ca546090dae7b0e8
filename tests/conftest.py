import json
import random
from pathlib import Path

import pytest

from docweave.geometry import BBox
from docweave.ingest import LayoutDetection
from docweave.model import ElementLabel, EntityValue, LayoutLabel, SchemaWeights, make_entity

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def schema():
    return SchemaWeights()


def build_entity(
    entity_id,
    label,
    box,
    text="",
    confidence=0.9,
    schema=None,
    title=None,
    summary=None,
    data=None,
    image_payload=None,
):
    """Shorthand entity constructor for tests; box is an (l, t, r, b) tuple."""
    return make_entity(
        label=ElementLabel(label),
        confidence=confidence,
        bbox=BBox(*box),
        value=EntityValue(text=text, title=title, summary=summary, data=data),
        schema=schema or SchemaWeights(),
        entity_id=entity_id,
        image_payload=image_payload,
    )


def layout_detection(label, box, confidence=0.9):
    return LayoutDetection(LayoutLabel(label), confidence, BBox(*box))


def write_detection_file(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def random_string(rng: random.Random, alphabet: str, max_len: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))

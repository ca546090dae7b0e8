import json
import random
from pathlib import Path

from docweave.geometry import BBox
from docweave.ingest import LayoutDetection
from docweave.model import ElementLabel, Entity, EntityValue, LayoutLabel

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def build_entity(
    entity_id,
    label,
    box,
    text="",
    confidence=0.9,
    title=None,
    summary=None,
    data=None,
    image_payload=None,
):
    """Shorthand entity constructor for tests; box is an (l, t, r, b) tuple."""
    return Entity(
        id=entity_id,
        type=ElementLabel(label),
        confidence=confidence,
        value=EntityValue(text=text, title=title, summary=summary, data=data),
        pixel_coordinates=BBox(*box),
        image_payload=image_payload,
    )


def layout_detection(label, box, confidence=0.9):
    return LayoutDetection(LayoutLabel(label), confidence, BBox(*box))


def write_detection_file(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def random_string(rng: random.Random, alphabet: str, max_len: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))

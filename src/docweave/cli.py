"""Command-line interface: ``parse``, ``export``, and ``eval``.

Exit codes: 0 success, 1 partial failure (at least one document wholly
failed) or an output that cannot be written, 2 invalid usage.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path
from typing import NoReturn

import click

from .errors import DocweaveError, ValidationError
from .metrics import evaluate
from .model import document_from_dict, json_text, read_json_object
from .pipeline import (
    FORMATS,
    config_from_mapping,
    export_document,
    run_pipeline,
    write_files,
)


def _parse_formats(raw: str) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in raw.split(",") if f.strip())
    if not formats:
        raise click.UsageError("at least one output format is required")
    unknown = [f for f in formats if f not in FORMATS]
    if unknown:
        raise click.UsageError(f"unknown formats: {', '.join(unknown)}")
    repeated = sorted({f for f in formats if formats.count(f) > 1})
    if repeated:
        raise click.UsageError(f"repeated formats: {', '.join(repeated)}")
    return formats


def _cannot_write(path: Path, exc: OSError) -> NoReturn:
    click.echo(f"{path}: cannot write: {exc}", err=True)
    sys.exit(1)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Assemble detection results into reading-ordered documents and score them."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path(path_type=Path))
@click.option("-o", "--output-dir", type=click.Path(path_type=Path), default=Path("out"), show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path), help="JSON config file; flags override it.")
@click.option("--formats", default=None, help=f"Comma-separated subset of: {', '.join(FORMATS)}.")
@click.option("--layout-threshold", type=float, default=None, help="Layout confidence cutoff (default 0.20).")
@click.option("--element-threshold", type=float, default=None, help="Element confidence cutoff (default 0.30).")
@click.option("--image-gate/--no-image-gate", "skip_images", default=None, help="Run the image usefulness gate (default on).")
@click.option("--insights/--skip-insights", "insights", default=None, help="Call the enrichment client for tables and useful images (default off).")
@click.option("--skip-headers-footers", is_flag=True, default=False, help="Omit page headers/footers from Markdown.")
@click.option("--eps", type=float, default=None, help="DBSCAN eps for multi-column clustering (default 0.3).")
@click.option("--min-samples", type=int, default=None, help="DBSCAN min_samples (default 2).")
@click.option("--angle-threshold", type=float, default=None, help="Row-order swap angle in degrees (default 50).")
@click.option("--fuzzy-threshold", type=int, default=None, help="Header/footer match ratio, strict > (default 95).")
@click.option("--header-top-limit", type=float, default=None, help="Pixels from the top within which headers are expected (default 100).")
@click.option("--usefulness-fixture", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--enrichment-fixture", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--category-fixture", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("-w", "--workers", type=int, default=None, help="Concurrent usefulness/enrichment client calls within a page (default 1).")
def parse(
    inputs,
    output_dir,
    config_path,
    formats,
    layout_threshold,
    element_threshold,
    skip_images,
    insights,
    skip_headers_footers,
    eps,
    min_samples,
    angle_threshold,
    fuzzy_threshold,
    header_top_limit,
    usefulness_fixture,
    enrichment_fixture,
    category_fixture,
    workers,
):
    """Run the full pipeline over detection-input files."""
    try:
        config = config_from_mapping(
            {} if config_path is None else read_json_object(config_path, ValidationError),
            inputs=tuple(inputs),
            output_dir=output_dir,
            formats=_parse_formats(formats) if formats is not None else None,
            layout_threshold=layout_threshold,
            element_threshold=element_threshold,
            skip_images=skip_images,
            skip_insights=None if insights is None else not insights,
            skip_headers_footers=skip_headers_footers or None,
            usefulness_fixture=usefulness_fixture,
            enrichment_fixture=enrichment_fixture,
            category_fixture=category_fixture,
            workers=workers,
            assembly={
                "cluster": {"eps": eps, "min_samples": min_samples},
                "row": {"angle_threshold_degrees": angle_threshold},
                "header_footer": {"fuzzy_threshold": fuzzy_threshold, "header_top_limit": header_top_limit},
            },
        )
    except ValidationError as exc:
        raise click.UsageError(str(exc))

    try:
        outcomes = run_pipeline(config)
    except ValidationError as exc:  # bad client fixture files
        raise click.UsageError(str(exc))
    failed = 0
    for outcome in outcomes:
        for number, cause in outcome.failed_pages.items():
            click.echo(f"{outcome.input_path}: page {number} failed: {cause}", err=True)
        if outcome.failed:
            failed += 1
            click.echo(f"FAILED {outcome.error or f'{outcome.input_path}: no page assembled'}", err=True)
        else:
            doc = outcome.result
            click.echo(
                f"{outcome.input_path}: {doc.total_processed_pages}/{doc.total_pages} pages, "
                f"{len(outcome.written)} files written"
            )
    sys.exit(1 if failed else 0)


@main.command("export")
@click.argument("json_path", type=click.Path(exists=True, path_type=Path))
@click.option("-o", "--output-dir", type=click.Path(path_type=Path), default=Path("out"), show_default=True)
@click.option("--formats", default="markdown,chunks,graph,dpbench", show_default=True)
@click.option("--skip-headers-footers", is_flag=True, default=False)
def export_command(json_path: Path, output_dir: Path, formats: str, skip_headers_footers: bool):
    """Re-run exporters over an existing document-result JSON file."""
    selected = _parse_formats(formats)
    try:
        raw = read_json_object(json_path, ValidationError)
        doc = document_from_dict(raw, f"{json_path}: schema error in document")
    except ValidationError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    try:
        written = export_document(
            doc,
            output_dir,
            json_path.stem,
            selected,
            skip_headers_footers=skip_headers_footers,
        )
    except OSError as exc:
        _cannot_write(output_dir, exc)
    for path in written:
        click.echo(str(path))


@main.command("eval")
@click.argument("reference", type=click.Path(path_type=Path))
@click.argument("prediction", type=click.Path(path_type=Path))
@click.option("--mode", type=click.Choice(["layout", "table"]), required=True)
@click.option("--report", "report_path", type=click.Path(path_type=Path), default=None, help="Write the full report JSON here, and the summary to the same path with a .txt suffix.")
def eval_command(reference: Path, prediction: Path, mode: str, report_path):
    """Score prediction files against reference files (NID or TEDS/TEDS-S)."""
    if report_path is not None and report_path.suffix == ".txt":
        raise click.UsageError(
            f"--report {report_path}: the summary is written to the report path with a .txt suffix; "
            "give the report another suffix"
        )
    try:
        report = evaluate(reference, prediction, mode)
    except DocweaveError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    click.echo(report.summary_text())
    if report_path is not None:
        summary_path = report_path.with_suffix(".txt")
        # The summary goes first, so a report is renamed into place only beside its summary.
        try:
            write_files([
                (summary_path, report.summary_text() + "\n"),
                (report_path, json_text(report.to_dict())),
            ])
        except IsADirectoryError as exc:
            _cannot_write(Path(exc.filename), exc)
        except OSError as exc:
            _cannot_write(report_path, exc)
        click.echo(f"report written to {report_path} and {summary_path}")


if __name__ == "__main__":
    main()

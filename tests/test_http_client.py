"""HttpEnrichmentClient against a local HTTP server on 127.0.0.1; no network needed."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

pytest.importorskip("requests")

from conftest import build_entity  # noqa: E402
from docweave.clients import HttpEnrichmentClient  # noqa: E402
from docweave.ingest import enrich_entities  # noqa: E402


class _Handler(BaseHTTPRequestHandler):
    """Records each request body and answers with the server's canned reply."""

    def do_POST(self):
        self.server.bodies.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        status, body, delay = self.server.reply
        time.sleep(delay)
        payload = body.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except OSError:  # the client already gave up (timeout case)
            pass

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.bodies = []
    httpd.reply = (200, "{}", 0.0)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _enrich(server, entity, timeout=5.0):
    client = HttpEnrichmentClient(f"http://127.0.0.1:{server.server_address[1]}/", timeout=timeout)
    (result,), calls = enrich_entities([entity], client)
    assert calls == 1 and len(server.bodies) == 1
    return result


def _image():
    return build_entity("img", "image", (0, 0, 10, 10), text="ocr text", image_payload="aGk=")


def test_request_body_keys(server):
    server.reply = (200, json.dumps({"summary": "s"}), 0.0)
    _enrich(server, _image())
    assert server.bodies == [
        {"id": "img", "type": "image", "text": "ocr text", "image_payload": "aGk="}
    ]


def test_success_merges_response(server):
    server.reply = (200, json.dumps({"title": "T", "summary": "S", "text": "described"}), 0.0)
    value = _enrich(server, _image()).value
    assert (value.text, value.title, value.summary) == ("described", "T", "S")


@pytest.mark.parametrize(
    "reply, timeout",
    [
        ((500, json.dumps({"title": "ignored"}), 0.0), 5.0),
        ((200, "{not json", 0.0), 5.0),
        ((200, json.dumps({"title": "late"}), 1.0), 0.2),
        ((200, json.dumps({"title": 5}), 0.0), 5.0),
    ],
    ids=["server-error", "bad-json", "timeout", "title-number"],
)
def test_failure_keeps_ocr_value(server, reply, timeout):
    server.reply = reply
    image = _image()
    assert _enrich(server, image, timeout=timeout) == image

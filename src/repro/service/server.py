"""``repro serve``: the partition service's stdlib-HTTP front-end.

A :class:`PartitionService` wires the three service layers together —
content-addressed :class:`~repro.service.store.ResultStore`, TTL-leased
:class:`~repro.service.queue.LeaseQueue`, worker
:class:`~repro.service.orchestrator.Orchestrator` — behind four JSON
endpoints served by a ``ThreadingHTTPServer`` (stdlib only, no extra
dependencies):

``POST /submit``
    Body: a graph source (``{"edges": [[u, v], ...], "num_vertices": N}``
    upload, a server-local ``{"path": ...}`` graph file, or a
    ``{"corpus": "S2"}`` / ``{"standin": "wiki-Vote"}`` generator name),
    plus optional ``config`` (:class:`SBPConfig` fields), ``runs``, and
    for stream jobs a ``{"stream": {"source": ..., "options": {...}}}``
    block. Returns ``{"job_id": <digest>, "state": ...}``. Submission is
    idempotent: the same content returns the same job id, and a job
    already DONE in the store is served from cache without re-running.
``GET /status/<job_id>``
    Queue state (pending / leased / done / failed, attempts, worker)
    plus the outcome summary once the result is in the store.
``GET /result/<job_id>``
    The stored outcome artifact itself (the versioned JSON the store
    holds, byte-for-byte).
``GET /report``
    The bench reporting tables (:func:`~repro.bench.reporting.\
format_table`) rendered over every stored outcome, as ``text/plain``.
``GET /health``
    Rollup: queue counts (including lease expirations) and store stats.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.core.variants import SBPConfig
from repro.errors import ReproError, ServiceError, UnknownJobError
from repro.graph.graph import Graph
from repro.service.jobs import JobSpec
from repro.service.orchestrator import Orchestrator
from repro.service.queue import LeaseQueue
from repro.service.store import ResultStore
from repro.utils.log import get_logger

__all__ = ["PartitionService", "build_job_spec"]

_log = get_logger("service.server")


def _field(body: dict, key: str, default, kind):
    """``kind(body[key])``, a malformed value raising a 400-mapped error."""
    value = body.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad {key!r} value {value!r}: {exc}") from exc


def _load_graph_from_request(body: dict) -> Graph:
    """Materialize the request's graph source (upload, path or generator)."""
    sources = [k for k in ("edges", "path", "corpus", "standin") if k in body]
    if len(sources) != 1:
        raise ServiceError(
            "request must name exactly one graph source: 'edges' (+ "
            f"'num_vertices'), 'path', 'corpus' or 'standin'; got {sources}"
        )
    if "edges" in body:
        edges = _field(
            body, "edges", None, lambda v: np.asarray(v, dtype=np.int64)
        )
        if body.get("num_vertices") is None:
            return Graph(int(edges.max()) + 1 if edges.size else 1, edges)
        return Graph(_field(body, "num_vertices", None, int), edges)
    if "path" in body:
        from repro.graph.io import read_edge_list, read_matrix_market

        path = str(body["path"])
        if not Path(path).is_file():
            raise ServiceError(f"graph file not found on server: {path}")
        return read_matrix_market(path) if path.endswith(".mtx") else read_edge_list(path)
    seed = _field(body, "graph_seed", 0, int)
    if "corpus" in body:
        from repro.generators.corpus import generate_synthetic

        graph, _ = generate_synthetic(str(body["corpus"]), seed=seed)
        return graph
    from repro.generators.realworld import generate_real_world_standin

    return generate_real_world_standin(str(body["standin"]), seed=seed)


def build_job_spec(body: dict) -> JobSpec:
    """Turn a ``/submit`` JSON body into a :class:`JobSpec`.

    Also the programmatic submission path: tests and clients embedding
    the service construct specs through the same validation.
    """
    if not isinstance(body, dict):
        raise ServiceError("request body must be a JSON object")
    config_fields = body.get("config", {})
    if not isinstance(config_fields, dict):
        raise ServiceError("'config' must be an object of SBPConfig fields")
    try:
        config = SBPConfig(**config_fields)
    except TypeError as exc:
        raise ServiceError(f"bad config field: {exc}") from exc
    stream_block = body.get("stream")
    if stream_block is not None:
        from repro.streaming.source import STREAM_SOURCES

        if not isinstance(stream_block, dict) or "source" not in stream_block:
            raise ServiceError("'stream' must be {'source': ..., 'options': {...}}")
        spec = STREAM_SOURCES.get(str(stream_block["source"]))
        options = stream_block.get("options", {})
        if not isinstance(options, dict):
            raise ServiceError("'stream.options' must be an object")
        try:
            stream = spec.build(**options)
        except TypeError as exc:
            raise ServiceError(f"bad stream option: {exc}") from exc
        return JobSpec.for_stream(
            stream,
            config,
            drift_policy=str(stream_block.get("drift_policy", "mdl-ratio")),
            drift_threshold=_field(stream_block, "drift_threshold", 0.05, float),
        )
    graph = _load_graph_from_request(body)
    return JobSpec.for_graph(graph, config, runs=_field(body, "runs", 1, int))


class PartitionService:
    """Store + queue + orchestrator behind the HTTP endpoints.

    Parameters
    ----------
    store, queue:
        The storage and scheduling layers (pick engines via the
        ``repro serve`` CLI or the registries).
    workers:
        Orchestrator worker-thread count.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    checkpoint_root:
        Per-job checkpoint directory root handed to the orchestrator.
    """

    def __init__(
        self,
        store: ResultStore,
        queue: LeaseQueue,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 8642,
        checkpoint_root: str | Path | None = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.orchestrator = Orchestrator(
            queue, store, workers=workers, checkpoint_root=checkpoint_root
        )
        service = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # noqa: ARG002 - quiet server
                _log.info("http: " + fmt, *args)

            def _send(self, code: int, payload: bytes, content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def _send_json(self, code: int, obj: object) -> None:
                self._send(
                    code,
                    json.dumps(obj, indent=2).encode("utf-8"),
                    "application/json",
                )

            def _send_internal_error(self, exc: Exception) -> None:
                _log.exception("%s %s failed", self.command, self.path)
                self._send_json(
                    500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
                )

            def do_POST(self):  # noqa: N802 - http.server API
                if self.path.rstrip("/") != "/submit":
                    self._send_json(404, {"error": f"no such endpoint {self.path}"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    body = json.loads(self.rfile.read(length) or b"{}")
                    self._send_json(200, service.submit(body))
                except UnknownJobError as exc:
                    self._send_json(404, {"error": str(exc)})
                except (ReproError, ValueError, json.JSONDecodeError) as exc:
                    self._send_json(400, {"error": str(exc)})
                except Exception as exc:
                    self._send_internal_error(exc)

            def do_GET(self):  # noqa: N802 - http.server API
                try:
                    parts = [p for p in self.path.split("/") if p]
                    if parts[:1] == ["status"] and len(parts) == 2:
                        self._send_json(200, service.status(parts[1]))
                    elif parts[:1] == ["result"] and len(parts) == 2:
                        raw = service.result_bytes(parts[1])
                        self._send(200, raw, "application/json")
                    elif parts == ["report"]:
                        self._send(
                            200, service.report().encode("utf-8"), "text/plain"
                        )
                    elif parts == ["health"]:
                        self._send_json(200, service.health())
                    else:
                        self._send_json(
                            404, {"error": f"no such endpoint {self.path}"}
                        )
                except UnknownJobError as exc:
                    self._send_json(404, {"error": str(exc)})
                except (ReproError, ValueError) as exc:
                    self._send_json(400, {"error": str(exc)})
                except Exception as exc:
                    self._send_internal_error(exc)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._http_thread: threading.Thread | None = None

    # -- endpoint bodies (also the programmatic API) --------------------
    def submit(self, body: dict) -> dict[str, object]:
        spec = build_job_spec(body)
        job_id = self.queue.submit(spec)
        status = self.queue.status(job_id)
        _log.info("submitted job %s (%s)", job_id[:12], spec.mode)
        return status

    def status(self, job_id: str) -> dict[str, object]:
        status = self.queue.status(job_id)
        outcome = self.store.get(job_id)
        if outcome is not None:
            status["outcome"] = outcome.summary()
        return status

    def result_bytes(self, job_id: str) -> bytes:
        raw = self.store._read(job_id)
        if raw is None:
            # Known to the queue but absent from the store: either still
            # running or evicted — distinguish for the caller.
            state = self.queue.status(job_id)["state"]  # raises if unknown
            raise UnknownJobError(
                f"job {job_id[:12]} has no stored result (state={state}); "
                "poll /status until done, or resubmit if it was evicted"
            )
        return raw

    def report(self) -> str:
        from repro.bench.reporting import format_table

        rows = []
        for digest in self.store.digests():
            outcome = self.store.get(digest)
            if outcome is not None:
                rows.append(outcome.summary())
        title = f"partition service store ({len(rows)} outcomes)"
        return format_table(rows, title=title)

    def health(self) -> dict[str, object]:
        counts = self.queue.counts()
        return {
            "ok": counts["failed"] == 0,
            "queue": counts,
            "store": self.store.health(),
            "workers": self.orchestrator.num_workers,
        }

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    def start(self) -> None:
        """Serve HTTP and drain the queue in background threads."""
        self.orchestrator.start()
        if self._http_thread is None:
            self._http_thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-serve", daemon=True
            )
            self._http_thread.start()
        host, port = self.address
        _log.info("partition service listening on http://%s:%d", host, port)

    def serve_forever(self) -> None:  # pragma: no cover - interactive entry
        """Foreground entry point for the CLI (Ctrl-C to stop)."""
        self.orchestrator.start()
        host, port = self.address
        print(f"repro serve: listening on http://{host}:{port} "
              f"({self.orchestrator.num_workers} workers)")
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            print("repro serve: shutting down")
        finally:
            self.close()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self.orchestrator.stop()
        self._http_thread = None

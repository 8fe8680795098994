"""Minimal scriptable HTTP server for exercising network clients locally."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

POLL_INTERVAL_S = 0.02


class StubServer:
    """Serves whatever the respond callback returns; records every request.

    respond(request) -> (status, body) or (status, body, headers); body may be
    a dict (sent as JSON), str, or bytes, and headers a dict of extra response
    headers.  request is a dict with method/path/query/headers/body.  With an
    ssl_context the server speaks HTTPS.
    """

    def __init__(self, respond, ssl_context=None):
        self.respond = respond
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _handle(self):
                parsed = urlparse(self.path)
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                try:
                    body = json.loads(raw) if raw else None
                except ValueError:
                    body = raw
                request = {
                    "method": self.command,
                    "path": parsed.path,
                    "query": {k: v[0] for k, v in parse_qs(parsed.query).items()},
                    "headers": dict(self.headers),
                    "body": body,
                }
                outer.requests.append(request)
                status, payload, *extra = outer.respond(request)
                headers = extra[0] if extra else {}
                if isinstance(payload, dict):
                    payload = json.dumps(payload).encode("utf-8")
                elif isinstance(payload, str):
                    payload = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers.items():
                    self.send_header(name, value)
                try:
                    self.end_headers()
                    self.wfile.write(payload)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client gave up first, as a timeout test's does

            do_GET = _handle
            do_POST = _handle

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.scheme = "http"
        if ssl_context is not None:
            self.server.socket = ssl_context.wrap_socket(self.server.socket, server_side=True)
            self.scheme = "https"
        # close() waits for serve_forever to see the shutdown request, which it
        # checks once per poll; the default poll of 0.5 s made every close
        # take that long.  The poll does not delay requests, which wake it.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"{self.scheme}://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()

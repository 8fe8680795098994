"""Text-completion backends behind one abstraction.

Two kinds: an OpenAI-compatible HTTP endpoint (plain completions wire by
default, chat wire as a toggle) and a deterministic replay store answering
prompts from recorded fixtures.  Live runs can record into a fixture so any
remote experiment becomes an offline regression test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from . import __version__
from .records import encode_json, read_records

if TYPE_CHECKING:
    from http.client import HTTPMessage

KINDS = ("http", "replay")
WIRES = ("completions", "chat")
DEFAULT_API_KEY_ENV = "EL_API_KEY"
# The longest wait a server's Retry-After can impose before one retry.
MAX_RETRY_AFTER_S = 60.0


class BackendError(Exception):
    """Base for machine-readable backend failures; .code identifies the class."""

    code = "backend-error"


class CredentialMissingError(BackendError):
    code = "credential-missing"


class EndpointUnreachableError(BackendError):
    code = "endpoint-unreachable"


class HttpStatusError(BackendError):
    code = "http-status"

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ReplayMissError(BackendError):
    code = "replay-miss"


@dataclass(frozen=True)
class BackendConfig:
    kind: str
    endpoint: str = ""
    model_id: str = ""
    fixture_path: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 512
    request_timeout: float = 30.0
    max_retries: int = 3
    retry_backoff: float = 0.5
    parallelism: int = 4
    wire: str = "completions"
    api_key_env: str = DEFAULT_API_KEY_ENV
    record_path: str = ""

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"backend kind must be one of {KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature!r}")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0):
            raise ValueError(f"request_timeout must be a finite number > 0, got {self.request_timeout!r}")
        if not (math.isfinite(self.retry_backoff) and self.retry_backoff >= 0):
            raise ValueError(f"retry_backoff must be a finite number >= 0, got {self.retry_backoff!r}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.wire not in WIRES:
            raise ValueError(f"wire must be one of {WIRES}, got {self.wire!r}")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http backend requires an endpoint")
        if self.kind == "http" and not self.endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"http backend endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        if self.kind == "replay" and not self.fixture_path:
            raise ValueError("replay backend requires a fixture path")


@dataclass(frozen=True)
class Completion:
    prompt_digest: str
    raw_text: str
    backend_meta: Dict[str, object] = field(default_factory=dict)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ReplayStore:
    """Replay fixture: JSONL of {digest, prompt, raw_text, model_id}.

    Re-recorded runs append; on load the journal is compacted last-wins.
    """

    def __init__(self, path: str):
        self.path = path
        self._by_digest: Dict[str, Dict[str, str]] = {}

        def check(entry: Dict[str, str], lineno: int, errors: List[str]) -> None:
            if not (isinstance(entry.get("digest"), str) and isinstance(entry.get("raw_text"), str)):
                errors.append(f"line {lineno}: digest and raw_text must be strings")
            elif not isinstance(entry.get("model_id", ""), str):
                errors.append(f"line {lineno}: model_id must be a string")
            else:
                self._by_digest[entry["digest"]] = entry

        read_records(path, check)

    def __len__(self) -> int:
        return len(self._by_digest)

    def get(self, digest: str) -> Optional[Dict[str, str]]:
        return self._by_digest.get(digest)


class _Recorder:
    """Serialized appends of replay fixture entries."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()

    def append(self, digest: str, prompt: str, raw_text: str, model_id: str) -> None:
        entry = {"digest": digest, "prompt": prompt, "raw_text": raw_text, "model_id": model_id}
        line = encode_json(entry) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)


def record_fixture_entry(path: str, prompt: str, raw_text: str, model_id: str = "") -> None:
    _Recorder(path).append(prompt_digest(prompt), prompt, raw_text, model_id)


class _ReplayBackend:
    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self.store = ReplayStore(cfg.fixture_path)

    def complete(self, prompt: str) -> Completion:
        digest = prompt_digest(prompt)
        entry = self.store.get(digest)
        if entry is None:
            raise ReplayMissError(f"{self.cfg.fixture_path}: no recorded completion for digest {digest}")
        meta = {"model_id": entry.get("model_id", ""), "source": "replay"}
        return Completion(prompt_digest=digest, raw_text=entry["raw_text"], backend_meta=meta)


class _HttpBackend:
    def __init__(self, cfg: BackendConfig):
        # Imported here, on the one path that sends a request, so that no
        # other command pays for loading the HTTP client at start-up.
        import base64
        import http.client
        from urllib.parse import unquote, urlsplit
        # _parse_proxy is urllib's own reader of proxy values, so that a
        # value with credentials or without a scheme means what it meant to
        # urllib's opener.
        from urllib.request import _parse_proxy, getproxies, proxy_bypass

        self.cfg = cfg
        key = os.environ.get(cfg.api_key_env, "")
        if not key:
            raise CredentialMissingError(f"environment variable {cfg.api_key_env} is not set")
        self._recorder = _Recorder(cfg.record_path) if cfg.record_path else None
        self._url = cfg.endpoint.rstrip("/") + ("/chat/completions" if cfg.wire == "chat"
                                                 else "/completions")
        self._encode = json.JSONEncoder(allow_nan=False).encode
        parts = urlsplit(self._url)
        scheme, host = parts.scheme, unquote(parts.netloc)
        self._target = parts.path + ("?" + parts.query if parts.query else "")
        # Each attempt opens its own connection and closes it once the body
        # is read, so every request asks for Connection: close.
        self._headers = {"Host": host, "User-Agent": f"elbench/{__version__}",
                         "Authorization": f"Bearer {key}", "Content-Type": "application/json",
                         "Connection": "close"}
        # Proxies are chosen as urllib chooses them, once per backend: an http
        # endpoint is asked of the proxy by its absolute URL, an https one
        # through a CONNECT tunnel that carries the proxy credentials.
        self._tunnel = None
        proxy = getproxies().get(scheme)
        if proxy and not proxy_bypass(host):
            proxy_scheme, user, password, proxy_host = _parse_proxy(proxy)
            auth = {}
            if user and password:
                token = f"{unquote(user)}:{unquote(password)}".encode()
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(token).decode("ascii")
            if scheme == "https":
                self._tunnel = (host, auth)
            else:
                scheme = proxy_scheme or scheme
                self._target = self._url
                self._headers.update(auth)
            host = unquote(proxy_host)
        if scheme == "https":
            # One SSL context for every request: left to itself, each
            # connection would load the CA store again (about 30 ms of CPU).
            import ssl

            self._connection = partial(http.client.HTTPSConnection, host,
                                       timeout=cfg.request_timeout,
                                       context=ssl.create_default_context())
        elif scheme == "http":
            self._connection = partial(http.client.HTTPConnection, host,
                                       timeout=cfg.request_timeout)
        else:
            raise ValueError(f"unsupported proxy scheme {scheme!r} for {self._url}")
        # Timeouts, resets and refused connections are OSErrors;
        # IncompleteRead and BadStatusLine are HTTPExceptions.
        self._transport_errors = (OSError, http.client.HTTPException)

    def _post(self, payload: bytes) -> Tuple[int, HTTPMessage, bytes]:
        """One attempt on its own connection: the status, headers and body
        of whatever the server answered."""
        conn = self._connection()
        try:
            if self._tunnel is not None:
                conn.set_tunnel(self._tunnel[0], headers=self._tunnel[1])
            conn.request("POST", self._target, payload, self._headers)
            with conn.getresponse() as resp:
                return resp.status, resp.headers, resp.read()
        finally:
            conn.close()

    def _body(self, prompt: str) -> Dict[str, object]:
        if self.cfg.wire == "chat":
            return {"model": self.cfg.model_id,
                    "messages": [{"role": "user", "content": prompt}],
                    "temperature": self.cfg.temperature,
                    "max_tokens": self.cfg.max_output_tokens}
        return {"model": self.cfg.model_id, "prompt": prompt,
                "temperature": self.cfg.temperature,
                "max_tokens": self.cfg.max_output_tokens}

    def _extract_text(self, data: dict) -> str:
        try:
            if self.cfg.wire == "chat":
                text = data["choices"][0]["message"]["content"]
            else:
                text = data["choices"][0]["text"]
        except (KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):
            raise HttpStatusError("malformed completion response body", status=200)
        return text

    def complete(self, prompt: str) -> Completion:
        url = self._url
        payload = self._encode(self._body(prompt)).encode("utf-8")
        digest = prompt_digest(prompt)
        last_error: Optional[BackendError] = None
        retry_after = 0.0
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                backoff = self.cfg.retry_backoff * 2 ** (attempt - 1) * random.uniform(0.5, 1.0)
                time.sleep(max(backoff, retry_after))
            retry_after = 0.0
            started = time.monotonic()
            try:
                status, headers, raw = self._post(payload)
            except self._transport_errors as exc:
                last_error = EndpointUnreachableError(f"{url}: {exc}")
                continue
            if status == 429 or status >= 500:
                if status in (429, 503):
                    retry_after = _retry_after_seconds(headers.get("Retry-After"))
                last_error = HttpStatusError(f"{url}: HTTP {status}", status=status)
                continue
            if status != 200:
                text = raw.decode("utf-8", errors="replace")
                raise HttpStatusError(f"{url}: HTTP {status}: {text[:200]}", status=status)
            try:
                data = json.loads(raw)
            except ValueError:
                raise HttpStatusError("completion response is not JSON", status=200)
            raw_text = self._extract_text(data)
            meta: Dict[str, object] = {"model_id": self.cfg.model_id,
                                       "latency_s": round(time.monotonic() - started, 6)}
            if isinstance(data.get("usage"), dict):
                meta["usage"] = data["usage"]
            if self._recorder is not None:
                self._recorder.append(digest, prompt, raw_text, self.cfg.model_id)
            return Completion(prompt_digest=digest, raw_text=raw_text, backend_meta=meta)
        assert last_error is not None
        raise last_error


def _retry_after_seconds(value: Optional[str]) -> float:
    """A Retry-After header given in seconds, at most MAX_RETRY_AFTER_S;
    0 when absent or an HTTP date."""
    value = (value or "").strip()
    if value.isascii() and value.replace(".", "", 1).isdigit():
        return min(float(value), MAX_RETRY_AFTER_S)
    return 0.0


def make_backend(cfg: BackendConfig):
    cfg.validate()
    if cfg.kind == "replay":
        return _ReplayBackend(cfg)
    return _HttpBackend(cfg)


def complete(cfg: BackendConfig, prompt: str) -> Completion:
    return make_backend(cfg).complete(prompt)


def batch_complete(cfg: BackendConfig,
                   prompts: Sequence[str]) -> List[Union[Completion, BackendError]]:
    """Complete many prompts; results align with input order.

    Per-prompt failures are recorded in place as BackendError values and
    never abort the batch; only fatal configuration errors raise.  At most
    cfg.parallelism requests are in flight at once.  Replay answers from
    memory, with nothing to wait for, so it runs inline without threads.
    """
    backend = make_backend(cfg)

    def outcome(prompt: str) -> Union[Completion, BackendError]:
        try:
            return backend.complete(prompt)
        except BackendError as exc:
            return exc

    if cfg.kind == "replay" or cfg.parallelism == 1:
        return list(map(outcome, prompts))
    # cfg.parallelism plain threads take the prompts from one deque and put
    # each result in its slot.  A thread pool would cost its import (about
    # 12 ms, most of it logging) and, per prompt, a future and a wake-up of
    # the waiting caller.
    results: list = [None] * len(prompts)
    pending = deque(enumerate(prompts))
    raised: List[BaseException] = []

    def work() -> None:
        try:
            while True:
                try:
                    index, prompt = pending.popleft()
                except IndexError:
                    return  # every prompt is taken
                results[index] = outcome(prompt)
        except BaseException as exc:
            pending.clear()
            raised.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(cfg.parallelism, len(prompts)))]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        # An interrupt lets the requests in flight finish and starts no more.
        pending.clear()
    if raised:
        raise raised[0]
    return results

"""The one text-completion backend: a replay fixture in front of an
optional OpenAI-compatible HTTP endpoint.

A prompt is answered from the fixture when the fixture holds the answer.
Otherwise the http kind asks the endpoint (plain completions wire by
default, chat wire as a toggle) and appends the answer to the fixture as
soon as it arrives, so a stopped run loses nothing and its rerun asks only
for what is missing.  The replay kind never sends a request: a prompt its
fixture does not hold is a replay-miss.
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
from .records import BadLine, encode_json, read_records

if TYPE_CHECKING:
    from http.client import HTTPMessage

KINDS = ("http", "replay")
WIRES = ("completions", "chat")
# What a live fixture entry must share with the config to answer for it.
LIVE_FIELDS = ("model_id", "wire", "temperature", "max_output_tokens")
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


@dataclass(slots=True)
class Completion:
    raw_text: str
    backend_meta: Dict[str, object] = field(default_factory=dict)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def fixture_entry(prompt: str, raw_text: str, model_id: str, **live: object) -> bytes:
    """One replay fixture line, in UTF-8.  A live answer's line also carries
    live: the wire, temperature and max_output_tokens it was asked with.

    A lone surrogate, such as half of a "\\ud83d\\ude00" escape cut off by
    the token limit, has no UTF-8 form; it can only sit in a JSON string,
    where backslashreplace writes it as its JSON escape, which reads back as
    itself.
    """
    line = encode_json({"digest": prompt_digest(prompt), "prompt": prompt,
                        "raw_text": raw_text, "model_id": model_id, **live}) + "\n"
    return line.encode("utf-8", "backslashreplace")


def load_fixture(path: str, fields: Tuple[str, ...] = ()) -> Dict[tuple, Dict[str, object]]:
    """A replay fixture's entries, each under (digest, *its values of fields).

    The fixture is JSONL of {digest, prompt, raw_text, model_id}, live
    entries with the rest of LIVE_FIELDS too.  The file is a journal, so of
    two entries under one key the later wins.
    """
    entries: Dict[tuple, Dict[str, object]] = {}

    def check(entry: Dict[str, object], lineno: int) -> None:
        if not (isinstance(entry.get("digest"), str) and isinstance(entry.get("raw_text"), str)):
            raise BadLine("digest and raw_text must be strings")
        if not isinstance(entry.get("model_id", ""), str):
            raise BadLine("model_id must be a string")
        if any(isinstance(entry.get(name), (list, dict)) for name in fields):
            raise BadLine(f"{', '.join(fields)} must not be arrays or objects")
        entries[(entry["digest"], *map(entry.get, fields))] = entry

    # An answer cut inside a surrogate pair is kept: link skips its link.
    read_records(path, check, lone_surrogates=True)
    return entries


class Backend:
    """Answers a prompt from the fixture when it holds the answer, else, for
    the http kind, from the endpoint.

    The replay kind takes any entry with the prompt's digest.  The http kind
    takes only an entry whose LIVE_FIELDS equal the config's, so one model's
    answer is never served as another's; its fixture, which need not exist
    yet, gets each answer from the endpoint appended as it arrives.  The
    fixture is read once, when the backend is made, and never changes.
    """

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        fields = LIVE_FIELDS if cfg.kind == "http" else ()
        self._wanted = tuple(getattr(cfg, name) for name in fields)
        # A replay fixture must exist.  An http fixture that does not exist
        # yet, or no fixture at all, holds no answers.
        self._fixture: Dict[tuple, Dict[str, object]] = {}
        if cfg.fixture_path and (not fields or os.path.exists(cfg.fixture_path)):
            self._fixture = load_fixture(cfg.fixture_path, fields)
        if not fields:
            return  # replay sends nothing
        self._lock = threading.Lock()  # one append to the fixture at a time
        # Imported here, on the one path that sends a request, so that no
        # other command pays for loading the HTTP client at start-up.
        import base64
        import http.client
        from urllib.parse import unquote, urlsplit
        # _parse_proxy is urllib's own reader of proxy values, so that a
        # value with credentials or without a scheme means what it meant to
        # urllib's opener.
        from urllib.request import _parse_proxy, getproxies, proxy_bypass

        key = os.environ.get(cfg.api_key_env, "")
        if not key:
            raise CredentialMissingError(f"environment variable {cfg.api_key_env} is not set")
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
        digest = prompt_digest(prompt)
        entry = self._fixture.get((digest, *self._wanted))
        if entry is not None:
            meta = {"model_id": entry.get("model_id", ""), "source": "replay"}
            return Completion(raw_text=entry["raw_text"], backend_meta=meta)
        if self.cfg.kind == "replay":
            raise ReplayMissError(f"{self.cfg.fixture_path}: no recorded completion "
                                  f"for digest {digest}")
        completion = self._request(prompt)
        if self.cfg.fixture_path:
            line = fixture_entry(prompt, completion.raw_text, **dict(zip(LIVE_FIELDS, self._wanted)))
            with self._lock, open(self.cfg.fixture_path, "ab") as handle:
                handle.write(line)
        return completion

    def _request(self, prompt: str) -> Completion:
        url = self._url
        payload = self._encode(self._body(prompt)).encode("utf-8")
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
            # A strict decode: json.loads(bytes) would read CESU-8 bytes as lone
            # surrogates, which the fixture line written from them does not keep.
            try:
                data = json.loads(raw.decode("utf-8-sig"))
            except (ValueError, RecursionError):
                raise HttpStatusError("completion response is not JSON", status=200)
            raw_text = self._extract_text(data)
            meta: Dict[str, object] = {"model_id": self.cfg.model_id,
                                       "latency_s": round(time.monotonic() - started, 6)}
            if isinstance(data.get("usage"), dict):
                meta["usage"] = data["usage"]
            return Completion(raw_text=raw_text, backend_meta=meta)
        assert last_error is not None
        raise last_error


def _retry_after_seconds(value: Optional[str]) -> float:
    """A Retry-After header given in seconds, at most MAX_RETRY_AFTER_S;
    0 when absent or an HTTP date."""
    value = (value or "").strip()
    if value.isascii() and value.replace(".", "", 1).isdigit():
        return min(float(value), MAX_RETRY_AFTER_S)
    return 0.0


def make_backend(cfg: BackendConfig) -> Backend:
    cfg.validate()
    return Backend(cfg)


def batch_complete(cfg: BackendConfig,
                   prompts: Sequence[str]) -> List[Union[Completion, BackendError]]:
    """Complete many prompts; results align with input order.

    Each distinct prompt is completed once, and every slot that holds it
    gets that one Completion or BackendError, so a run never pays twice for
    a prompt.  Per-prompt failures are recorded in place as BackendError
    values and never abort the batch; only fatal configuration errors
    raise.  At most cfg.parallelism requests are in flight at once.  Replay
    answers from memory, with nothing to wait for, so it runs inline
    without threads.
    """
    backend = make_backend(cfg)
    distinct = list(dict.fromkeys(prompts))
    results: Dict[str, Union[Completion, BackendError]] = {}
    pending = deque(distinct)
    raised: List[BaseException] = []

    def work() -> None:
        try:
            while True:
                try:
                    prompt = pending.popleft()
                except IndexError:
                    return  # every prompt is taken
                try:
                    results[prompt] = backend.complete(prompt)
                except BackendError as exc:
                    results[prompt] = exc
        except BaseException as exc:
            pending.clear()
            raised.append(exc)

    if cfg.kind == "replay" or cfg.parallelism == 1:
        work()
    else:
        # cfg.parallelism plain threads take the prompts from one deque.  A
        # thread pool would cost its import (about 12 ms, most of it logging)
        # and, per prompt, a future and a wake-up of the waiting caller.
        threads = [threading.Thread(target=work)
                   for _ in range(min(cfg.parallelism, len(distinct)))]
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
    return [results[prompt] for prompt in prompts]

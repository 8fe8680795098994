import hashlib
import json
import shutil
import socket
import ssl
import subprocess
import threading

import pytest

from elbench import backends
from elbench.backends import (BackendConfig, BackendError, Completion, CredentialMissingError,
                              EndpointUnreachableError, HttpStatusError, ReplayMissError,
                              ReplayStore, batch_complete, complete, make_backend, prompt_digest,
                              record_fixture_entry)


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("EL_API_KEY", "test-key-123")


def http_config(url, **overrides):
    defaults = dict(kind="http", endpoint=url, model_id="test-model",
                    request_timeout=5.0, max_retries=0, retry_backoff=0.01)
    defaults.update(overrides)
    return BackendConfig(**defaults)


@pytest.fixture
def tls_certificate(tmp_path):
    """A self-signed certificate for 127.0.0.1, and a server context presenting it."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not on PATH")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
                    "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
                    "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)],
                   check=True, capture_output=True, timeout=60)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(str(cert), str(key))
    return str(cert), context


def write_fixture(path, entries):
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")


def test_prompt_digest_is_sha256_hex():
    assert prompt_digest("abc") == hashlib.sha256(b"abc").hexdigest()
    assert prompt_digest("café") == hashlib.sha256("café".encode("utf-8")).hexdigest()
    assert prompt_digest("a") != prompt_digest("b")


class TestConfigValidation:
    @pytest.mark.parametrize("overrides,fragment", [
        (dict(kind="grpc"), "backend kind"),
        (dict(kind="http", endpoint=""), "requires an endpoint"),
        (dict(kind="replay", fixture_path=""), "requires a fixture path"),
        (dict(kind="http", endpoint="http://x", temperature=-0.1), "temperature"),
        (dict(kind="http", endpoint="http://x", max_output_tokens=0), "max_output_tokens"),
        (dict(kind="http", endpoint="http://x", parallelism=0), "parallelism"),
        (dict(kind="http", endpoint="http://x", max_retries=-1), "max_retries"),
        (dict(kind="http", endpoint="http://x", wire="telnet"), "wire"),
        (dict(kind="http", endpoint="http://x", temperature=float("nan")), "temperature"),
        (dict(kind="http", endpoint="http://x", temperature=float("inf")), "temperature"),
        (dict(kind="http", endpoint="http://x", request_timeout=0), "request_timeout"),
        (dict(kind="http", endpoint="http://x", request_timeout=-1), "request_timeout"),
        (dict(kind="http", endpoint="http://x", request_timeout=float("inf")), "request_timeout"),
        (dict(kind="http", endpoint="http://x", request_timeout=float("nan")), "request_timeout"),
        (dict(kind="http", endpoint="http://x", retry_backoff=-0.5), "retry_backoff"),
        (dict(kind="http", endpoint="http://x", retry_backoff=float("inf")), "retry_backoff"),
        (dict(kind="http", endpoint="http://x", retry_backoff=float("nan")), "retry_backoff"),
        (dict(kind="http", endpoint="localhost:8080"), "http:// or https:// URL"),
        (dict(kind="http", endpoint="file:///etc/passwd"), "http:// or https:// URL"),
    ])
    def test_invalid(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            BackendConfig(**overrides).validate()

    def test_valid(self):
        BackendConfig(kind="replay", fixture_path="f.jsonl").validate()
        BackendConfig(kind="http", endpoint="http://x", wire="chat").validate()
        BackendConfig(kind="http", endpoint="HTTPS://x", retry_backoff=0).validate()


class TestReplayStore:
    def test_last_wins(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        write_fixture(path, [
            {"digest": "d1", "prompt": "p1", "raw_text": "first", "model_id": "m"},
            {"digest": "d2", "prompt": "p2", "raw_text": "other", "model_id": "m"},
            {"digest": "d1", "prompt": "p1", "raw_text": "second", "model_id": "m"},
        ])
        store = ReplayStore(str(path))
        assert len(store) == 2
        assert store.get("d1")["raw_text"] == "second"
        assert store.get("missing") is None

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        path.write_text('{"digest": "d1", "raw_text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"fix\.jsonl: 1 malformed record\(s\):\nline 2: invalid JSON"):
            ReplayStore(str(path))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        path.write_text('{"digest": "d1"}\n', encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"fix\.jsonl: 1 malformed record\(s\):\nline 1: digest and raw_text"):
            ReplayStore(str(path))

    def test_non_string_fields(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        path.write_text('{"digest": 7, "raw_text": "ok"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="must be strings"):
            ReplayStore(str(path))

    def test_non_string_model_id(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        path.write_text('{"digest": "d1", "raw_text": "ok", "model_id": "m"}\n'
                        '{"digest": "d2", "raw_text": "ok", "model_id": 5}\n'
                        '{"digest": "d3", "raw_text": "ok"}\n'
                        '{"digest": "d4", "raw_text": "ok", "model_id": null}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"fix\.jsonl: 2 malformed record\(s\):\n"
                                             r"line 2: model_id must be a string\n"
                                             r"line 4: model_id must be a string$"):
            ReplayStore(str(path))


class TestReplayBackend:
    def test_hit(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        digest = prompt_digest("the prompt")
        write_fixture(path, [{"digest": digest, "prompt": "the prompt",
                              "raw_text": "[{}]", "model_id": "m-1"}])
        cfg = BackendConfig(kind="replay", fixture_path=str(path))
        result = complete(cfg, "the prompt")
        assert result == Completion(prompt_digest=digest, raw_text="[{}]",
                                    backend_meta={"model_id": "m-1", "source": "replay"})

    def test_miss(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        write_fixture(path, [])
        cfg = BackendConfig(kind="replay", fixture_path=str(path))
        with pytest.raises(ReplayMissError, match="no recorded completion") as err:
            complete(cfg, "never seen")
        assert err.value.code == "replay-miss"


class TestHttpBackend:
    def test_completions_wire(self, stub_server):
        def respond(request):
            return 200, {"choices": [{"text": ' [{"Entities":{}}]'}],
                         "usage": {"total_tokens": 12}}

        server = stub_server(respond)
        result = complete(http_config(server.url + "/v1", temperature=0.25,
                                      max_output_tokens=77), "hello world")
        assert result.raw_text == ' [{"Entities":{}}]'
        assert result.prompt_digest == prompt_digest("hello world")
        assert result.backend_meta["model_id"] == "test-model"
        assert result.backend_meta["usage"] == {"total_tokens": 12}
        assert result.backend_meta["latency_s"] >= 0

        (request,) = server.requests
        assert request["method"] == "POST"
        assert request["path"] == "/v1/completions"
        assert request["headers"]["Authorization"] == "Bearer test-key-123"
        assert request["body"] == {"model": "test-model", "prompt": "hello world",
                                   "temperature": 0.25, "max_tokens": 77}

    def test_chat_wire(self, stub_server):
        server = stub_server(lambda request: (200, {
            "choices": [{"message": {"role": "assistant", "content": "chat text"}}]}))
        result = complete(http_config(server.url, wire="chat"), "ask me")
        assert result.raw_text == "chat text"
        (request,) = server.requests
        assert request["path"] == "/chat/completions"
        assert request["body"]["messages"] == [{"role": "user", "content": "ask me"}]
        assert "prompt" not in request["body"]

    def test_retry_then_success(self, stub_server):
        statuses = iter([429, 503])

        def respond(request):
            status = next(statuses, 200)
            if status != 200:
                return status, {"error": "busy"}
            return 200, {"choices": [{"text": "recovered"}]}

        server = stub_server(respond)
        result = complete(http_config(server.url, max_retries=3), "p")
        assert result.raw_text == "recovered"
        assert len(server.requests) == 3

    def test_retries_exhausted(self, stub_server):
        server = stub_server(lambda request: (503, {"error": "down"}))
        with pytest.raises(HttpStatusError) as err:
            complete(http_config(server.url, max_retries=2), "p")
        assert err.value.status == 503
        assert err.value.code == "http-status"
        assert len(server.requests) == 3

    def test_client_error_not_retried(self, stub_server):
        server = stub_server(lambda request: (401, {"error": "bad key"}))
        with pytest.raises(HttpStatusError, match="HTTP 401") as err:
            complete(http_config(server.url, max_retries=5), "p")
        assert err.value.status == 401
        assert 'HTTP 401: {"error": "bad key"}' in str(err.value)
        assert len(server.requests) == 1

    def test_retry_after_is_the_floor_of_the_next_sleep(self, monkeypatch, stub_server):
        delays = []
        monkeypatch.setattr(backends.time, "sleep", delays.append)
        monkeypatch.setattr(backends.random, "uniform", lambda low, high: high)
        answers = iter([
            (429, {"error": "slow down"}, {"Retry-After": "3"}),
            (503, {"error": "busy"}, {"Retry-After": "0.05"}),  # below the back-off
            (500, {"error": "broken"}, {"Retry-After": "7"}),  # only 429 and 503 count
            (429, {"error": "slow down"}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            (503, {"error": "busy"}, {"Retry-After": "86400"}),  # capped
        ])
        server = stub_server(lambda request: next(answers, (200, {"choices": [{"text": "ok"}]})))
        result = complete(http_config(server.url, max_retries=5, retry_backoff=0.1), "p")
        assert result.raw_text == "ok"
        assert delays == pytest.approx([3.0, 0.2, 0.4, 0.8, backends.MAX_RETRY_AFTER_S])
        assert len(server.requests) == 6

    def test_backoff_is_jittered(self, monkeypatch, stub_server):
        delays, draws = [], []
        factors = iter([0.5, 1.0, 0.75])

        def uniform(low, high):
            draws.append((low, high))
            return next(factors)

        monkeypatch.setattr(backends.time, "sleep", delays.append)
        monkeypatch.setattr(backends.random, "uniform", uniform)
        server = stub_server(lambda request: (503, {"error": "down"}))
        with pytest.raises(HttpStatusError):
            complete(http_config(server.url, max_retries=3, retry_backoff=0.1), "p")
        assert draws == [(0.5, 1.0)] * 3
        assert delays == pytest.approx([0.05, 0.2, 0.3])

    def test_non_json_response(self, stub_server):
        server = stub_server(lambda request: (200, "plain text, not json"))
        with pytest.raises(HttpStatusError, match="not JSON"):
            complete(http_config(server.url), "p")

    def test_malformed_response_body(self, stub_server):
        server = stub_server(lambda request: (200, {"choices": []}))
        with pytest.raises(HttpStatusError, match="malformed completion response"):
            complete(http_config(server.url), "p")

    def test_missing_credential(self, monkeypatch, stub_server):
        monkeypatch.delenv("EL_API_KEY")
        server = stub_server(lambda request: (200, {}))
        with pytest.raises(CredentialMissingError, match="EL_API_KEY") as err:
            complete(http_config(server.url), "p")
        assert err.value.code == "credential-missing"
        assert not server.requests

    def test_custom_credential_env(self, monkeypatch, stub_server):
        monkeypatch.setenv("OTHER_KEY", "sk-other")
        server = stub_server(lambda request: (200, {"choices": [{"text": "ok"}]}))
        complete(http_config(server.url, api_key_env="OTHER_KEY"), "p")
        assert server.requests[0]["headers"]["Authorization"] == "Bearer sk-other"

    def test_unreachable_endpoint(self):
        cfg = http_config("http://127.0.0.1:9", request_timeout=0.2)
        with pytest.raises(EndpointUnreachableError) as err:
            complete(cfg, "p")
        assert err.value.code == "endpoint-unreachable"

    def test_https_uses_one_default_context(self, monkeypatch, stub_server, tls_certificate):
        cert, server_context = tls_certificate
        server = stub_server(lambda request: (200, {"choices": [{"text": "secure"}]}),
                             ssl_context=server_context)
        cfg = http_config(server.url)
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        # The default context verifies against the system CA store, which
        # does not hold the test certificate.
        with pytest.raises(EndpointUnreachableError, match="CERTIFICATE_VERIFY_FAILED"):
            complete(cfg, "p")

        contexts = []

        def default_context_trusting_cert():
            contexts.append(default_context())
            contexts[-1].load_verify_locations(cert)
            return contexts[-1]

        default_context = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", default_context_trusting_cert)
        backend = make_backend(cfg)
        assert [backend.complete(f"p{i}").raw_text for i in range(3)] == ["secure"] * 3
        assert len(contexts) == 1  # one context, and one CA load, per backend
        assert len(server.requests) == 3

    def test_proxy_read_from_the_environment(self, monkeypatch, stub_server):
        proxy = stub_server(lambda request: (200, {"choices": [{"text": "via proxy"}]}))
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", proxy.url)
        result = complete(http_config("http://model.invalid/v1"), "p")
        assert result.raw_text == "via proxy"
        (request,) = proxy.requests
        assert request["path"] == "/v1/completions"
        assert request["headers"]["Host"] == "model.invalid"

    @pytest.mark.parametrize("reply", [
        b"",  # closed with no reply: BadStatusLine / ConnectionReset
        b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{\"choices\"",  # IncompleteRead
    ], ids=["no-reply", "truncated-body"])
    def test_connection_closed_early_is_retried(self, reply):
        accepted = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5)

            def serve():
                for _ in range(3):
                    conn, _ = listener.accept()
                    with conn:
                        conn.recv(65536)
                        conn.sendall(reply)
                    accepted.append(conn)

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            url = "http://127.0.0.1:%d" % listener.getsockname()[1]
            with pytest.raises(EndpointUnreachableError) as err:
                complete(http_config(url, max_retries=2), "p")
            thread.join(5)
        assert not thread.is_alive()
        assert err.value.code == "endpoint-unreachable"
        assert len(accepted) == 3

    def test_slow_answer_times_out(self, stub_server):
        release = threading.Event()

        def respond(request):
            release.wait(5)
            return 200, {"choices": [{"text": "too late"}]}

        server = stub_server(respond)
        try:
            with pytest.raises(EndpointUnreachableError, match="timed out") as err:
                complete(http_config(server.url, request_timeout=0.2), "p")
        finally:
            release.set()
        assert err.value.code == "endpoint-unreachable"

    def test_recording_round_trips_through_replay(self, tmp_path, stub_server):
        server = stub_server(lambda request: (200, {
            "choices": [{"text": "answer for " + request["body"]["prompt"]}]}))
        record = tmp_path / "recorded.jsonl"
        cfg = http_config(server.url, record_path=str(record))
        complete(cfg, "first prompt")
        complete(cfg, "second prompt")

        replay_cfg = BackendConfig(kind="replay", fixture_path=str(record))
        assert complete(replay_cfg, "first prompt").raw_text == "answer for first prompt"
        assert complete(replay_cfg, "second prompt").raw_text == "answer for second prompt"
        entries = [json.loads(line) for line in record.read_text(encoding="utf-8").splitlines()]
        assert [e["prompt"] for e in entries] == ["first prompt", "second prompt"]
        assert all(e["digest"] == prompt_digest(e["prompt"]) for e in entries)
        assert all(e["model_id"] == "test-model" for e in entries)


def test_record_fixture_entry_helper(tmp_path):
    path = tmp_path / "fix.jsonl"
    path.touch()
    record_fixture_entry(str(path), "p", "out", model_id="m")
    store = ReplayStore(str(path))
    assert store.get(prompt_digest("p"))["raw_text"] == "out"


class TestBatchComplete:
    def test_order_preserved_with_errors_in_place(self, tmp_path, monkeypatch):
        """A replay batch runs inline: a dict lookup has no wait for threads to overlap."""
        def no_thread(self):
            raise AssertionError(f"replay started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        path = tmp_path / "fix.jsonl"
        write_fixture(path, [
            {"digest": prompt_digest("a"), "prompt": "a", "raw_text": "ra", "model_id": "m"},
            {"digest": prompt_digest("c"), "prompt": "c", "raw_text": "rc", "model_id": "m"},
        ])
        cfg = BackendConfig(kind="replay", fixture_path=str(path), parallelism=3)
        results = batch_complete(cfg, ["a", "b", "c"])
        assert [type(r) for r in results] == [Completion, ReplayMissError, Completion]
        assert results[0].raw_text == "ra"
        assert results[2].raw_text == "rc"
        assert isinstance(results[1], BackendError)

    def test_empty(self, tmp_path):
        path = tmp_path / "fix.jsonl"
        write_fixture(path, [])
        assert batch_complete(BackendConfig(kind="replay", fixture_path=str(path)), []) == []

    def test_parallelism_bounded(self, stub_server):
        peak = [0]
        lock = threading.Lock()
        active = [0]

        def respond(request):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                return 200, {"choices": [{"text": "x"}]}
            finally:
                with lock:
                    active[0] -= 1

        server = stub_server(respond)
        cfg = http_config(server.url, parallelism=2)
        results = batch_complete(cfg, [f"prompt {i}" for i in range(8)])
        assert all(isinstance(r, Completion) for r in results)
        assert len(server.requests) == 8
        assert peak[0] <= 2

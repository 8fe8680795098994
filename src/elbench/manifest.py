"""Run manifests: input digests and parameters stamped into artifacts.

Two runs with equal manifests and a replay backend produce byte-identical
artifacts.  The timestamp honors SOURCE_DATE_EPOCH so reruns can be made
byte-stable; without it, wall-clock UTC is recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from . import __version__


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_digest(config: object) -> str:
    """Stable digest of a config dataclass (credentials are never in one)."""
    payload = dataclasses.asdict(config) if dataclasses.is_dataclass(config) else dict(config)
    return text_sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False))


def manifest_timestamp() -> str:
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(raw) if raw else None))


@dataclass(frozen=True)
class RunManifest:
    timestamp: str
    tool_version: str
    inputs: Tuple[Tuple[str, str, str], ...] = ()  # (name, path, sha256)
    template_version: str = ""
    template_sha256: str = ""
    backend_digest: str = ""
    backend_kind: str = ""
    backend_model: Union[str, Tuple[str, ...]] = ""
    params: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "tool": {"name": "elbench", "version": self.tool_version},
            "timestamp": self.timestamp,
            "inputs": {name: {"path": path, "sha256": sha} for name, path, sha in self.inputs},
        }
        if self.template_version or self.template_sha256:
            out["template"] = {"version": self.template_version, "sha256": self.template_sha256}
        if self.backend_digest:
            model = self.backend_model
            out["backend"] = {"digest": self.backend_digest, "kind": self.backend_kind,
                              "model_id": model if isinstance(model, str) else list(model)}
        if self.params:
            out["params"] = dict(self.params)
        return out


def build_run_manifest(inputs: Mapping[str, str],
                       template_text: Optional[str] = None,
                       template_version: str = "",
                       backend_config: Optional[object] = None,
                       params: Optional[Mapping[str, object]] = None,
                       backend_model: Union[str, Sequence[str]] = "") -> RunManifest:
    """Digest every named input file and assemble the manifest.

    backend_model is the model that answered, one ID or several.
    """
    stamped = tuple((name, path, file_sha256(path)) for name, path in inputs.items())
    backend_digest = backend_kind = ""
    if backend_config is not None:
        backend_digest = config_digest(backend_config)
        backend_kind = getattr(backend_config, "kind", "")
    model = backend_model if isinstance(backend_model, str) else tuple(backend_model)
    return RunManifest(
        timestamp=manifest_timestamp(),
        tool_version=__version__,
        inputs=stamped,
        template_version=template_version,
        template_sha256=text_sha256(template_text) if template_text is not None else "",
        backend_digest=backend_digest,
        backend_kind=backend_kind,
        backend_model=model,
        params=tuple((key, str(value)) for key, value in (params or {}).items()),
    )


def write_manifest(manifest: RunManifest, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")

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
from typing import Dict, Mapping, Optional, Sequence, Union

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


def build_run_manifest(inputs: Mapping[str, str],
                       template_text: Optional[str] = None,
                       template_version: str = "",
                       backend_config: Optional[object] = None,
                       params: Optional[Mapping[str, object]] = None,
                       backend_model: Union[str, Sequence[str]] = "") -> Dict[str, object]:
    """Digest every named input file and assemble the manifest, as the JSON
    object that write_manifest writes and reports embed.

    backend_model is the model that answered, one ID or several.
    """
    manifest: Dict[str, object] = {
        "tool": {"name": "elbench", "version": __version__},
        "timestamp": manifest_timestamp(),
        "inputs": {name: {"path": path, "sha256": file_sha256(path)}
                   for name, path in inputs.items()},
    }
    if template_text is not None:
        manifest["template"] = {"version": template_version, "sha256": text_sha256(template_text)}
    if backend_config is not None:
        manifest["backend"] = {"digest": config_digest(backend_config),
                               "kind": getattr(backend_config, "kind", ""),
                               "model_id": backend_model if isinstance(backend_model, str)
                               else list(backend_model)}
    if params:
        manifest["params"] = {key: str(value) for key, value in params.items()}
    return manifest


def write_manifest(manifest: Mapping[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")

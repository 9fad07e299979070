"""Deterministic analysis reports, as text or JSON.

Every numeric claim carries its exact scalar string; no timing or other
run-dependent data is embedded, so reports are byte-identical across runs
for fixed input, flags and version.

The input digest is the SHA-256 of the canonical JSON, taken with the
interpreter's built-in hash module (``_sha2`` from CPython 3.12,
``_sha256`` before): ``hashlib`` loads OpenSSL's libcrypto, which adds
about 3.3 MB to the peak memory of an analysis.  ``hashlib`` is the
fallback where neither module is built in.
"""

from __future__ import annotations

import json

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

VERSION = "0.1.0"


class Section:
    def __init__(self, name, status, items):
        self.name = name
        self.status = status          # "pass" / "fail" / "inapplicable"
        self.items = list(items)      # ordered (key, value-string) pairs


class Report:
    def __init__(self, input_digest, sections, status):
        self.input_digest = input_digest
        self.version = VERSION
        self.sections = list(sections)
        self.status = status          # "pass" / "fail" / "error"

    def to_text(self):
        lines = []
        lines.append(f"frobdiv report (version {self.version})")
        lines.append(f"input digest: {self.input_digest}")
        for sec in self.sections:
            lines.append("")
            lines.append(f"[{sec.status.upper()}] {sec.name}")
            for key, value in sec.items:
                lines.append(f"  {key}: {value}")
        lines.append("")
        lines.append(f"overall: {self.status.upper()}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "version": self.version,
            "input_digest": self.input_digest,
            "sections": [
                {"name": s.name, "status": s.status,
                 "items": [[k, v] for k, v in s.items]}
                for s in self.sections
            ],
            "status": self.status,
        }

    def dumps_json(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def input_digest(canonical_input: str) -> str:
    return sha256(canonical_input.encode()).hexdigest()

"""Append-only result persistence with config-digest deduplication.

Layout under the store root (CLI --out-dir, else $DICKE_ED_RESULTS, else
./results):

    manifest.jsonl        one JSON line per run: digest, command, timestamp,
                          version, schema, file list, wall seconds, config
    <command>-<digest>-<tag>*.csv  the run outputs; never overwritten.  The
                          tag digests the version and CSV schema, so another
                          version's outputs never share a name with this one's
    <digest>.config.json      the exact configuration, re-executable

A run whose config digest already appears in the manifest, recorded by the
same package version and CSV schema, with its files still present, is a cache
hit; callers re-emit the stored primary file so repeated identical
invocations produce identical output.  Entries recorded by other code are
ignored, so a hit never re-emits bytes another version computed.  Outputs and
configs are written to a temporary file and renamed into place, so an
interrupted run leaves no partial file behind; a manifest line torn by such a
run is skipped (a cache miss) and the next entry starts on a fresh line.
"""

import functools
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from _blake2 import blake2b  # hashlib's own BLAKE2b; importing hashlib loads OpenSSL

from . import __version__

__all__ = ["ResultStore", "config_digest", "describe_version", "CSV_SCHEMA_VERSION"]

CSV_SCHEMA_VERSION = 1
ENV_ROOT = "DICKE_ED_RESULTS"


def config_digest(config: dict) -> str:
    """Stable 16-hex digest of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return blake2b(canon.encode(), digest_size=8).hexdigest()


@functools.cache
def describe_version() -> str:
    """Package version plus a digest of the package's source files.

    Any edit to a module changes it, so the store never re-emits bytes that
    other code computed, in a checkout or out of one.  Computed once per
    process.
    """
    here = os.path.dirname(__file__)
    digest = blake2b(digest_size=6)
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return f"{__version__}+src.{digest.hexdigest()}"


def _write_atomic(path: Path, text: str) -> None:
    """Write to a temporary sibling and rename it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ResultStore:
    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(ENV_ROOT, "results")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest = self.root / "manifest.jsonl"

    def entries(self) -> list[dict]:
        """Manifest entries in file order, skipping any line that is not a
        JSON object (blank, or torn by a run that died mid-append)."""
        if not self.manifest.exists():
            return []
        out = []
        with open(self.manifest) as fh:
            for line in fh:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    out.append(entry)
        return out

    def lookup(self, digest: str) -> dict | None:
        """Most recent manifest entry for this digest, recorded by this version
        and CSV schema, whose files all exist."""
        version = describe_version()
        hit = None
        for entry in self.entries():
            if (entry.get("digest") == digest
                    and entry.get("version") == version
                    and entry.get("schema") == CSV_SCHEMA_VERSION
                    and all((self.root / f).exists() for f in entry.get("files", []))):
                hit = entry
        return hit

    def record(self, digest: str, command: str, files: list[str],
               wall_s: float, config: dict) -> dict:
        entry = {
            "digest": digest,
            "command": command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": describe_version(),
            "schema": CSV_SCHEMA_VERSION,
            "files": files,
            "wall_s": round(wall_s, 3),
        }
        cfg_path = self.root / f"{digest}.config.json"
        if not cfg_path.exists():
            _write_atomic(cfg_path, json.dumps(config, sort_keys=True, indent=1) + "\n")
        with open(self.manifest, "ab+") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":  # end a line torn mid-append
                    fh.write(b"\n")
            fh.write((json.dumps(entry, sort_keys=True) + "\n").encode())
        return entry

    def output_stem(self, command: str, digest: str) -> str:
        """File-name stem of a run's outputs, specific to this code version."""
        tag = config_digest({"version": describe_version(), "schema": CSV_SCHEMA_VERSION})
        return f"{command}-{digest}-{tag[:8]}"

    def write_text(self, name: str, text: str) -> Path:
        """Write a run output atomically; refuses to clobber differing content."""
        path = self.root / name
        if path.exists() and path.read_text() != text:
            raise FileExistsError(f"refusing to overwrite {path} with different content")
        _write_atomic(path, text)
        return path

    def read_text(self, name: str) -> str:
        return (self.root / name).read_text()

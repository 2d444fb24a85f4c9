"""File-backed result cache keyed by content hash.

Corrupt or tampered entries are detected by checksum and treated as misses;
every failure degrades to recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os

ENV_CACHE_DIR = "BSATLAS_CACHE_DIR"


def default_cache_dir():
    """``$BSATLAS_CACHE_DIR`` if set, else ``~/.cache/bsatlas`` (a per-user root, not the shared /tmp)."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "bsatlas")


def _path_for(cache_dir, key):
    return os.path.join(cache_dir, f"{key}.json")


def store(key, payload, cache_dir=None):
    """Write a JSON payload under the key; returns the path (best effort)."""
    cache_dir = cache_dir or default_cache_dir()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        body = json.dumps(payload, sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        wrapped = json.dumps({"checksum": digest, "payload": payload}, sort_keys=True)
        path = _path_for(cache_dir, key)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(wrapped)
        os.replace(tmp, path)
        return path
    except OSError:
        return None


def load(key, cache_dir=None):
    """Return the stored payload, or None on miss/corruption."""
    cache_dir = cache_dir or default_cache_dir()
    path = _path_for(cache_dir, key)
    try:
        with open(path) as fh:
            wrapped = json.load(fh)
        body = json.dumps(wrapped["payload"], sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != wrapped.get("checksum"):
            return None
        return wrapped["payload"]
    except (OSError, ValueError, KeyError):
        return None


"""Offline-first OEIS b-file client with an on-disk cache.

Fetched values are corroboration only; nothing in the package treats them as
ground truth.  The fetcher is injectable so tests never touch the network.
"""

from __future__ import annotations

import os
import re
import tempfile
import urllib.request
from pathlib import Path


class OeisError(RuntimeError):
    pass


def _default_fetcher(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode()


class OeisClient:
    def __init__(self, cache_dir=None, fetcher=None, offline=False):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.fetcher = fetcher or _default_fetcher
        self.offline = offline

    def _cache_path(self, seq_id):
        if self.cache_dir is None:
            return None
        return self.cache_dir / "oeis" / f"b{seq_id[1:]}.txt"

    def b_file(self, seq_id):
        """[(index, value), ...] for the sequence, from cache or the site."""
        if not re.fullmatch(r"A\d{6}", seq_id):
            raise ValueError(f"bad sequence id {seq_id!r}")
        path = self._cache_path(seq_id)
        text = None
        if path is not None and path.exists():
            text = path.read_text()
        elif self.offline:
            raise OeisError(f"{seq_id}: offline and not cached")
        else:
            url = f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"
            try:
                text = self.fetcher(url)
            except Exception as exc:
                raise OeisError(f"{seq_id}: fetch failed ({exc})") from exc
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
        return _parse_b_file(text)

    def compare(self, seq_id, ours, offset=0):
        """Compare {index: value} pairs we derived against the b-file,
        shifting our index by offset; returns a report dict."""
        return _compare(seq_id, self.b_file(seq_id), ours, offset)


def _compare(seq_id, b_file, ours, offset):
    """OeisClient.compare against the (index, value) pairs of a loaded
    b-file."""
    ref = dict(b_file)
    checked, mismatches = 0, []
    for n, v in sorted(ours.items()):
        idx = n + offset
        if idx in ref:
            checked += 1
            if ref[idx] != v:
                mismatches.append((n, v, ref[idx]))
    return {"id": seq_id, "checked": checked,
            "mismatches": mismatches, "ok": not mismatches and checked > 0}


def _parse_b_file(text):
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise OeisError(f"bad b-file line {line!r}")
        out.append((int(parts[0]), int(parts[1])))
    return out

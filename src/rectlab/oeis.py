"""Offline-first OEIS b-file client with an on-disk cache.

Fetched values are corroboration only; nothing in the package treats them as
ground truth.  The fetcher is injectable so tests never touch the network.
"""

from __future__ import annotations

import re
from pathlib import Path

from .universe import _write_atomic


B_FILE_URL = "https://oeis.org/{id}/b{num}.txt"


class OeisError(RuntimeError):
    pass


def _default_fetcher(url: str) -> str:
    # imported here, not at the top: urllib.request loads http.client, email,
    # ssl and socket, which only a cache miss needs
    import urllib.request

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
        if path is not None and path.exists():
            return _parse_b_file(path.read_text(encoding="utf-8"))
        if self.offline:
            raise OeisError(f"{seq_id}: offline and not cached")
        try:
            text = self.fetcher(B_FILE_URL.format(id=seq_id, num=seq_id[1:]))
        except Exception as exc:
            raise OeisError(f"{seq_id}: fetch failed ({exc})") from exc
        pairs = _parse_b_file(text)  # first, so a bad download is not cached
        if path is not None:
            _write_atomic(path, [text.encode()])
        return pairs


def compare(seq_id, b_file, ours, offset=0):
    """Compare {index: value} pairs we derived against the (index, value)
    pairs of a loaded b-file, shifting our index by offset; returns a
    report dict."""
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
        try:
            index, value = map(int, line.split())
        except ValueError:
            raise OeisError(f"bad b-file line {line!r}") from None
        out.append((index, value))
    return out

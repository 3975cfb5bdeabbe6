"""WARC (Web ARChive, ISO 28500) source + sink, from the public spec.

Common Crawl — the corpus the north rule's pages table models — ships as
WARC: a concatenation of records, each

    WARC/1.0<CRLF>
    Header-Name: value<CRLF> ...            (named fields, any order)
    <CRLF>                                  (blank line ends the header)
    <exactly Content-Length bytes>          (the content block)
    <CRLF><CRLF>                            (record terminator)

and, in the `.warc.gz` layout, each record is its OWN gzip member so a
reader can start mid-file at any member boundary (this is what makes the
format range-splittable at 100 TB — the same property row groups give
parquet, see `sources/parquet.py`).

Reader design (Ray-Data-first):

- ``read_warc`` plans one ``ReadTask`` per byte range of each ``.warc.gz``
  file. A task seeks to its range start, scans forward to the first gzip
  member whose decompressed bytes start with ``b"WARC/"`` (a gzip magic
  inside compressed payload fails that validation), then parses every
  record whose member STARTS inside ``[start, end)`` — records straddling
  the range end are finished by the task that owns their start, so each
  record is emitted exactly once regardless of the split grid.
- Plain ``.warc`` files get ONE task per file: un-framed record headers
  can be forged inside a content block, so arbitrary-offset resync on the
  uncompressed form is ambiguous by construction (the reference CC tooling
  splits only on gzip members for the same reason). Shard plain output
  across files instead.
- The per-record header parse is a Python loop, but a record is a whole
  page payload (KBs-MBs): wall time is decompression + IO, not the ~10
  header-line splits per record. Payload bytes pass through untouched
  (the north star's byte-identical-text-per-url invariant).

Writer design: ``write_warc`` is a distributed sink — every input block
writes its own ``.warc.gz`` shard (one gzip member per record, mtime=0 so
bytes are deterministic) and emits a manifest row; nothing funnels through
a driver file handle, and a partial run resumes by diffing manifest shard
names. Record identity (WARC-Record-ID) is a UUID derived from
md5(url, date) — stable across reruns, per the spec's urn:uuid form.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import zlib

import pyarrow as pa
import ray
import ray.data as rd

from pyrosm_ray.stages.blocks import unreserved

_CRLF = b"\r\n"
_GZ_MAGIC = b"\x1f\x8b\x08"
_DEFAULT_RANGE_BYTES = 32 << 20

_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_date", pa.string()),
    ("warc_type", pa.string()),
    ("record_id", pa.string()),
    ("content_type", pa.string()),
    ("payload", pa.large_binary()),
])


# ---------------------------------------------------------------------------
# record encode / decode (pure bytes <-> fields; shared by reader + writer)
# ---------------------------------------------------------------------------

def _record_uuid(url: str, date: str) -> str:
    h = hashlib.md5(f"{url}\x00{date}".encode()).hexdigest()
    return (f"<urn:uuid:{h[:8]}-{h[8:12]}-{h[12:16]}-"
            f"{h[16:20]}-{h[20:32]}>")


def encode_record(url: str, date: str, payload: bytes,
                  warc_type: str = "resource",
                  content_type: str = "text/html") -> bytes:
    """One WARC record as bytes. ``warc_type="response"`` wraps the
    payload in a minimal HTTP/1.1 200 block (the Common-Crawl shape);
    ``"resource"`` stores the payload as the content block verbatim."""
    if warc_type == "response":
        http = (b"HTTP/1.1 200 OK\r\nContent-Type: "
                + content_type.encode()
                + b"\r\nContent-Length: " + str(len(payload)).encode()
                + b"\r\n\r\n" + payload)
        block, ctype = http, ("application/http; msgtype=response")
    else:
        block, ctype = payload, content_type
    head = (b"WARC/1.0\r\n"
            b"WARC-Type: " + warc_type.encode() + _CRLF
            + b"WARC-Record-ID: " + _record_uuid(url, date).encode()
            + _CRLF
            + b"WARC-Date: " + date.encode() + _CRLF
            + b"WARC-Target-URI: " + url.encode() + _CRLF
            + b"Content-Type: " + ctype.encode() + _CRLF
            + b"Content-Length: " + str(len(block)).encode() + _CRLF
            + _CRLF)
    return head + block + _CRLF + _CRLF


def _parse_records(buf: bytes):
    """Yield (offset, headers_dict, block_bytes) for each record. ``buf``
    must begin at a record boundary. Stops cleanly at a truncated tail."""
    pos, n = 0, len(buf)
    while pos < n:
        hdr_end = buf.find(_CRLF + _CRLF, pos)
        if hdr_end < 0 or not buf.startswith(b"WARC/", pos):
            return
        lines = buf[pos:hdr_end].split(_CRLF)
        headers: dict[str, str] = {}
        for ln in lines[1:]:
            k, _, v = ln.partition(b":")
            headers[k.strip().decode("latin-1").lower()] = \
                v.strip().decode("latin-1")
        try:
            clen = int(headers.get("content-length", ""))
        except ValueError:
            return
        block_start = hdr_end + 4
        block_end = block_start + clen
        if block_end > n:
            return  # truncated record: owned by nobody, file is short
        yield pos, headers, buf[block_start:block_end]
        pos = block_end
        # spec terminator = 2 CRLFs; tolerate files that omit the final one
        while buf.startswith(_CRLF, pos):
            pos += 2


def _http_payload(block: bytes) -> bytes:
    """Strip the HTTP response header from a msgtype=response block."""
    sep = block.find(_CRLF + _CRLF)
    return block[sep + 4:] if sep >= 0 else block


def _records_to_table(recs, record_types) -> pa.Table:
    urls, dates, types, rids, ctypes, payloads = [], [], [], [], [], []
    for _, headers, block in recs:
        wt = headers.get("warc-type", "")
        if record_types is not None and wt not in record_types:
            continue
        ct = headers.get("content-type", "")
        if wt == "response" and ct.startswith("application/http"):
            payload = _http_payload(block)
        else:
            payload = block
        urls.append(headers.get("warc-target-uri", ""))
        dates.append(headers.get("warc-date", ""))
        types.append(wt)
        rids.append(headers.get("warc-record-id", ""))
        ctypes.append(ct)
        payloads.append(payload)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_date": pa.array(dates, pa.string()),
        "warc_type": pa.array(types, pa.string()),
        "record_id": pa.array(rids, pa.string()),
        "content_type": pa.array(ctypes, pa.string()),
        "payload": pa.array(payloads, pa.large_binary()),
    })


# ---------------------------------------------------------------------------
# gz member scan (the range-split resync)
# ---------------------------------------------------------------------------

def _member_at(data: bytes, off: int) -> bool:
    """True iff a gzip member starting at ``off`` decompresses to bytes
    beginning with ``WARC/`` — validates magic candidates found inside
    compressed payload away (they fail either the inflate or the prefix)."""
    try:
        d = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        head = d.decompress(data[off:off + 4096], 64)
        return head.startswith(b"WARC/")
    except zlib.error:
        return False


def _scan_members(data: bytes, base: int, lo: int, hi: int) -> list[int]:
    """Absolute file offsets of every validated gzip member whose first
    byte lies in ``[lo, hi)``; ``data`` starts at file offset ``base``."""
    out = []
    pos = max(lo - base, 0)
    end = hi - base
    while True:
        i = data.find(_GZ_MAGIC, pos)
        if i < 0 or i >= end:
            return out
        if _member_at(data, i):
            out.append(base + i)
        pos = i + 1


def _read_gz_range(path: str, start: int, end: int,
                   record_types) -> pa.Table:
    """Parse every record whose gzip member starts in [start, end).

    The buffer is cut at the exact end of the LAST in-range member
    (located by inflating it once with a ``decompressobj`` and reading
    how many compressed bytes it consumed), so trailing members that
    start at or past ``end`` — the next task's property — are never
    decoded here: each record is emitted by exactly one task."""
    fsize = os.path.getsize(path)
    with open(path, "rb") as f:
        f.seek(start)
        # range bytes + slack to finish a straddling final member
        # (members are page-sized; extend below if one outruns 4 ranges)
        data = f.read(min(fsize, end + 4 * (end - start)) - start)
        while True:
            members = _scan_members(data, start, start, end)
            if not members:
                return _records_to_table([], record_types)
            tail = data[members[-1] - start:]
            d = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
            try:
                d.decompress(tail)
                complete = d.eof
            except zlib.error:
                complete = False
            if complete:
                last_end = (members[-1] - start
                            + (len(tail) - len(d.unused_data)))
                blob = data[members[0] - start:last_end]
                break
            if start + len(data) >= fsize:
                blob = data[members[0] - start:]  # truncated file tail
                break
            f.seek(start + len(data))
            data += f.read(max(end - start, 1 << 20))
    buf = _gunzip_members(blob)
    return _records_to_table(list(_parse_records(buf)), record_types)


def _gunzip_members(blob: bytes) -> bytes:
    """Decompress concatenated gzip members (tolerating a truncated final
    member, whose records belong to this task only up to completion)."""
    out, pos, n = [], 0, len(blob)
    while pos < n:
        d = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        try:
            out.append(d.decompress(blob[pos:]))
        except zlib.error:
            break
        if not d.unused_data:
            break
        pos = n - len(d.unused_data)
    return b"".join(out)


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

def _warc_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(e.path for e in os.scandir(path)
                      if e.name.endswith((".warc", ".warc.gz")))
    return [path]


def read_warc(path: str, record_types=("response", "resource"),
              target_bytes: int = _DEFAULT_RANGE_BYTES,
              num_blocks: int | None = None) -> "rd.Dataset":
    """Dataset over WARC record fields (see ``_SCHEMA``). ``.warc.gz``
    files split into ``target_bytes`` ranges (one ReadTask each);
    plain ``.warc`` is one task per file (see module doc)."""
    files = _warc_files(path)
    rtypes = tuple(record_types) if record_types is not None else None
    if num_blocks:
        total = sum(os.path.getsize(f) for f in files)
        target_bytes = max(1 << 16, total // num_blocks)
    tasks: list[tuple[str, int, int]] = []
    for f in files:
        size = os.path.getsize(f)
        if f.endswith(".gz"):
            nr = max(1, -(-size // target_bytes))
            step = -(-size // nr)
            tasks += [(f, i * step, min((i + 1) * step, size))
                      for i in range(nr)]
        else:
            tasks.append((f, 0, size))
    return unreserved(rd.read_datasource(_WarcDatasource(tasks, rtypes),
                                         override_num_blocks=len(tasks)))


from ray.data.datasource import Datasource as _Datasource


class _WarcDatasource(_Datasource):
    def __init__(self, tasks, record_types):
        self._tasks = tasks
        self._record_types = record_types

    def estimate_inmemory_data_size(self):
        return sum(e - s for _, s, e in self._tasks)

    def get_name(self) -> str:
        return "WARC"

    def get_read_tasks(self, parallelism: int):
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask
        rtypes = self._record_types
        out = []
        for path, start, end in self._tasks:
            def _read(path=path, start=start, end=end):
                if path.endswith(".gz"):
                    return [_read_gz_range(path, start, end, rtypes)]
                with open(path, "rb") as f:
                    buf = f.read()
                return [_records_to_table(list(_parse_records(buf)),
                                          rtypes)]
            out.append(ReadTask(_read, BlockMetadata(
                num_rows=None, size_bytes=end - start, exec_stats=None,
                input_files=[path])))
        return out


# ---------------------------------------------------------------------------
# writer (distributed sink: one shard file per input block)
# ---------------------------------------------------------------------------

def write_warc(ds, out_dir: str, url_col: str = "url",
               date_col: str | None = None,
               payload_col: str = "payload",
               default_date: str = "2026-01-01T00:00:00Z",
               warc_type: str = "resource",
               content_type: str = "text/html",
               compress: bool = True, resume: bool = False) -> pa.Table:
    """Write ``ds`` as sharded ``.warc[.gz]`` under ``out_dir``; returns
    the manifest (shard path, record/byte counts) as a small Arrow table.

    Each input block becomes one shard whose name is derived from its
    first url + row count — deterministic for a fixed blocking, so a
    rerun overwrites in place instead of duplicating, and
    ``resume=True`` skips shards already on disk WITHOUT re-encoding
    them (the killed-run restart contract: only missing partitions pay;
    skipped shards still appear in the manifest, flagged ``resumed``).
    Text payload columns are UTF-8 encoded; binary passes through
    byte-identical."""
    os.makedirs(out_dir, exist_ok=True)
    ext = ".warc.gz" if compress else ".warc"

    def sink(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.string()),
                             "n_records": pa.array([], pa.int64()),
                             "n_bytes": pa.array([], pa.int64()),
                             "resumed": pa.array([], pa.bool_())})
        urls = batch[url_col].to_pylist()
        pay_arr = batch[payload_col]
        if pa.types.is_string(pay_arr.type) \
                or pa.types.is_large_string(pay_arr.type):
            payloads = [p.encode() for p in pay_arr.to_pylist()]
        else:
            payloads = pay_arr.to_pylist()
        dates = (batch[date_col].to_pylist() if date_col
                 else [default_date] * len(urls))
        tag = hashlib.md5(
            f"{urls[0]}\x00{len(urls)}".encode()).hexdigest()[:16]
        shard = os.path.join(out_dir, f"part-{tag}{ext}")
        if resume and os.path.exists(shard):
            return pa.table({
                "shard": pa.array([shard], pa.string()),
                "n_records": pa.array([len(urls)], pa.int64()),
                "n_bytes": pa.array([os.path.getsize(shard)],
                                    pa.int64()),
                "resumed": pa.array([True], pa.bool_()),
            })
        raw = io.BytesIO()
        if compress:
            # one gzip member per record (the CC split contract);
            # mtime=0 -> byte-deterministic shards
            for u, d, p in zip(urls, dates, payloads):
                rec = encode_record(u, str(d), p, warc_type,
                                    content_type)
                raw.write(gzip.compress(rec, mtime=0))
        else:
            for u, d, p in zip(urls, dates, payloads):
                raw.write(encode_record(u, str(d), p, warc_type,
                                        content_type))
        blob = raw.getvalue()
        tmp = f"{shard}.tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, shard)
        return pa.table({
            "shard": pa.array([shard], pa.string()),
            "n_records": pa.array([len(urls)], pa.int64()),
            "n_bytes": pa.array([len(blob)], pa.int64()),
            "resumed": pa.array([False], pa.bool_()),
        })

    # map_batches with the default batch_size=None = one call per block
    return pa.concat_tables(
        ray.get(ds.map_batches(sink, batch_size=None,
                               batch_format="pyarrow").to_arrow_refs()))

#!/usr/bin/env python3
"""rfidcepd end-to-end smoke: stream, SIGTERM, restart, reconcile.

Speaks the daemon's binary protocol (docs/server.md) from stock Python:
frames are u32 length + u32 zlib CRC-32 + payload, little-endian.

Two runs over the same generated trace:

  1. Uninterrupted: launch rfidcepd, stream every batch, flush, read the
     tenant's stats reply. This is the oracle.
  2. Interrupted: fresh state dir, stream the first third (every frame
     individually acknowledged), SIGTERM the daemon (it checkpoints and
     exits 0), relaunch over the same state dir with the same config,
     stream to two thirds, SIGTERM and relaunch again, stream the rest,
     flush, read stats.

After each SIGTERM the tenant's state dir must hold store.img, and its
wal/ nothing at or below the checkpoint: the checkpoint wrote the store
image and trimmed the log down to the one empty segment that carries
the LSN cursor, named for the LSN after the image's. So each relaunch
restarts through the image.

The interrupted run's final stats must equal the oracle's exactly —
observations, matches, rules fired, SQL actions, per-rule fired counts —
proving the checkpoint/restore lifecycle loses nothing and repeats
nothing. The restarted daemon's /metrics and /healthz are scraped too.

Usage: scripts/server_smoke.py --bin=build/src/server/rfidcepd \
           [--events=20000] [--workdir=DIR]
"""

import argparse
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time
import urllib.request
import zlib

MAGIC = 0x50454352
VERSION = 1

T_BATCH, T_ADVANCE, T_FLUSH, T_STATS = 1, 2, 3, 4
T_ACK, T_ERROR, T_STATS_REPLY = 0x80, 0x81, 0x82

RULES = """
  CREATE RULE loc, location update rule
  ON observation(r, o, t)
  IF true
  DO INSERT INTO OBJECTLOCATION VALUES (o, r, t, "UC")

  CREATE RULE dup, duplicate read rule
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
  IF true
  DO raise alarm
"""


def frame(ftype, body=b""):
    payload = bytes([ftype]) + body
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def encode_batch(batch):
    body = struct.pack("<I", len(batch))
    for reader, obj, ts in batch:
        reader = reader.encode()
        obj = obj.encode()
        body += struct.pack("<H", len(reader)) + reader
        body += struct.pack("<H", len(obj)) + obj
        body += struct.pack("<q", ts)
    return frame(T_BATCH, body)


class Client:
    def __init__(self, port, tenant):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.buf = b""
        name = tenant.encode()
        self.sock.sendall(struct.pack("<IHH", MAGIC, VERSION, len(name)) + name)
        ftype, _ = self.read_frame()
        assert ftype == T_ACK, f"hello rejected: frame type {ftype:#x}"

    def read_frame(self):
        while True:
            if len(self.buf) >= 8:
                length, crc = struct.unpack_from("<II", self.buf)
                if len(self.buf) >= 8 + length:
                    payload = self.buf[8 : 8 + length]
                    self.buf = self.buf[8 + length :]
                    assert zlib.crc32(payload) == crc, "frame CRC mismatch"
                    return payload[0], payload[1:]
            chunk = self.sock.recv(65536)
            if not chunk:
                raise EOFError("server closed connection")
            self.buf += chunk

    def roundtrip(self, encoded):
        self.sock.sendall(encoded)
        ftype, body = self.read_frame()
        if ftype == T_ERROR:
            code = struct.unpack_from("<I", body)[0]
            mlen = struct.unpack_from("<I", body, 4)[0]
            raise RuntimeError(
                f"server error {code}: {body[8:8 + mlen].decode()}")
        assert ftype == T_ACK, f"expected ack, got {ftype:#x}"
        return struct.unpack("<Q", body)[0]

    def stats(self):
        self.sock.sendall(frame(T_STATS))
        ftype, body = self.read_frame()
        assert ftype == T_STATS_REPLY, f"expected stats, got {ftype:#x}"
        obs, matches, fired, sql, procs = struct.unpack_from("<5Q", body)
        out = {"observations": obs, "matches": matches, "rules_fired": fired,
               "sql_actions": sql, "procedures": procs}
        count = struct.unpack_from("<I", body, 40)[0]
        pos = 44
        for _ in range(count):
            (rlen,) = struct.unpack_from("<H", body, pos)
            rule = body[pos + 2 : pos + 2 + rlen].decode()
            (n,) = struct.unpack_from("<Q", body, pos + 2 + rlen)
            out[f"fired[{rule}]"] = n
            pos += 2 + rlen + 8
        return out

    def close(self):
        self.sock.close()


def make_trace(events):
    # Same shape as tests/server/server_test.cc: (reader, object) pairs
    # recur every 2.5s, inside dup's 5-second window.
    return [
        (f"dock{i % 5}", "hot" if i % 7 == 0 else f"obj{i % 5}",
         i * 500_000)
        for i in range(events)
    ]


class Daemon:
    def __init__(self, binary, config, state_dir, workdir):
        self.port_file = os.path.join(workdir, f"ports-{os.urandom(4).hex()}")
        self.proc = subprocess.Popen(
            [binary, f"--config={config}", f"--state-dir={state_dir}",
             "--port=0", "--http-port=0", f"--port-file={self.port_file}"])
        deadline = time.time() + 30
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(f"rfidcepd exited {self.proc.returncode}")
            if time.time() > deadline:
                raise RuntimeError("rfidcepd did not write its port file")
            time.sleep(0.05)
        with open(self.port_file) as f:
            self.port, self.http_port = map(int, f.read().split())

    def sigterm(self):
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=60)
        assert rc == 0, f"rfidcepd exited {rc} on SIGTERM"

    def http_get(self, path):
        url = f"http://127.0.0.1:{self.http_port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read().decode()


def check_trimmed(tenant_dir):
    """Asserts a checkpoint's layout: store.img, and a log trimmed to the
    empty segment wal-<image LSN + 1>.seg. Returns the image's LSN."""
    with open(os.path.join(tenant_dir, "store.img"), "rb") as f:
        image = f.read()
    # The image opens with a CRC frame: magic, u32 version, u64 LSN, ...
    length, crc = struct.unpack_from("<II", image)
    header = image[8 : 8 + length]
    assert zlib.crc32(header) == crc, "store image header CRC mismatch"
    assert header[:8] == b"RCEDSIMG", header[:8]
    (lsn,) = struct.unpack_from("<Q", header, 12)
    wal_dir = os.path.join(tenant_dir, "wal")
    segments = sorted(os.listdir(wal_dir))
    want = f"wal-{lsn + 1:020d}.seg"
    assert segments == [want], f"wal/ holds {segments}, want [{want!r}]"
    size = os.path.getsize(os.path.join(wal_dir, want))
    assert size == 0, f"{want} holds {size} bytes after the checkpoint"
    return lsn


def write_config(workdir):
    rules = os.path.join(workdir, "smoke.rules")
    with open(rules, "w") as f:
        f.write(RULES)
    config = os.path.join(workdir, "smoke.conf")
    with open(config, "w") as f:
        f.write(f"tenant smoke rules={rules}\n")
    return config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True, help="path to rfidcepd")
    parser.add_argument("--events", type=int, default=20000)
    parser.add_argument("--batch", type=int, default=200)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="rfidcepd-smoke-")
    os.makedirs(workdir, exist_ok=True)
    trace = make_trace(args.events)
    batches = [trace[i : i + args.batch]
               for i in range(0, len(trace), args.batch)]
    config = write_config(workdir)

    # Run 1: uninterrupted oracle.
    state_a = os.path.join(workdir, "state-a")
    daemon = Daemon(args.bin, config, state_a, workdir)
    client = Client(daemon.port, "smoke")
    for batch in batches:
        client.roundtrip(encode_batch(batch))
    client.roundtrip(frame(T_FLUSH))
    oracle = client.stats()
    client.close()
    daemon.sigterm()
    print(f"oracle: {oracle}")
    assert oracle["observations"] == args.events, oracle
    assert oracle["sql_actions"] > 0 and oracle["matches"] > 0, oracle

    # Run 2: SIGTERM at a third and at two thirds, each time restarting
    # over the same state dir through the store image.
    state_b = os.path.join(workdir, "state-b")
    splits = [len(batches) // 3, 2 * len(batches) // 3]
    begin = 0
    lsn = 0
    for split in splits:
        daemon = Daemon(args.bin, config, state_b, workdir)
        client = Client(daemon.port, "smoke")
        for batch in batches[begin:split]:
            client.roundtrip(encode_batch(batch))
        client.close()
        daemon.sigterm()
        image_lsn = check_trimmed(os.path.join(state_b, "smoke"))
        assert image_lsn > lsn, f"image LSN {image_lsn} after {lsn}"
        lsn = image_lsn
        print(f"interrupted after {split}/{len(batches)} batches; store "
              f"image at LSN {lsn}, log trimmed; restarting")
        begin = split

    daemon = Daemon(args.bin, config, state_b, workdir)
    client = Client(daemon.port, "smoke")
    for batch in batches[begin:]:
        client.roundtrip(encode_batch(batch))
    client.roundtrip(frame(T_FLUSH))
    recovered = client.stats()
    client.close()
    print(f"recovered: {recovered}")

    health = daemon.http_get("/healthz")
    assert health.strip() == "ok", health
    metrics = daemon.http_get("/metrics")
    for needle in ("rfidcepd_connections_total", "rfidcepd_frames_total",
                   'tenant="smoke"'):
        assert needle in metrics, f"missing {needle!r} in /metrics"
    daemon.sigterm()

    if recovered != oracle:
        diff = {k: (oracle.get(k), recovered.get(k))
                for k in sorted(set(oracle) | set(recovered))
                if oracle.get(k) != recovered.get(k)}
        print(f"FAIL: interrupted run diverged from oracle: {diff}")
        return 1
    print("PASS: SIGTERM/restart run reconciled exactly with the "
          f"uninterrupted run over {args.events} events "
          f"({oracle['matches']} matches, {oracle['sql_actions']} SQL "
          f"actions, {oracle['rules_fired']} firings)")
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

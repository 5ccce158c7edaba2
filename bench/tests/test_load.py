"""The open-loop generator against a fake server that stalls once."""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from bench.load import backlog_grows, nearest_rank, open_loop, tail_quantile

STALL_AT = 5
STALL_S = 0.2


class _StallOnce(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass

    def do_POST(self):  # noqa: N802 - stdlib casing
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if body == str(STALL_AT).encode():
            time.sleep(STALL_S)
        payload = b'{"status": "ok"}'
        # Head and body in one write: split writes would stall each
        # answer on the client's delayed ACK and build a real backlog.
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload)
        )


def test_stall_shows_in_queued_latency_not_in_generator_lateness():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        rate = 50.0  # one request every 20 ms on a single connection
        bodies = [str(index).encode() for index in range(30)]
        samples = open_loop("127.0.0.1", server.server_address[1], bodies, rate, 1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert [sample.status for sample in samples] == [200] * 30
    latency = {sample.index: sample.latency for sample in samples}
    assert latency[STALL_AT] >= STALL_S
    # Requests due during the stall waited for the connection: the
    # wait is in their latency even though they were sent late.
    for index in range(STALL_AT + 1, STALL_AT + 5):
        due_gap = (index - STALL_AT) / rate
        assert latency[index] >= STALL_S - due_gap - 0.01
    assert latency[STALL_AT + 1] > 0.15
    # The generator itself was never the one running late.
    assert nearest_rank([sample.late for sample in samples], 0.95) < 0.01
    assert max(latency[index] for index in range(25, 30)) < 0.05


def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(200) == 0.95
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(100) == 0.90
    assert tail_quantile(50) is None


def test_backlog_rule():
    assert not backlog_grows([0.008] * 100)
    assert backlog_grows([0.008] * 50 + [0.2] * 50)

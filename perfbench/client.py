"""Closed-loop HTTP clients and the per-response correctness checks.

Each client is one analyst: it sends a request, reads the whole body,
checks it, and only then sends the next one.  Every request carries
``Accept-Encoding: gzip``, as a browser's does.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

HEADERS = {"Accept-Encoding": "gzip"}

_COHORT_COUNT = re.compile(rb"<p>([\d,]+) patients match\.</p>")
_DENSITY_COUNT = re.compile(r"Cohort density — ([\d,]+) patients"
                            .encode("utf-8"))


@dataclass
class Sample:
    """One request as the client saw it."""

    route: str
    status: int
    latency_s: float
    wire_bytes: int
    error: str | None = None
    plain_bytes: int = 0


def route_of(target: str) -> str:
    path = target.split("?", 1)[0]
    if path.startswith("/patient/"):
        return "patient"
    return {"/cohort": "cohort", "/timeline.svg": "timeline",
            "/cohort/density": "density",
            "/cohort/flow": "flow"}.get(path, path)


def plain(headers, body: bytes) -> bytes:
    if headers.get("Content-Encoding") == "gzip":
        return gzip.decompress(body)
    return body


def _count(pattern, body: bytes) -> int | None:
    match = pattern.search(body)
    return int(match.group(1).replace(b",", b"")) if match else None


def check_view(target: str, status: int, body: bytes,
               expected: int | None) -> str | None:
    """None when a cold view answers correctly, else what is wrong.

    ``expected`` is the oracle cohort size of the target's query; the
    patient route instead checks that the page is about that patient.
    """
    if status != 200:
        return f"status {status}"
    route = route_of(target)
    if route == "cohort":
        found = _count(_COHORT_COUNT, body)
    elif route == "density" and b"format=json" not in target.encode():
        found = _count(_DENSITY_COUNT, body)
    elif route in ("density", "flow"):
        found = int(json.loads(body)["n_patients"])
    elif route == "timeline":
        return None if b"<svg" in body[:400] else "not an svg"
    elif route == "patient":
        patient = target.rsplit("/", 1)[1].encode()
        return None if patient in body else "wrong patient page"
    else:
        return f"unchecked route {target}"
    if found != expected:
        return f"cohort size {found}, oracle {expected}"
    return None


class Client:
    """One persistent connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = HTTPConnection(host, port, timeout=120)

    def get(self, target: str, headers: dict) -> tuple:
        """``(status, headers, wire_body, latency_s)``; a transport
        failure answers status 0 with the exception text as body."""
        start = time.perf_counter()
        try:
            self.conn.request("GET", target, headers=headers)
            response = self.conn.getresponse()
            body = response.read()
        except (OSError, HTTPException) as exc:
            self.conn.close()
            self.conn = HTTPConnection(self.host, self.port, timeout=120)
            return 0, {}, repr(exc).encode(), time.perf_counter() - start
        elapsed = time.perf_counter() - start
        return response.status, dict(response.getheaders()), body, elapsed

    def close(self) -> None:
        self.conn.close()


def closed_loop(host: str, port: int, clients: int, seconds: float,
                next_request, check, min_samples: int = 0,
                max_seconds: float | None = None) -> tuple[list, float]:
    """Run ``clients`` closed-loop clients until ``seconds`` pass (and
    at least ``min_samples`` requests completed, up to ``max_seconds``).

    ``next_request(client_index)`` returns ``(target, headers,
    expectation)``, or None when the client has nothing left to send;
    the window ends when every client stopped.  ``check(target, status,
    headers, plain_body, expectation)`` returns an error string or None.
    Inside the window a client only sends, reads and keeps the answer:
    decompressing and checking the bodies happens after it, so the
    benchmark's own work does not compete with the program's for the
    cores.  Returns the samples and the wall time of the window.
    """
    answers: list[tuple] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds
    hard_stop = start + (max_seconds or seconds)

    def keep_going() -> bool:
        now = time.perf_counter()
        if now < stop_at:
            return True
        return len(answers) < min_samples and now < hard_stop

    def run(index: int) -> None:
        client = Client(host, port)
        try:
            while keep_going():
                request = next_request(index)
                if request is None:
                    return
                answer = client.get(*request[:2])
                with lock:
                    answers.append((request, answer))
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window_s = time.perf_counter() - start
    return [_sample(request, answer, check)
            for request, answer in answers], window_s


def _sample(request: tuple, answer: tuple, check) -> Sample:
    """Decode and check one answer kept by :func:`closed_loop`."""
    target, _headers, expectation = request
    status, got, body, elapsed = answer
    error, size = None, 0
    if status == 0:
        error = body.decode(errors="replace")
    else:
        try:
            decoded = plain(got, body)
            size = len(decoded)
            error = check(target, status, got, decoded, expectation)
        except (ValueError, KeyError, OSError) as exc:
            error = f"unreadable answer: {exc!r}"
    if error is not None:
        error = f"{target}: {error}"
    return Sample(route_of(target), status, elapsed, len(body), error, size)


def digest(body: bytes) -> str:
    return hashlib.sha1(body).hexdigest()

"""Asyncio JSON-lines front-end over a :class:`QueryEngine`.

Protocol: one JSON object per line in each direction.  Requests carry a
client-chosen ``id`` echoed in the response::

    -> {"id": 1, "op": "select", "k": 1234}
    <- {"id": 1, "ok": true, "result": 0.123}
    -> {"id": 2, "op": "stats"}
    <- {"id": 2, "ok": true, "result": {"queries": ..., ...}}

Control ops handled here (not queued to the engine): ``ping``,
``stats``, ``datasets``, ``shutdown``.  Every data query is submitted
to the engine *immediately* and awaited as its own task, so many
requests from one connection -- or from many connections -- land in the
same admission window and fuse.

On startup the server prints ``ready port=<port>`` on stdout (flushed),
so a parent process using an ephemeral port (``port=0``) can discover
where to connect.
"""

from __future__ import annotations

import asyncio
import json

from .engine import QueryEngine

__all__ = ["serve_forever"]


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next request line (``b""`` at end of stream).  A line longer
    than the reader's limit (64 KiB) is discarded whole, through its
    newline, and raises ``ValueError``, so the next read starts at the
    next request."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # an unterminated last line, or b"" at EOF
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break  # the stream ended inside the line
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
    raise ValueError("request line longer than the 64 KiB limit")


async def _serve(engine: QueryEngine, host: str, port: int,
                 ready_cb=None) -> None:
    stop = asyncio.Event()

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()  # one response line at a time

        async def reply(payload: dict) -> None:
            line = (json.dumps(payload) + "\n").encode()
            async with lock:
                writer.write(line)
                await writer.drain()

        async def run_query(req_id, query: dict) -> None:
            try:
                result = await asyncio.wrap_future(engine.submit(query))
                await reply({"id": req_id, "ok": True, "result": result})
            except (ConnectionError, asyncio.CancelledError):
                pass  # client went away mid-query
            except Exception as exc:
                await reply({"id": req_id, "ok": False, "error": str(exc)})

        tasks: set[asyncio.Task] = set()
        try:
            while not stop.is_set():
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except RecursionError:
                    await reply({"id": None, "ok": False,
                                 "error": "request nested too deeply"})
                    continue
                except ValueError as exc:
                    await reply({"id": None, "ok": False, "error": str(exc)})
                    continue
                req_id = req.pop("id", None)
                op = req.get("op")
                if op == "ping":
                    await reply({"id": req_id, "ok": True, "result": "pong"})
                elif op == "stats":
                    await reply({"id": req_id, "ok": True,
                                 "result": dict(engine.stats)})
                elif op == "datasets":
                    await reply({
                        "id": req_id, "ok": True,
                        "result": {
                            name: data.global_size
                            for name, data in engine.datasets.items()
                        },
                    })
                elif op == "shutdown":
                    await reply({"id": req_id, "ok": True, "result": "bye"})
                    stop.set()
                else:
                    # data query: its own task, so the connection keeps
                    # reading and later requests can join the batch
                    task = asyncio.create_task(run_query(req_id, req))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    server = await asyncio.start_server(handle, host, port)
    bound = server.sockets[0].getsockname()[1]
    print(f"ready port={bound}", flush=True)
    if ready_cb is not None:
        ready_cb(bound)
    async with server:
        await stop.wait()


def serve_forever(engine: QueryEngine, host: str = "127.0.0.1",
                  port: int = 0, ready_cb=None) -> None:
    """Run the server until a client sends ``shutdown`` (blocking).
    Closes the engine (and its machine) on the way out."""
    try:
        asyncio.run(_serve(engine, host, port, ready_cb))
    finally:
        engine.close()

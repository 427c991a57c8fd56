"""TCP socket launcher: the worker runtime over a network transport.

Runs the exact same worker runtime as the ``mp`` backend
(:mod:`repro.machine.backends.runtime`) -- same command loop, same
binomial/Bruck exchange schedules, same broadcast-command fan-out, same
resident chunk store -- but over length-framed stream sockets
(:class:`~repro.machine.backends.transport.SocketChannel`) instead of
pipes, so workers no longer have to share a host with the driver.
Results and modeled costs are bit-identical to ``sim`` and ``mp``
(identical combination orders, identical charge replay).

Topology
--------
* the driver binds one listening socket and every worker *registers*
  by connecting to it; that connection stays the worker's command /
  result channel for the pool's lifetime;
* each worker also binds a small mesh listener and reports its port in
  the registration hello; once all ``p`` workers registered, the
  driver broadcasts the rank -> address map and the workers build a
  full mesh (rank ``i`` connects to every ``j < i`` and accepts every
  ``j > i`` -- the rank ordering makes mesh construction
  deadlock-free).  One TCP connection per unordered pair, used
  full-duplex, carries the peer exchanges;
* a ready barrier (each worker acks the completed mesh) gates the
  first command.

Placement
---------
Workers are placed by a per-rank host list: the ``hosts=`` kwarg or the
``REPRO_TCP_HOSTS`` environment variable (comma-separated, cycled to
cover all ``p`` ranks; default: loopback).  Loopback entries
(``127.0.0.1`` / ``localhost`` / ``::1``) are forked as local daemon
processes -- the zero-config default, and what CI exercises.  Any other
entry is *your* host: the driver prints the exact worker command ::

    python -m repro.machine.backends.tcp <driver-host>:<port>

and waits (``connect_timeout`` seconds) for that rank to register from
the remote machine.  ``bind=`` / ``REPRO_TCP_BIND`` overrides the
driver's listening interface (it defaults to loopback, or ``0.0.0.0``
when any remote host is listed, advertised as ``REPRO_TCP_ADVERTISE``
or the machine's hostname).

Capabilities
------------
``supports_oob_pickle=True`` -- frames are protocol-5 pickles with
out-of-band buffers, so array payloads are never copied into the
pickle stream; ``supports_shm=False`` -- there is no shared-memory
lane between hosts, every buffer rides the socket inline (the
``transport`` experiment of ``benchmarks/bench_backend_scaling.py``
records the resulting wire-byte difference against ``mp``).
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from typing import Callable

from .runtime import RuntimeBackend, WorkerLinks, worker_loop
from .transport import MultiInbox, SocketChannel, write_views

__all__ = ["TcpBackend", "worker_main"]

#: host-list entries forked locally instead of awaited from outside
_LOOPBACK = {"127.0.0.1", "localhost", "::1", ""}

#: seconds to wait for a single connection / hello / mesh hop
_DEFAULT_CONNECT_TIMEOUT = 120.0

#: overall deadline for the whole pool to register (stray connections
#: reset a per-accept timeout; this one they cannot)
_DEFAULT_REGISTER_TIMEOUT = 60.0


def _env_hosts() -> list[str] | None:
    raw = os.environ.get("REPRO_TCP_HOSTS")
    if not raw:
        return None
    return [h.strip() for h in raw.split(",") if h.strip()]


def _resolve_hosts(p: int, hosts) -> list[str]:
    """One host per rank: kwarg > ``REPRO_TCP_HOSTS`` > loopback; a
    shorter list is cycled across the ranks (round-robin placement)."""
    if hosts is None:
        hosts = _env_hosts()
    if hosts is None:
        return ["127.0.0.1"] * p
    if isinstance(hosts, str):
        hosts = [h.strip() for h in hosts.split(",") if h.strip()]
    hosts = list(hosts)
    if not hosts:
        return ["127.0.0.1"] * p
    return [hosts[i % len(hosts)] for i in range(p)]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class _SocketLinks(WorkerLinks):
    """Socket binding of one worker: the registration connection is the
    driver channel (commands in, results out), one mesh socket per peer
    carries the exchanges, and a :class:`MultiInbox` drains them all."""

    def __init__(self, rank, p, driver_chan, peer_chans, parent_pid,
                 faults=None):
        super().__init__(rank, p, pool=None, parent_pid=parent_pid,
                         faults=faults)
        self._driver = driver_chan
        self._peers = peer_chans
        self._inbox = MultiInbox()
        self._inbox.add(driver_chan, primary=True)
        for chan in peer_chans.values():
            self._inbox.add(chan)

    def send(self, dst: int, item, drain: Callable | None = None) -> None:
        self._peers[dst].put(item, drain=drain, counters=self.counters)

    def send_result(self, item, drain: Callable | None = None,
                    pool: bool = True) -> None:
        self._driver.put(item, drain=drain, counters=self.counters)

    def recv(self, timeout: float | None = None):
        return self._inbox.get(timeout=timeout)

    def close(self) -> None:
        self._inbox.close()

    # -- fault-injection hooks -----------------------------------------
    def sever(self, peer: int) -> None:
        # hard-cut the pair socket: the peer's next read gets EOF and
        # its MultiInbox drops the channel, so the next exchange with
        # this rank times out into the driver's "hung" detection
        self._peers[peer].shutdown()

    def send_result_truncated(self, item) -> None:
        from ..faults import truncated_frame_bytes

        raw = truncated_frame_bytes(item)
        write_views(self._driver._sock.fileno(), [memoryview(raw)])


def worker_main(driver_addr: tuple[str, int], rank: int | None = None,
                parent_pid: int | None = None,
                timeout: float = _DEFAULT_CONNECT_TIMEOUT,
                mesh_bind: str = "") -> None:
    """Register with a driver, build the peer mesh, run the command loop.

    The entry point of every tcp worker -- forked loopback workers pass
    their preassigned ``rank``; externally launched workers (see
    ``python -m repro.machine.backends.tcp``) pass ``None`` and the
    driver assigns one.  ``mesh_bind`` narrows the mesh listener's
    interface (all-loopback pools fork their workers with
    ``"127.0.0.1"`` so nothing listens on outside interfaces).
    """
    # mesh listener first: its port rides the registration hello, so by
    # the time any peer learns the address the socket is accepting
    mesh_listener = socket.create_server((mesh_bind, 0), backlog=16)
    mesh_listener.settimeout(timeout)
    mesh_port = mesh_listener.getsockname()[1]
    driver = SocketChannel(socket.create_connection(driver_addr, timeout=timeout))
    driver.put(("hello", rank, mesh_port))
    # config is ("config", rank, p, peers[, faults]); the trailing slot
    # is optional so externally launched workers of any vintage can join
    tag, rank, p, peers, *rest = driver.get(timeout=timeout)
    if tag != "config":
        raise RuntimeError(f"expected config frame, got {tag!r}")
    faults = rest[0] if rest else None
    peer_chans: dict[int, SocketChannel] = {}
    try:
        # rank i connects to every lower rank and accepts every higher
        # one: rank order makes the mesh construction deadlock-free
        for j in range(rank):
            chan = SocketChannel(socket.create_connection(peers[j], timeout=timeout))
            chan.put(("mesh", rank))
            peer_chans[j] = chan
        for _ in range(p - 1 - rank):
            conn, _ = mesh_listener.accept()
            chan = SocketChannel(conn)
            mtag, j = chan.get(timeout=timeout)
            if mtag != "mesh":
                raise RuntimeError(f"expected mesh hello, got {mtag!r}")
            peer_chans[j] = chan
    finally:
        mesh_listener.close()
    driver.put(("ready",))
    worker_loop(_SocketLinks(rank, p, driver, peer_chans, parent_pid,
                             faults=faults))


def _local_worker_main(rank, p, driver_addr, parent_pid, mesh_bind=""):
    """Fork target for loopback-placed ranks (module-level for spawn)."""
    worker_main(driver_addr, rank=rank, parent_pid=parent_pid,
                mesh_bind=mesh_bind)


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

class TcpBackend(RuntimeBackend):
    """Workers behind length-framed TCP sockets; loopback by default,
    other hosts via ``hosts=`` / ``REPRO_TCP_HOSTS``."""

    name = "tcp"
    is_real = True
    supports_oob_pickle = True
    supports_shm = False

    def __init__(
        self,
        p: int,
        *,
        hosts: list[str] | str | None = None,
        bind: str | None = None,
        connect_timeout: float = _DEFAULT_CONNECT_TIMEOUT,
        register_timeout: float | None = None,
        start_method: str | None = None,
        verify: bool = False,
        command_timeout: float | None = None,
        faults=None,
        journal: bool = False,
    ):
        super().__init__(p, verify=verify, command_timeout=command_timeout,
                         faults=faults, journal=journal)
        self._hosts = _resolve_hosts(p, hosts)
        self._bind = bind or os.environ.get("REPRO_TCP_BIND")
        self._connect_timeout = connect_timeout
        # all-loopback pools register in milliseconds; a remote pool
        # needs time for the operator to launch workers by hand
        if register_timeout is None:
            register_timeout = (
                _DEFAULT_REGISTER_TIMEOUT
                if all(h in _LOOPBACK for h in self._hosts)
                else connect_timeout
            )
        self._register_timeout = float(register_timeout)
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list = []
        self._local_ranks: list[int] = []
        #: registration-channel fd of each rank (dropped fd == dead rank)
        self._chan_fds: dict[int, int] = {}
        self._listener: socket.socket | None = None

    @property
    def hosts(self) -> list[str]:
        return list(self._hosts)

    # ------------------------------------------------------------------
    # Pool lifecycle (RuntimeBackend hooks)
    # ------------------------------------------------------------------
    def _start_pool(self) -> None:
        chans: dict[int, SocketChannel] = {}
        try:
            self._register_pool(chans)
        except BaseException:
            # a half-built pool (listener open, some workers forked,
            # some channels registered) must not leak on failure
            self._abort_start(chans)
            raise

    def _register_pool(self, chans: dict[int, "SocketChannel"]) -> None:
        local = [h in _LOOPBACK for h in self._hosts]
        bind_host = self._bind or ("127.0.0.1" if all(local) else "0.0.0.0")
        self._listener = socket.create_server((bind_host, 0), backlog=self.p + 8)
        # overall registration deadline: per-accept timeouts alone would
        # let a stream of stray connections keep a half-registered pool
        # waiting forever
        reg_deadline = time.monotonic() + self._register_timeout
        port = self._listener.getsockname()[1]
        remote_ranks = sorted(r for r in range(self.p) if not local[r])
        advertise = (os.environ.get("REPRO_TCP_ADVERTISE")
                     or socket.gethostname())
        # loopback ranks: forked daemons that connect straight back (to
        # the bound interface when it is a concrete address -- a driver
        # bound to eth0 only is not reachable via 127.0.0.1); their mesh
        # listeners stay on loopback when the whole pool is local, so a
        # default pool opens nothing on outside interfaces
        worker_connect = ("127.0.0.1" if bind_host in ("", "0.0.0.0", "::")
                          else bind_host)
        mesh_bind = "127.0.0.1" if all(local) else ""
        self._local_ranks = [rank for rank in range(self.p) if local[rank]]
        self._workers = [
            self._ctx.Process(
                target=_local_worker_main,
                args=(rank, self.p, (worker_connect, port), os.getpid(),
                      mesh_bind),
                daemon=True,
                name=f"repro-tcp-{rank}",
            )
            for rank in range(self.p)
            if local[rank]
        ]
        for w in self._workers:
            w.start()
        # remote ranks: operator-launched; print the exact command
        if remote_ranks:
            import sys
            for rank in remote_ranks:
                print(
                    f"[repro.tcp] waiting for rank {rank}: run on "
                    f"{self._hosts[rank]!r}:\n"
                    f"    python -m repro.machine.backends.tcp "
                    f"{advertise}:{port}",
                    file=sys.stderr,
                )
        # registration: every worker connects and says hello
        mesh_addr: dict[int, tuple[str, int]] = {}
        unclaimed = list(remote_ranks)
        while len(chans) < self.p:
            remaining = reg_deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(set(range(self.p)) - set(chans))
                raise RuntimeError(
                    f"tcp backend: ranks {missing} never registered within "
                    f"{self._register_timeout:.0f}s (remote workers must be "
                    f"launched with `python -m repro.machine.backends.tcp "
                    f"HOST:PORT`)"
                ) from None
            self._listener.settimeout(remaining)
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue  # the deadline check above raises
            chan = SocketChannel(conn)
            try:
                tag, want, mesh_port = chan.get(
                    timeout=min(max(reg_deadline - time.monotonic(), 0.1),
                                10.0)
                )
                if tag != "hello":
                    raise ValueError(f"expected hello frame, got {tag!r}")
            except Exception:
                chan.close()  # stray or garbage connection: ignore it
                continue
            if want is None:
                if not unclaimed:  # volunteer with no remote slot open
                    chan.close()
                    continue
                rank = unclaimed.pop(0)
            else:
                if not (0 <= want < self.p) or want in chans:
                    chan.close()  # bogus or duplicate rank claim
                    continue
                rank = want
            host = peer[0]
            if remote_ranks and host in ("127.0.0.1", "::1"):
                # a loopback-registered worker runs on the driver host;
                # remote peers must reach its mesh listener through the
                # driver's advertised address, not their own loopback
                host = advertise
            chans[rank] = chan
            mesh_addr[rank] = (host, mesh_port)
        # config fan-out + ready barrier (gates the first command: no
        # command may race ahead of a still-forming mesh)
        peers = [mesh_addr[j] for j in range(self.p)]
        for rank in range(self.p):
            chans[rank].put(
                ("config", rank, self.p, peers,
                 self.faults.for_rank(rank) if self.faults else None)
            )
        for rank in range(self.p):
            ack = chans[rank].get(timeout=self._connect_timeout)
            if ack != ("ready",):  # pragma: no cover - protocol violation
                raise RuntimeError(f"rank {rank}: expected ready, got {ack!r}")
        self._inboxes = [chans[r] for r in range(self.p)]
        self._chan_fds = {r: chans[r].fileno() for r in range(self.p)}
        results = MultiInbox()
        for rank in range(self.p):
            results.add(chans[rank])
        self._results = results

    def _abort_start(self, chans: dict[int, "SocketChannel"]) -> None:
        """Release whatever a failed ``_start_pool`` half-built."""
        for w in self._workers:
            if w.is_alive():
                w.terminate()
                w.join(timeout=1.0)
        self._workers = []
        for chan in chans.values():
            chan.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._inboxes = []
        self._results = None

    def _teardown_idle(self) -> None:
        if self._listener is not None:  # pragma: no cover - defensive
            self._listener.close()
            self._listener = None

    def _join_workers(self) -> None:
        for w in self._workers:
            w.join(timeout=5.0)

    def _teardown(self) -> None:
        for w in self._workers:
            if w.is_alive():  # pragma: no cover - cleanup path
                w.terminate()
                w.join(timeout=1.0)
        if self._results is not None:
            self._results.close()  # closes every registration channel
        if self._listener is not None:
            self._listener.close()

    def _dead_workers(self) -> list[str]:
        return [w.name for w in self._workers if not w.is_alive()]

    def _dead_ranks(self) -> list[int]:
        dead = {
            self._local_ranks[i]
            for i, w in enumerate(self._workers)
            if not w.is_alive()
        }
        # a remote (or already-reaped) worker's death shows as its
        # registration channel dropping out of the results MultiInbox
        if self._results is not None and self._chan_fds:
            live = set(self._results._chans)
            dead.update(r for r, fd in self._chan_fds.items()
                        if fd not in live)
        return sorted(dead)

    def _reset_for_restart(self) -> None:
        super()._reset_for_restart()
        self._workers = []
        self._local_ranks = []
        self._chan_fds = {}
        self._listener = None


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.machine.backends.tcp HOST:PORT`` -- join a
    waiting :class:`TcpBackend` driver as one externally launched
    worker (rank assigned by the driver); returns when the pool stops."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.machine.backends.tcp",
        description="join a repro tcp-backend driver as one worker",
    )
    parser.add_argument("driver", help="driver address as HOST:PORT "
                        "(printed by the waiting driver)")
    parser.add_argument("--timeout", type=float,
                        default=_DEFAULT_CONNECT_TIMEOUT,
                        help="seconds to wait for registration + mesh")
    args = parser.parse_args(argv)
    host, _, port = args.driver.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"expected HOST:PORT, got {args.driver!r}")
    worker_main((host, int(port)), timeout=args.timeout)
    return 0


if __name__ == "__main__":  # pragma: no cover - external worker entry
    raise SystemExit(main())

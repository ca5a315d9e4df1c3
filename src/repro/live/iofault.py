"""Injectable filesystem layer under the live-workflow log.

Every byte the :class:`~repro.live.store.LiveWorkflowManager` persists
goes through a :class:`LogIO` instance, so the durability contract can
be tested against *simulated* hardware failures instead of hoped-for
ones:

* :class:`LogIO` — the real thing: ``fsync``'d appends (directory
  ``fsync`` when the append creates the file), ``fsync``'d whole-file
  writes, atomic ``os.replace`` with directory sync, torn-tail
  truncation.  Every write is synced; there is no unsynced mode.
* :class:`FaultyLogIO` — a wrapper that (a) **counts crash-point
  boundaries** — one before the first byte of every durable mutation,
  one after each partial write, one between write and fsync, one after
  the operation — and (b) **dies at a chosen boundary** by performing
  exactly the bytes that precede it and then raising
  :class:`SimulatedCrash`.  A harness first runs a scenario with
  ``crash_at=None`` to learn the boundary count, then replays it once
  per boundary (see :mod:`repro.live.crashharness`).
* Seeded probabilistic faults (``fsync_error_prob``,
  ``replace_error_prob``) mirror :mod:`repro.service.chaos`: operation
  number ``n`` under seed ``s`` draws from its private
  ``random.Random(f"{s}:{n}")``, so a failing run replays exactly.

:class:`SimulatedCrash` deliberately subclasses :class:`BaseException`:
nothing in the store (or the service layers above it) may absorb a
simulated power loss, the same way nothing absorbs a real one.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import IO

from repro.exceptions import ConfigurationError

__all__ = ["SimulatedCrash", "LogIO", "FaultyLogIO"]


class SimulatedCrash(BaseException):
    """The process "died" at a fault-injection boundary.

    A ``BaseException`` so no library ``except Exception`` handler can
    swallow it — the harness alone catches it, then recovers the log
    with a fresh manager exactly like a restarted node would.
    """

    def __init__(self, boundary: int, operation: str) -> None:
        super().__init__(
            f"simulated crash at boundary {boundary} during {operation}"
        )
        self.boundary = int(boundary)
        self.operation = str(operation)


class LogIO:
    """Real filesystem primitives behind ``<live_dir>/<id>.jsonl``."""

    def size(self, path: Path) -> int | None:
        """File size in bytes, or ``None`` if the file does not exist."""
        try:
            return os.stat(path).st_size
        except FileNotFoundError:
            return None

    def open_read(self, path: Path) -> IO[bytes]:
        """Binary read handle; raises :class:`FileNotFoundError`."""
        return open(path, "rb")

    def append(self, path: Path, data: bytes) -> int:
        """Append ``data`` (complete ``\\n``-terminated lines).

        Returns the offset just past ``data`` as the append handle saw it,
        so ``offset - len(data)`` is where the record started even if
        another writer's bytes landed before it or after it (a later
        ``stat`` would count those too).  The record is forced to stable
        storage before returning — and when the append *creates* the
        file, the parent directory entry is synced too, so the file
        itself survives a crash right after the first event.
        """
        existed = path.exists()
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
            end = handle.tell()
        if not existed:
            self.fsync_dir(path.parent)
        return end

    def write_file(self, path: Path, data: bytes) -> None:
        """Write and sync a whole file (compaction/pull staging files)."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, src: Path, dst: Path) -> None:
        """Atomic rename; the directory entry is synced."""
        os.replace(src, dst)
        self.fsync_dir(dst.parent)

    def remove(self, path: Path) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def fsync_dir(self, directory: Path) -> None:
        """Sync a directory entry (rename/create durability)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except (FileNotFoundError, NotADirectoryError, PermissionError):
            return
        try:
            os.fsync(fd)
        except OSError:
            pass  # some filesystems refuse directory fsync; best effort
        finally:
            os.close(fd)

    def truncate_torn_tail(self, path: Path) -> int:
        """Drop a torn final line (crash mid-append) before the next append.

        A record counts as applied only once fully logged, so a partial
        tail was never acknowledged and is safe to discard — but it must
        go *before* new records land, or the append fuses with it into
        one unparseable merged line.  Only the active writer calls this;
        readers never mutate the log.  Returns the bytes dropped.
        """
        try:
            with open(path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    return 0
                handle.seek(size - 1)
                if handle.read(1) == b"\n":
                    return 0
                handle.seek(0)
                kept = handle.read().rfind(b"\n") + 1
                handle.truncate(kept)
                return size - kept
        except FileNotFoundError:
            return 0


class FaultyLogIO(LogIO):
    """A :class:`LogIO` that counts crash boundaries and dies on cue.

    Parameters
    ----------
    crash_at:
        Global boundary index to crash at (``None`` = count only).  The
        boundary *before* an effect crashes with none of that effect
        applied; the boundary *after* ``k`` bytes leaves exactly ``k``
        bytes on disk.
    seed / fsync_error_prob / replace_error_prob:
        Seeded probabilistic faults: the ``fsync`` step of an append (or
        the directory sync of a replace) raises :class:`OSError` with
        the drawn probability.  Deterministic per ``(seed, op number)``.
    partial_fraction:
        Where the mid-write boundary falls inside each payload
        (``0 < f < 1``; the partial write is ``max(1, int(f * len))``
        bytes, so even one-byte-per-boundary scenarios stay torn).
    """

    def __init__(
        self,
        *,
        crash_at: int | None = None,
        seed: int = 0,
        fsync_error_prob: float = 0.0,
        replace_error_prob: float = 0.0,
        partial_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < partial_fraction < 1.0:
            raise ConfigurationError(
                f"partial_fraction must be in (0, 1), got {partial_fraction}"
            )
        self.crash_at = crash_at
        self.seed = int(seed)
        self.fsync_error_prob = float(fsync_error_prob)
        self.replace_error_prob = float(replace_error_prob)
        self.partial_fraction = float(partial_fraction)
        self.boundaries = 0
        self.operations = 0
        self.crashes = 0
        self.injected_fsync_errors = 0
        self.injected_replace_errors = 0

    # ------------------------------------------------------------------ #
    # Injection plumbing
    # ------------------------------------------------------------------ #

    def _boundary(self, operation: str) -> None:
        """One crash point; raises when the counter hits ``crash_at``."""
        boundary = self.boundaries
        self.boundaries += 1
        if self.crash_at is not None and boundary == self.crash_at:
            self.crashes += 1
            raise SimulatedCrash(boundary, operation)

    def _draw(self) -> random.Random:
        rng = random.Random(f"{self.seed}:{self.operations}")
        self.operations += 1
        return rng

    def _maybe_os_error(
        self, rng: random.Random, probability: float, counter: str, what: str
    ) -> None:
        if probability > 0.0 and rng.random() < probability:
            setattr(self, counter, getattr(self, counter) + 1)
            raise OSError(f"injected {what} failure")

    # ------------------------------------------------------------------ #
    # Durable mutations (each one a crash-point ladder)
    # ------------------------------------------------------------------ #

    def append(self, path: Path, data: bytes) -> int:
        rng = self._draw()
        self._boundary(f"append:{path.name}:pre")
        partial = max(1, int(len(data) * self.partial_fraction))
        existed = path.exists()
        with open(path, "ab") as handle:
            handle.write(data[:partial])
            handle.flush()
            try:
                self._boundary(f"append:{path.name}:partial")
                handle.write(data[partial:])
                handle.flush()
                self._boundary(f"append:{path.name}:pre-fsync")
            except SimulatedCrash:
                os.fsync(handle.fileno())  # the torn bytes do reach disk
                raise
            self._maybe_os_error(
                rng, self.fsync_error_prob, "injected_fsync_errors", "fsync"
            )
            os.fsync(handle.fileno())
            end = handle.tell()
        if not existed:
            self.fsync_dir(path.parent)
        self._boundary(f"append:{path.name}:post")
        return end

    def write_file(self, path: Path, data: bytes) -> None:
        self._draw()
        self._boundary(f"write:{path.name}:pre")
        partial = max(1, int(len(data) * self.partial_fraction))
        with open(path, "wb") as handle:
            handle.write(data[:partial])
            handle.flush()
            try:
                self._boundary(f"write:{path.name}:partial")
                handle.write(data[partial:])
                handle.flush()
                self._boundary(f"write:{path.name}:pre-fsync")
            except SimulatedCrash:
                os.fsync(handle.fileno())
                raise
            os.fsync(handle.fileno())
        self._boundary(f"write:{path.name}:post")

    def replace(self, src: Path, dst: Path) -> None:
        rng = self._draw()
        self._boundary(f"replace:{dst.name}:pre")
        self._maybe_os_error(
            rng, self.replace_error_prob, "injected_replace_errors", "replace"
        )
        os.replace(src, dst)
        self._boundary(f"replace:{dst.name}:pre-dirsync")
        self.fsync_dir(dst.parent)
        self._boundary(f"replace:{dst.name}:post")

    def truncate_torn_tail(self, path: Path) -> int:
        # Truncation only ever removes unacknowledged bytes, so a crash
        # before/after is indistinguishable from crashing around the
        # following append's pre-boundary; no extra ladder needed.
        return super().truncate_torn_tail(path)

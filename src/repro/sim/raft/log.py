"""Raft replicated log.

1-indexed like the Raft paper (index 0 is the empty sentinel).  The log is
the *persistent* half of a node's state: it survives crash/recover cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class LogEntry:
    """One replicated command tagged with the term it was proposed in."""

    term: int
    value: object


class RaftLog:
    """Append-only log with Raft's conflict-truncation semantics."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        #: Number of writes (appends and truncations) so far: two reads of
        #: the same version saw the same log *and no write in between*.
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_index(self) -> int:
        """Index of the last entry (0 when empty)."""
        return len(self._entries)

    @property
    def last_term(self) -> int:
        """Term of the last entry (0 when empty)."""
        return self._entries[-1].term if self._entries else 0

    def term_at(self, index: int) -> int:
        """Term of the entry at 1-based ``index`` (0 for the sentinel)."""
        if index == 0:
            return 0
        if not 1 <= index <= len(self._entries):
            raise SimulationError(f"log index {index} out of range (len={len(self._entries)})")
        return self._entries[index - 1].term

    def entry_at(self, index: int) -> LogEntry:
        if not 1 <= index <= len(self._entries):
            raise SimulationError(f"log index {index} out of range (len={len(self._entries)})")
        return self._entries[index - 1]

    def entries_from(self, start_index: int) -> tuple[LogEntry, ...]:
        """Entries at 1-based indices >= ``start_index``."""
        if start_index < 1:
            raise SimulationError(f"start_index must be >= 1, got {start_index}")
        return tuple(self._entries[start_index - 1 :])

    def after(self, prev_index: int) -> tuple[int, tuple[LogEntry, ...]]:
        """What an AppendEntries after ``prev_index`` carries, in one read.

        ``(term_at(prev_index), entries_from(prev_index + 1))``, except that
        the term past the end is 0 and the entries of a heartbeat are
        ``()`` with no slice taken.
        """
        entries = self._entries
        last = len(entries)
        if prev_index >= last:
            return (entries[-1].term if 0 < prev_index == last else 0), ()
        if prev_index < 0:
            raise SimulationError(f"start_index must be >= 1, got {prev_index + 1}")
        term = entries[prev_index - 1].term if prev_index else 0
        return term, tuple(entries[prev_index:])

    def append(self, entry: LogEntry) -> int:
        """Append one entry; returns its index."""
        self._entries.append(entry)
        self.version += 1
        return len(self._entries)

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """AppendEntries consistency check."""
        if prev_index == 0:
            return True
        if prev_index > len(self._entries):
            return False
        return self.term_at(prev_index) == prev_term

    def overwrite_from(self, prev_index: int, entries: tuple[LogEntry, ...]) -> None:
        """Install ``entries`` after ``prev_index``, truncating conflicts.

        Follows the Raft rule: keep existing entries that match; at the
        first conflict truncate the suffix and append the remainder.
        """
        insert_at = prev_index  # 0-based position where entries[0] lands
        for offset, entry in enumerate(entries):
            position = insert_at + offset
            if position < len(self._entries):
                if self._entries[position].term != entry.term:
                    del self._entries[position:]
                    self.append(entry)
            else:
                self.append(entry)

    def contains_value(self, value: object) -> bool:
        """Leader-side dedup: is ``value`` already in the log?"""
        return any(entry.value == value for entry in self._entries)

    def is_up_to_date(self, other_last_index: int, other_last_term: int) -> bool:
        """Raft §5.4.1: is (other_last_term, other_last_index) at least as current?"""
        if other_last_term != self.last_term:
            return other_last_term > self.last_term
        return other_last_index >= self.last_index

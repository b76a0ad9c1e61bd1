"""Session extraction: from snapshots to per-user visits.

The paper's trip metrics are defined per *visit*: travel length is the
distance covered "from login to logout", travel time is "the total
connection time to the SL land", and effective travel time excludes
pauses.  A monitor only sees presence at sampling instants, so a
session is reconstructed as a maximal run of observations whose gaps
stay below a threshold (default: twice the sampling interval — one
missed snapshot is tolerated, two mean the user left and came back).

Extraction runs on the columnar store: one stable argsort groups every
observation row by user (time order preserved within a user), and gap
thresholds split the runs — no per-snapshot dict walking.  The
canonical result form is the CSR-backed :class:`SessionSet`
(:func:`extract_session_set`); :class:`UserSession` objects are views
built lazily from its rows, and the trip metrics (travel length,
effective travel time) have vectorized columnar counterparts on the
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.geometry import Position, distance
from repro.trace.columnar import _concat_aranges, name_ranks
from repro.trace.trace import Trace

#: Displacement below which two consecutive observations count as a pause.
#: SL avatars idle in place jitter by centimeters; real walking covers
#: meters per sampling interval.
PAUSE_EPSILON = 0.5


@dataclass(frozen=True)
class UserSession:
    """One reconstructed visit of one user to a land."""

    user: str
    times: tuple[float, ...]
    positions: tuple[Position, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("a session needs at least one observation")
        if len(self.times) != len(self.positions):
            raise ValueError("times and positions must align")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("session observations must be strictly time-ordered")

    @classmethod
    def _from_arrays(cls, user: str, times: np.ndarray, xyz: np.ndarray) -> "UserSession":
        """Session over columnar rows, with the array cache pre-seeded."""
        session = cls(
            user,
            tuple(float(t) for t in times),
            tuple(Position(*(float(v) for v in row)) for row in xyz),
        )
        object.__setattr__(
            session, "_arrays", (np.asarray(times, dtype=float), np.asarray(xyz, dtype=float))
        )
        return session

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, xyz)`` arrays of the visit, cached after first use."""
        cached = getattr(self, "_arrays", None)
        if cached is None:
            times = np.asarray(self.times, dtype=float)
            xyz = np.array([[p.x, p.y, p.z] for p in self.positions], dtype=float)
            cached = (times, xyz.reshape(len(self.times), 3))
            object.__setattr__(self, "_arrays", cached)
        return cached

    @property
    def login_time(self) -> float:
        """First time the monitor saw the user in this visit."""
        return self.times[0]

    @property
    def logout_time(self) -> float:
        """Last time the monitor saw the user in this visit."""
        return self.times[-1]

    @property
    def travel_time(self) -> float:
        """The paper's *travel time*: total connection time to the land."""
        return self.logout_time - self.login_time

    @property
    def observation_count(self) -> int:
        """Number of snapshots in which the user appeared."""
        return len(self.times)

    def _step_lengths(self) -> np.ndarray:
        """Planar displacement per inter-observation step."""
        _, xyz = self.as_arrays()
        return np.hypot(np.diff(xyz[:, 0]), np.diff(xyz[:, 1]))

    def travel_length(self) -> float:
        """The paper's *travel length*: summed displacement login→logout."""
        return float(self._step_lengths().sum())

    def effective_travel_time(self, pause_epsilon: float = PAUSE_EPSILON) -> float:
        """The paper's *effective travel time*: time spent moving.

        An inter-observation interval counts as movement when the
        displacement across it exceeds ``pause_epsilon`` meters.
        """
        times, _ = self.as_arrays()
        moving = self._step_lengths() > pause_epsilon
        return float(np.diff(times)[moving].sum())

    def pause_time(self, pause_epsilon: float = PAUSE_EPSILON) -> float:
        """Connected-but-stationary time (complement of effective travel)."""
        return self.travel_time - self.effective_travel_time(pause_epsilon)

    def net_displacement(self) -> float:
        """Straight-line distance between login and logout points."""
        return distance(self.positions[0], self.positions[-1])


class SessionSet:
    """User visits as one CSR block — the canonical columnar form.

    The layout is exactly the process-backend codec's payload:
    ``user_ids`` (one int64 interner id per session), ``offsets``
    (int64 row offsets — session ``k`` owns observation rows
    ``offsets[k]:offsets[k + 1]``), ``times`` / ``xyz`` (the
    concatenated per-session observation rows).  Sessions are ordered
    by ``(login_time, user name)`` — the order the object extractor
    always produced.

    :class:`UserSession` objects are *views* built lazily: iterate,
    index, or call :meth:`sessions` (cached).  Consumers that only
    need numbers (trip metrics, the codec, the boundary merge) read
    the columns and never box a row.
    """

    __slots__ = ("user_ids", "offsets", "times", "xyz", "_names", "_sessions")

    def __init__(
        self,
        user_ids: np.ndarray,
        offsets: np.ndarray,
        times: np.ndarray,
        xyz: np.ndarray,
        names: Sequence[str],
    ) -> None:
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.float64)
        self.xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        if len(self.offsets) != len(self.user_ids) + 1:
            raise ValueError("offsets must have one entry per session plus one")
        if len(self.xyz) != len(self.times):
            raise ValueError("times and xyz rows must align")
        self._names = names
        self._sessions: list[UserSession] | None = None

    @classmethod
    def empty(cls, names: Sequence[str]) -> "SessionSet":
        """A set with zero sessions over the given name table."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty((0, 3), dtype=np.float64),
            names,
        )

    # -- shape & comparison ------------------------------------------------

    def __len__(self) -> int:
        return len(self.user_ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SessionSet):
            return (
                np.array_equal(self.user_ids, other.user_ids)
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.xyz, other.xyz)
                and list(self._names) == list(other._names)
            )
        if isinstance(other, list):
            return self.sessions() == other
        return NotImplemented

    __hash__ = None  # mutable cache inside; not hashable

    @property
    def names(self) -> Sequence[str]:
        """The interner name table the ids index into."""
        return self._names

    def arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The CSR payload ``(user_ids, offsets, times, xyz)``."""
        return self.user_ids, self.offsets, self.times, self.xyz

    # -- lazy object views -------------------------------------------------

    def _session(self, k: int) -> UserSession:
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return UserSession._from_arrays(
            self._names[self.user_ids[k]], self.times[lo:hi], self.xyz[lo:hi]
        )

    def __getitem__(self, k: int) -> UserSession:
        if self._sessions is not None:
            return self._sessions[k]
        return self._session(k)

    def __iter__(self) -> Iterator[UserSession]:
        if self._sessions is not None:
            return iter(self._sessions)
        return (self._session(k) for k in range(len(self)))

    def sessions(self) -> list[UserSession]:
        """The rows as ``UserSession`` objects (built once, cached)."""
        if self._sessions is None:
            bounds = self.offsets.tolist()
            names = self._names
            self._sessions = [
                UserSession._from_arrays(
                    names[uid], self.times[lo:hi], self.xyz[lo:hi]
                )
                for uid, lo, hi in zip(
                    self.user_ids.tolist(), bounds, bounds[1:]
                )
            ]
        return self._sessions

    # -- columnar trip metrics ---------------------------------------------

    def observation_counts(self) -> np.ndarray:
        """Observations per session."""
        return np.diff(self.offsets)

    def login_times(self) -> np.ndarray:
        """First observation time of each session."""
        return self.times[self.offsets[:-1]]

    def logout_times(self) -> np.ndarray:
        """Last observation time of each session."""
        return self.times[self.offsets[1:] - 1]

    def travel_times(self) -> np.ndarray:
        """Per-session connection time (logout − login)."""
        return self.logout_times() - self.login_times()

    def _step_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Planar step lengths between consecutive rows + validity mask.

        Steps that cross a session boundary (last row of session ``k``
        to first row of ``k + 1``) are marked invalid; every metric
        zeroes them before the per-session segment sums.
        """
        if len(self.times) < 2:
            empty = np.empty(0, dtype=np.float64)
            return empty, np.empty(0, dtype=np.bool_)
        lengths = np.hypot(
            np.diff(self.xyz[:, 0]), np.diff(self.xyz[:, 1])
        )
        valid = np.ones(len(lengths), dtype=np.bool_)
        valid[self.offsets[1:-1] - 1] = False
        return lengths, valid

    def _segment_sums(self, per_step: np.ndarray) -> np.ndarray:
        """Per-session sums of a (boundary-zeroed) per-step array."""
        if not len(self):
            return np.empty(0, dtype=np.float64)
        prefix = np.concatenate(
            (np.zeros(1, dtype=np.float64), np.cumsum(per_step))
        )
        return prefix[self.offsets[1:] - 1] - prefix[self.offsets[:-1]]

    def travel_lengths(self) -> np.ndarray:
        """Per-session summed planar displacement login→logout."""
        lengths, valid = self._step_table()
        return self._segment_sums(np.where(valid, lengths, 0.0))

    def effective_travel_times(
        self, pause_epsilon: float = PAUSE_EPSILON
    ) -> np.ndarray:
        """Per-session time spent moving (pauses excluded)."""
        lengths, valid = self._step_table()
        if not len(lengths):
            return np.zeros(len(self), dtype=np.float64)
        moving = valid & (lengths > pause_epsilon)
        return self._segment_sums(np.where(moving, np.diff(self.times), 0.0))


def extract_session_set(
    trace: Trace,
    gap_threshold: float | None = None,
) -> SessionSet:
    """Split every user's observations into visits, columnar form.

    One stable argsort groups every observation row by user (time
    order preserved within a user); gap thresholds split the runs, a
    second lexsort puts the sessions into ``(login_time, user)``
    order, and one gather builds the CSR block — no per-session Python
    objects anywhere.
    """
    if gap_threshold is None:
        gap_threshold = 2.0 * trace.metadata.tau
    if gap_threshold <= 0:
        raise ValueError(f"gap threshold must be positive, got {gap_threshold}")

    cols = trace.columns
    names = cols.users.names
    if cols.observation_count == 0:
        return SessionSet.empty(names)
    order = np.argsort(cols.user_ids, kind="stable")
    uids = cols.user_ids[order]
    times = cols.row_times()[order]
    xyz = cols.xyz[order]

    breaks = np.empty(len(uids), dtype=bool)
    breaks[0] = True
    breaks[1:] = (uids[1:] != uids[:-1]) | (np.diff(times) > gap_threshold)
    starts = np.flatnonzero(breaks)
    counts = np.append(starts[1:], len(uids)) - starts

    # (login, user-name) order without building a single tuple: logins
    # are primary, name ranks break the (different-user) ties — the
    # same user can never log in twice at the same instant.
    final = np.lexsort((name_ranks(names)[uids[starts]], times[starts]))
    rows = _concat_aranges(starts[final], counts[final])
    offsets = np.zeros(len(final) + 1, dtype=np.int64)
    np.cumsum(counts[final], out=offsets[1:])
    return SessionSet(uids[starts][final], offsets, times[rows], xyz[rows], names)


def extract_sessions(
    trace: Trace,
    gap_threshold: float | None = None,
) -> list[UserSession]:
    """Split every user's observations into visits.

    Object-list view over :func:`extract_session_set` — same rows,
    same ``(login_time, user)`` order, boxed as :class:`UserSession`.

    Parameters
    ----------
    trace:
        The monitored trace.
    gap_threshold:
        Maximum tolerated gap (seconds) between consecutive
        observations of the same visit.  Defaults to twice the trace's
        sampling interval.
    """
    return extract_session_set(trace, gap_threshold).sessions()

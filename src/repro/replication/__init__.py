"""Log-shipping replication: replicas tail the leader's WAL over the wire.

The durability engine's redo log is a replication stream for free — records
are self-delimiting, CRC-framed, carry their LSN, and replay is
deterministic and id-identical. This package adds the follower side:

* :class:`Replica` — owns a durable :class:`~repro.db.database.GraphDatabase`
  directory and a tailer thread that subscribes to the leader (SUBSCRIBE
  from its applied LSN), applies shipped records through the recovery
  replay path under the MVCC writer lock, publishes each batch via
  ``publish_commit(lsn)`` (snapshot reads stay lock-free and consistent
  mid-apply), fsyncs its own WAL before acknowledging (an ACKed LSN can
  never regress), and catches up from a shipped checkpoint when its start
  LSN was folded away.

The leader side (subscriber registry, segment iteration, checkpoint
shipping, backpressure) lives in :mod:`repro.server.server`; the read/write
routing front end in :mod:`repro.router`.

Controlled failover rides on the same stream: every subscription carries a
**leader epoch** (persisted next to the WAL as the ``EPOCH`` file), a
``PROMOTE`` admin frame flips a replica into the new leader after it
verifies its WAL tail and bumps the epoch, and lower-epoch traffic is
rejected everywhere — a revived old leader is fenced out instead of
forking history, then re-seeded as a replica of the new epoch.
"""

from repro.replication.replica import Replica

__all__ = ["Replica"]

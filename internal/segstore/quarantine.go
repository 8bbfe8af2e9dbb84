package segstore

import (
	"fmt"
	"time"
)

// Quarantine: the store's answer to a storage-tier write or fsync
// failure. The failing log is poisoned — appends are rejected with the
// sticky error, and the file handle is discarded, because a failed fsync
// must never be retried on the same descriptor: the kernel may have
// marked the dirty pages clean without writing them, so a retried fsync
// would report success for data that never reached disk (the fsyncgate
// failure mode). Unlike the old forever-sticky poison, a quarantined log
// is given capped exponential-backoff recovery attempts: once the
// backoff deadline passes, the next append discards the in-memory
// metadata and re-runs torn-tail recovery from the bytes actually on
// disk, resuming appends if the storage has healed (ENOSPC cleared, a
// remount finished) and doubling the backoff if it has not.

// poisonLocked quarantines l with err as its sticky failure and returns
// err. The open handle, dirty flag, and handle-list membership are
// dropped — whatever the page cache held is no longer trusted; recovery
// re-reads the file. Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) poisonLocked(l *deviceLog, err error) error {
	if l.failed == nil {
		s.poisonedLogs.Add(1)
	}
	l.failed = err
	l.quarTries = 1
	l.quarNext = s.now().Add(s.quarBase)
	l.dirty = false
	_ = s.dropHandle(l)
	return err
}

// quarBackoff is the delay before reopen attempt number tries+1:
// quarBase doubled per failed attempt, capped at quarMax.
func (s *Store) quarBackoff(tries int) time.Duration {
	d := s.quarBase
	for i := 1; i < tries && d < s.quarMax; i++ {
		d *= 2
	}
	return min(d, s.quarMax)
}

// tryUnquarantine gates the append path of a possibly-poisoned log.
// Before the backoff deadline the sticky failure is returned unchanged.
// After it, the log attempts recovery: metadata (file list, append
// offset, tail index) is discarded and open() re-runs torn-tail recovery
// against the directory — the poison already dropped the file handle, so
// recovery sees exactly the bytes the disk accepted, and anything a
// failed write or dropped fsync left unreadable is truncated away like
// any other torn tail. On success the quarantine lifts and the append
// proceeds; on failure the backoff doubles (capped at quarMax).
//
// Recovery is skipped while read snapshots or group-commit pins are live
// on this instance: their pins anchor files and offsets that the reset
// would invalidate. They drain quickly (pins within one sweep, read pins
// for the life of one query), so the append after that retries.
// Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) tryUnquarantine(l *deviceLog) error {
	if l.failed == nil {
		return nil
	}
	if s.now().Before(l.quarNext) || l.pins > 0 || len(l.readPins) > 0 {
		return l.failed
	}
	// The newest file's cached granules may describe bytes recovery is
	// about to truncate, and its offsets may be reused by post-recovery
	// appends; sealed files are immutable and keep their granules.
	if s.cache != nil && len(l.seqs) > 0 {
		s.cache.invalidateFile(l.device, l.seqs[len(l.seqs)-1])
	}
	l.opened = false
	l.setSeqs(nil)
	l.size = 0
	l.tail = nil
	l.chain = chain{}
	l.idxCache = nil
	if err := l.open(s); err != nil {
		l.quarTries++
		l.quarNext = s.now().Add(s.quarBackoff(l.quarTries))
		l.failed = fmt.Errorf("segstore: quarantined log %s: reopen failed: %w", l.device, err)
		return l.failed
	}
	l.failed = nil
	l.quarTries = 0
	l.quarNext = time.Time{}
	s.poisonedLogs.Add(-1)
	s.quarReopens.Add(1)
	return nil
}

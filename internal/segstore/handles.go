package segstore

import (
	"fmt"
	"os"
)

// Residency bounds what the store keeps per device it has touched: at
// most Config.MaxOpenFiles logs hold an open append handle, and at most
// maxResident (residentLogs; shrunk in tests) keep their metadata — file
// list, append offset, time index — in memory. A cold append reopens
// the newest file at the tracked offset, with no recovery rescan; a
// dropped log re-runs recovery on its next touch.
//
// Store.mu guards two recency lists: resident (every resident log,
// refreshed by every lookup) and handles (the logs holding a file,
// refreshed only by appends, since readers open their own descriptors),
// kept apart so a handle miss never steps over handle-less logs. One
// walk, trimLocked, enforces both budgets whenever a log is created, a
// handle is registered, or a commit releases a log's last pin.
//
// Store.mu nests inside deviceLog.mu: an append registers its handle
// under its log's mu. The walk takes victims' mu in the opposite order,
// so it only TryLocks: a busy victim is warm, and skipping it cannot
// deadlock. Skipped or pinned logs can leave a budget exceeded; it
// holds at quiescence, since the next walk trims what the last one
// skipped. Detached files are synced and closed (settle) after Store.mu
// is released.

// residentLogs is the resident-log budget: a log's metadata is a few
// hundred bytes, so this is roomy, but not one per device ever seen.
const residentLogs = 1 << 16

// detached is a file the walk took from a log, for settle to close.
type detached struct {
	log   *deviceLog
	f     file
	dirty bool
}

// idle is the one rule for leaving residency: no handle, nothing
// unsynced, no sticky failure (a fresh instance would forget a failed
// fsync), no commit or read pins (they live on this instance, and
// retention could delete a file under a reader a successor cannot
// see), and no detached file still being synced or closed (its failure
// must quarantine this instance). Caller holds l.mu.
//
//trajlint:holds l.mu
func (l *deviceLog) idle() bool {
	return l.f == nil && !l.dirty && l.failed == nil && l.pins == 0 && len(l.readPins) == 0 && l.closing == 0
}

// trimLocked is the residency walk: it detaches the coldest unpinned
// handles while more than MaxOpenFiles logs hold one (a pinned log's
// pending commit must fsync the file its writes went to), then drops
// the coldest idle logs while more than maxResident are resident,
// flagging them so a holder that raced past the lookup re-resolves
// (lockLog). It skips keep, whose mu the caller holds, and any log it
// cannot TryLock, and returns cold with the detached files appended for
// the caller to settle after releasing s.mu. Caller holds s.mu.
//
//trajlint:holds s.mu
func (s *Store) trimLocked(keep *deviceLog, cold []detached) []detached {
	for e := s.handles.Back(); e != nil && s.handles.Len() > s.cfg.MaxOpenFiles; {
		prev := e.Prev()
		if v := e.Value.(*deviceLog); v != keep && v.mu.TryLock() {
			if v.pins == 0 {
				cold = append(cold, detached{v, v.f, v.dirty})
				v.f, v.dirty = nil, false
				v.closing++
				s.handles.Remove(e)
				v.handleElem = nil
			}
			v.mu.Unlock()
		}
		e = prev
	}
	for e := s.resident.Back(); e != nil && s.resident.Len() > s.maxResident; {
		prev := e.Prev()
		if v := e.Value.(*deviceLog); v != keep && v.mu.TryLock() {
			if v.idle() {
				v.evicted = true
				delete(s.logs, v.device)
				s.resident.Remove(e)
				v.residentElem = nil
				s.metaEvictions.Add(1)
			}
			v.mu.Unlock()
		}
		e = prev
	}
	return cold
}

// trim runs the walk with no log lock held, and settles what it took.
func (s *Store) trim() {
	var buf [2]detached
	s.mu.Lock()
	cold := s.trimLocked(nil, buf[:0])
	s.mu.Unlock()
	s.settle(cold)
}

// settle closes the files a walk detached, first syncing dirty ones
// (unless SyncNever): the background flusher sees only open handles, so
// this is the SyncInterval promise's last chance. A failed sync or
// close has no caller to report to and must not be retried (the kernel
// may have dropped the dirty pages), so it quarantines the log, which
// closing kept resident: the next append surfaces the loss.
//
// The caller may hold the mu of the log whose registration ran the
// walk, and blocking on a victim's mu is still safe. Its holder locked
// it after this walk, and blocks only on s.mu, which nobody holds while
// blocking, or on a victim of its own later walk: never the caller's
// log, locked since before this walk began.
func (s *Store) settle(cold []detached) {
	for _, c := range cold {
		var err error
		if c.dirty && s.cfg.Sync != SyncNever {
			if err = c.f.Sync(); err == nil {
				s.syncs.Add(1)
			}
		}
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		s.handleEvictions.Add(1)
		c.log.mu.Lock()
		c.log.closing--
		if err != nil && c.log.failed == nil {
			_ = s.poisonLocked(c.log, fmt.Errorf("segstore: flush of evicted log: %w", err))
		}
		c.log.mu.Unlock()
	}
}

// registerHandle records that l now holds an open file and runs the
// walk in the same hold of s.mu. Caller holds l.mu with l.f != nil.
// Re-registration after rotation only refreshes recency: not a miss.
func (s *Store) registerHandle(l *deviceLog) {
	var buf [2]detached
	s.mu.Lock()
	if l.handleElem != nil {
		s.handles.MoveToFront(l.handleElem)
		s.mu.Unlock()
		return
	}
	s.handleMisses.Add(1)
	l.handleElem = s.handles.PushFront(l)
	cold := s.trimLocked(l, buf[:0])
	s.mu.Unlock()
	s.settle(cold)
}

// dropHandle closes l's open file (without syncing — callers decide) and
// takes l off the handle list. Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) dropHandle(l *deviceLog) error {
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	s.mu.Lock()
	if l.handleElem != nil {
		s.handles.Remove(l.handleElem)
		l.handleElem = nil
	}
	s.mu.Unlock()
	return err
}

// handle ensures l.f is open for appending, reopening the newest file at
// the tracked offset if the walk took it (the append's lookup already
// refreshed its recency). Caller holds l.mu with l.opened; a log with
// no files yet stays handle-less (the first write creates file 1 and
// registers it).
//
//trajlint:holds l.mu
func (l *deviceLog) handle(s *Store) error {
	if l.f != nil {
		s.handleHits.Add(1)
		return nil
	}
	if len(l.seqs) == 0 {
		return nil
	}
	f, err := s.fs.OpenFile(l.newest, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("segstore: reopen: %w", err)
	}
	if _, err := f.Seek(l.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("segstore: %w", err)
	}
	l.f = f
	s.registerHandle(l)
	return nil
}

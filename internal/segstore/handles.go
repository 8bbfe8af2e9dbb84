package segstore

import (
	"container/list"
	"fmt"
	"os"
	"sync"
)

// The handle LRU bounds how many device logs hold an open append handle
// at once, so a store over millions of devices costs Config.MaxOpenFiles
// file descriptors, not one per device ever touched. Device-log metadata
// (file list, append offset) stays resident; only the *os.File comes and
// goes. A cold append transparently reopens the newest log file and
// seeks to the tracked offset — no recovery rescan, since the offset was
// validated when the log was first opened.
//
// Locking: the list and every deviceLog.elem are guarded by handleLRU.mu,
// which nests strictly inside any deviceLog.mu (appenders hold their own
// log's mu when they touch the LRU). Eviction runs in the opposite
// direction — it needs the victim's mu to close its file — so it uses
// TryLock: a victim that is mid-operation is by definition warm, and
// skipping it cannot deadlock. Pinned logs are skipped too, so the cap
// can be exceeded while logs are busy or pinned; it holds at
// quiescence, because every registration and every commit that releases
// a log's last pin trims the list back.
type handleLRU struct {
	cap int
	mu  sync.Mutex
	ll  list.List //trajlint:guardedby mu -- *deviceLog values, most recently used at the front
}

// open reports the current number of open handles.
func (h *handleLRU) open() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ll.Len()
}

// touchHandle marks l, which already holds an open file, most recently
// used. Caller holds l.mu.
func (s *Store) touchHandle(l *deviceLog) {
	s.handles.mu.Lock()
	if l.elem != nil {
		s.handles.ll.MoveToFront(l.elem)
	}
	s.handles.mu.Unlock()
	s.handleHits.Add(1)
}

// registerHandle records that l now holds an open file, evicting the
// coldest other logs while the cap is exceeded. Caller holds l.mu with
// l.f != nil. Re-registration after rotation (l.elem already set) only
// refreshes recency.
func (s *Store) registerHandle(l *deviceLog) {
	h := &s.handles
	h.mu.Lock()
	if l.elem != nil {
		h.ll.MoveToFront(l.elem)
		h.mu.Unlock()
		return
	}
	s.handleMisses.Add(1)
	l.elem = h.ll.PushFront(l)
	h.mu.Unlock()
	s.trimHandles(l)
}

// trimHandles evicts the coldest logs other than keep (whose mu the
// caller holds, or nil) while the cap is exceeded.
func (s *Store) trimHandles(keep *deviceLog) {
	h := &s.handles
	// Detach victims under their (try-)locked mu, but do the closes — real
	// I/O, possibly an fsync — after dropping every lock taken here.
	type cold struct {
		log   *deviceLog
		f     file
		dirty bool
	}
	var evict []cold
	h.mu.Lock()
	for e := h.ll.Back(); e != nil && h.ll.Len() > h.cap; {
		prev := e.Prev()
		v := e.Value.(*deviceLog)
		if v != keep && v.mu.TryLock() {
			// A pinned log is mid-group-commit: the pending commit's fsync
			// must land on this handle, so it is exempt until the commit
			// releases the pin (always within one sweep).
			if v.pins > 0 {
				v.mu.Unlock()
				e = prev
				continue
			}
			if v.f != nil {
				evict = append(evict, cold{v, v.f, v.dirty})
				v.f, v.dirty = nil, false
			}
			h.ll.Remove(e)
			v.elem = nil
			v.mu.Unlock()
		}
		e = prev
	}
	h.mu.Unlock()
	for _, c := range evict {
		// An evicted dirty log keeps the SyncInterval durability promise by
		// syncing on the way out — the background flusher only sees open
		// handles, so this is its last chance.
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
		if err != nil {
			// The eviction has no caller to hand this to, and a failed fsync
			// must not be retried as if nothing happened (the kernel may have
			// dropped the dirty pages): quarantine the log so the next Append
			// surfaces the durability loss instead of silently extending an
			// unflushed file. Blocking on c.log.mu here is safe: lock holders
			// only ever block on handleLRU.mu (never held across this call)
			// or on a log they themselves detached, which the holder of
			// c.log.mu cannot have done while we held it at detach time.
			c.log.mu.Lock()
			if c.log.failed == nil {
				_ = s.poisonLocked(c.log, fmt.Errorf("segstore: flush of evicted log: %w", err))
			}
			c.log.mu.Unlock()
		}
	}
}

// dropHandle closes l's open file (without syncing — callers decide) and
// removes it from the LRU. Caller holds l.mu.
//
//trajlint:holds l.mu
func (s *Store) dropHandle(l *deviceLog) error {
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	s.handles.mu.Lock()
	if l.elem != nil {
		s.handles.ll.Remove(l.elem)
		l.elem = nil
	}
	s.handles.mu.Unlock()
	return err
}

// handle ensures l.f is open for appending, reopening the newest file at
// the tracked offset if the LRU evicted it earlier. Caller holds l.mu
// with l.opened; a log with no files yet stays handle-less (the first
// write creates file 1 and registers it).
//
//trajlint:holds l.mu
func (l *deviceLog) handle(s *Store) error {
	if l.f != nil {
		s.touchHandle(l)
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

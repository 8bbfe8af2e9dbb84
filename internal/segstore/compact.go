package segstore

import (
	"fmt"
	"os"
	"time"
)

// Retention bounds each device's log on disk (Config.MaxLogBytes,
// Config.MaxLogAge) by deleting whole rotated files oldest-first —
// records are never split, so whatever survives replays as an intact,
// contiguous suffix of the append history. The newest file is never
// deleted: it is the live append target, so under a pure byte budget a
// log can always answer "where was this device last".
//
// MaxLogAge additionally works at index-entry granularity: when the
// oldest surviving file's time index shows an expired prefix worth at
// least truncateFraction of its payload, the file is rewritten without
// that prefix (temp file + rename, crash-safe). A slow device whose
// single file spans months finally ages out instead of waiting for a
// rotation that never comes.
//
// Enforcement points: after every rotation (the moment a log grows past
// a file boundary), at a log's first open in a process, on every
// maintenance tick for logs this process has touched, and on demand for
// every device on disk via CompactNow.

// truncateFraction is the denominator of the prefix-truncation
// threshold: a file is rewritten only when at least 1/truncateFraction
// of its payload bytes have expired, so a long-lived log is rewritten
// O(log) times over its life, not once per maintenance tick.
const truncateFraction = 4

// retentionOn reports whether any retention limit is configured.
func (s *Store) retentionOn() bool {
	return s.cfg.MaxLogBytes > 0 || s.cfg.MaxLogAge > 0
}

// compactLocked enforces retention on one device log. Caller holds l.mu.
// It works on unopened logs too, listing the directory directly, so a
// full sweep does not pay recovery cost for cold devices (record-range
// truncation, which needs the index, only runs once a log is opened).
//
//trajlint:holds l.mu
func (s *Store) compactLocked(l *deviceLog) error {
	if !s.retentionOn() {
		return nil
	}
	seqs := l.seqs
	if !l.opened {
		var err error
		if seqs, _, err = s.listSeqs(l.dir); err != nil {
			return err
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	sizes := make([]int64, len(seqs))
	mtimes := make([]time.Time, len(seqs))
	var total int64
	for i, seq := range seqs {
		fi, err := s.fs.Stat(l.path(seq))
		if err != nil {
			return fmt.Errorf("segstore: retention: %w", err)
		}
		sizes[i], mtimes[i] = fi.Size(), fi.ModTime()
		total += fi.Size()
	}
	var cutoff time.Time
	if s.cfg.MaxLogAge > 0 {
		cutoff = s.now().Add(-s.cfg.MaxLogAge)
	}
	removed := 0
	for removed < len(seqs)-1 {
		// A rotated file's mtime is its last append, so every record inside
		// is at least that old.
		expired := s.cfg.MaxLogAge > 0 && mtimes[removed].Before(cutoff)
		over := s.cfg.MaxLogBytes > 0 && total > s.cfg.MaxLogBytes
		if !expired && !over {
			break
		}
		// A file a live read snapshot has pinned is skipped — and with it
		// everything newer, so the surviving log stays a contiguous suffix.
		// The next retention pass gets it once the reader drains.
		if l.readPins[seqs[removed]] > 0 {
			break
		}
		// Sidecar first: a crash between the two deletes leaves a
		// rebuildable data file, never a stale index outliving its data.
		l.dropIndex(s, seqs[removed])
		if err := s.fs.Remove(l.path(seqs[removed])); err != nil {
			if l.opened {
				l.setSeqs(append(l.seqs[:0], seqs[removed:]...))
			}
			return fmt.Errorf("segstore: retention: %w", err)
		}
		if s.cache != nil {
			s.cache.invalidateFile(l.device, seqs[removed])
		}
		s.reclaimedBytes.Add(sizes[removed])
		s.deletedFiles.Add(1)
		total -= sizes[removed]
		removed++
	}
	if removed > 0 && l.opened {
		l.setSeqs(append(l.seqs[:0], seqs[removed:]...))
	}
	if l.opened {
		return s.truncatePrefixLocked(l)
	}
	return nil
}

// truncatePrefixLocked is MaxLogAge at record-range granularity: when
// the oldest file's index shows a fully expired prefix of entries — by
// append wall time, the same clock the whole-file mtime rule uses — and
// that prefix is at least 1/truncateFraction of the file's payload, the
// file is rewritten without it (header + surviving records into a temp
// file, fsynced, renamed over the original). Index offsets shift down
// accordingly; for a sealed file the sidecar is dropped before the
// rename and rewritten after, so a crash at any point leaves either the
// old intact file or the new one, each with a rebuildable (or already
// consistent) index. Caller holds l.mu with l.opened.
//
//trajlint:holds l.mu
func (s *Store) truncatePrefixLocked(l *deviceLog) error {
	if s.cfg.MaxLogAge <= 0 || len(l.seqs) == 0 {
		return nil
	}
	seq := l.seqs[0]
	// A live snapshot is decoding this file lock-free; rewriting it in
	// place would pull bytes out from under the reader. Next pass.
	if l.readPins[seq] > 0 {
		return nil
	}
	active := seq == l.seqs[len(l.seqs)-1]
	fi, err := s.loadIndex(l, seq)
	if err != nil {
		return err
	}
	cutoffMs := s.now().Add(-s.cfg.MaxLogAge).UnixMilli()
	k := 0
	for k < len(fi.entries) && fi.entries[k].wall < cutoffMs {
		k++
	}
	if active {
		// The live file keeps its newest span no matter its age, so a log
		// always answers "where was this device last" — record-range aging
		// trims history, it never erases a device.
		k = min(k, len(fi.entries)-1)
	}
	if k <= 0 {
		return nil
	}
	// The cut stays on an entry offset, a chain start, so the rewritten
	// file opens with a record that decodes on its own.
	cut := fi.dataLen
	if k < len(fi.entries) {
		cut = fi.entries[k].off
	}
	drop := cut - int64(len(fileMagic))
	payload := fi.dataLen - int64(len(fileMagic))
	if drop <= 0 || drop*truncateFraction < payload {
		return nil
	}
	data, err := s.fs.ReadFile(l.path(seq))
	if err != nil {
		return fmt.Errorf("segstore: retention: %w", err)
	}
	if int64(len(data)) < fi.dataLen {
		return fmt.Errorf("%w: %s shorter than its index", ErrCorrupt, l.path(seq))
	}
	// The rewrite keeps the file's own magic: a TSG1 file's records are
	// all v1, and re-labelling them is no retention pass's business.
	nb := make([]byte, 0, int64(len(fileMagic))+fi.dataLen-cut)
	nb = append(nb, data[:len(fileMagic)]...)
	nb = append(nb, data[cut:fi.dataLen]...)
	tmp := l.path(seq) + tmpSuffix
	if err := s.writeFileSynced(tmp, nb, s.cfg.Sync != SyncNever); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("segstore: retention: %w", err)
	}
	if active && l.f != nil {
		// Close the append handle before the rename: writes through a handle
		// on the replaced inode would be silently lost. The next append
		// reopens at the tracked offset.
		if err := s.dropHandle(l); err != nil {
			s.fs.Remove(tmp)
			return fmt.Errorf("segstore: retention: %w", err)
		}
	}
	if !active {
		l.dropIndex(s, seq)
	}
	if err := s.fs.Rename(tmp, l.path(seq)); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("segstore: retention: %w", err)
	}
	// The rewrite reuses byte offsets for different records: cached
	// granules keyed under the old layout must go. No reader pins the
	// file (checked above, under the same lock hold), so no concurrent
	// load can re-insert stale spans.
	if s.cache != nil {
		s.cache.invalidateFile(l.device, seq)
	}
	if s.cfg.Sync == SyncAlways {
		if err := s.syncDir(l.dir); err != nil {
			return err
		}
	}
	shifted := shiftEntries(fi.entries[k:], cut-int64(len(fileMagic)))
	if active {
		l.size = int64(len(nb))
		l.tail = shifted
		l.dirty = false // the rewrite is (conditionally) synced above
	} else {
		nfi := fileIndex{entries: shifted, dataLen: int64(len(nb))}
		_ = l.writeIndex(s, seq, nfi.dataLen, nfi.entries) // best effort: rebuilt next read
		l.cacheIndex(seq, nfi)
	}
	s.prefixTruncs.Add(1)
	s.reclaimedBytes.Add(drop)
	return nil
}

// shiftEntries returns entries with every offset lowered by delta — the
// index of a file whose first delta prefix bytes were cut.
func shiftEntries(entries []indexEntry, delta int64) []indexEntry {
	out := make([]indexEntry, len(entries))
	for i, e := range entries {
		e.off -= delta
		out[i] = e
	}
	return out
}

// writeFileSynced writes b to path, optionally fsyncing before close —
// rename-over-original callers need the new bytes durable first.
func (s *Store) writeFileSynced(path string, b []byte, sync bool) error {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// compactKnown runs retention over every log this process has opened —
// the maintenance loop's cheap per-tick pass, metadata-only for any log
// it visits. Cold devices from earlier runs are compacted when first
// opened, or all at once by CompactNow; logs CompactNow registered but
// never opened are skipped here, or every tick would re-list their
// directories forever. Instances the residency walk dropped after the
// snapshot are skipped too: their successor owns the files now.
func (s *Store) compactKnown() {
	for _, l := range s.residentLogs() {
		l.mu.Lock()
		if l.opened && !l.evicted {
			_ = s.compactLocked(l)
		}
		l.mu.Unlock()
	}
}

// CompactNow synchronously enforces retention for every device with a
// log on disk — including devices this process has never touched, which
// the background pass skips. It is a no-op when no retention limit is
// configured, and returns the first error while still visiting every
// device.
func (s *Store) CompactNow() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if !s.retentionOn() {
		return nil
	}
	// One ReadDir of the root, not Devices(): its per-device emptiness
	// filter would list every directory a second time right before
	// compactLocked lists it for real, and compaction treats empty and
	// foreign-content directories as no-ops anyway.
	entries, err := s.fs.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	var first error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dev, err := unescapeDevice(e.Name())
		if err != nil {
			continue // not ours
		}
		l, err := s.lockLog(dev, false)
		if err != nil {
			// Close raced in, or a foreign directory escaped to an
			// unusable device ID.
			if first == nil {
				first = err
			}
			continue
		}
		if err := s.compactLocked(l); err != nil && first == nil {
			first = err
		}
		l.mu.Unlock()
	}
	return first
}

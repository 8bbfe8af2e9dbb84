package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trajsim/internal/enc"
)

// The sparse time index is the read-path counterpart of the append-only
// log: entries map record-frame byte offsets to the time range of the
// segments inside (and the wall-clock moment they were appended, for
// record-range retention). With it, "segments of device X between T1
// and T2" and "where was X at time T" seek straight to the covering
// records instead of scanning the whole log. The index is sparse in
// bytes, not records: adjacent records coalesce into one entry until it
// spans indexGranularity bytes, so a device drip-feeding tiny batches
// costs ~1k entries per 64 MiB file, not one per batch. Every entry
// offset is a chain start (record.go): the writer starts a chain exactly
// where it opens an entry and chains every other record to the one
// before it, so an entry's span is self-contained — a reader can start
// decoding there, and nowhere else. A rebuild from the data places
// entries at chain starts only, whatever the granularity; a span that
// starts on a chained record cannot come from a true index, and fails
// to decode (read.go).
//
// Lifecycle: the newest file's index lives in memory (l.tail), built
// from the same recovery scan that validates the file at open and
// extended on every append. At rotation the sealed file's index is
// persisted as a sidecar — <seq>.idx next to <seq>.seg — so later range
// reads never rescan sealed data. Sidecars are advisory, never trusted:
// a missing, torn, corrupt, or stale one (its recorded data-file size
// disagreeing with the file on disk, e.g. after a pre-index store or a
// crash mid-rewrite) is silently rebuilt from the data file, which
// remains the single source of truth.
//
// Sidecar format (golden-pinned in index_golden_test.go):
//
//	"TSI1" | enc.AppendFrame(payload)
//	payload = uvarint(dataLen) | uvarint(count) |
//	          count × ( uvarint(Δoff) | varint(Δmin_t) |
//	                    varint(Δmax_t) | varint(Δwall_ms) )
//
// Offsets are strictly increasing; all four fields are delta-coded
// against the previous entry. dataLen is the valid byte length of the
// .seg file the index describes — the staleness check.

// indexEntry describes one span of record frames of a log file.
type indexEntry struct {
	off  int64 // byte offset of the span's first frame, a chain start, in the file
	minT int64 // earliest segment start in the record (ms)
	maxT int64 // latest segment end in the record (ms)
	wall int64 // unix ms when the record was appended (file mtime when rebuilt)
}

// overlaps reports whether the entry's time range intersects [from, to].
func (e indexEntry) overlaps(from, to int64) bool {
	return e.maxT >= from && e.minT <= to
}

const (
	idxMagic  = "TSI1"
	idxSuffix = ".idx"
	// maxIndexPayload bounds one decoded sidecar payload, mirroring
	// maxRecordPayload: larger declared sizes are treated as corruption.
	maxIndexPayload = 4 << 20
	// defaultIndexGranularity is the byte span adjacent records coalesce
	// into per index entry: the unit a range read over-reads, record-range
	// retention truncates by, and a chain of records runs for. Tests
	// shrink Store.idxGran to force per-record entries.
	defaultIndexGranularity = 64 << 10
)

// errBadIndex marks an unusable sidecar. Never escapes the package: the
// caller's response is always a rebuild from the data file.
var errBadIndex = errors.New("segstore: bad index sidecar")

func idxName(seq int) string { return fmt.Sprintf("%08d%s", seq, idxSuffix) }

func (l *deviceLog) idxPath(seq int) string { return filepath.Join(l.dir, idxName(seq)) }

// appendIndexFile encodes a complete sidecar (magic + CRC-framed
// payload) for a data file of dataLen valid bytes, appending to dst.
func appendIndexFile(dst []byte, dataLen int64, entries []indexEntry) []byte {
	payload := enc.AppendUvarint(nil, uint64(dataLen))
	payload = enc.AppendUvarint(payload, uint64(len(entries)))
	var prev indexEntry
	for _, e := range entries {
		payload = enc.AppendUvarint(payload, uint64(e.off-prev.off))
		payload = enc.AppendVarint(payload, e.minT-prev.minT)
		payload = enc.AppendVarint(payload, e.maxT-prev.maxT)
		payload = enc.AppendVarint(payload, e.wall-prev.wall)
		prev = e
	}
	dst = append(dst, idxMagic...)
	return enc.AppendFrame(dst, payload)
}

// decodeIndexFile decodes a sidecar produced by appendIndexFile. Any
// defect — bad magic, torn frame, checksum mismatch, non-increasing
// offsets, inverted time ranges, trailing bytes — returns errBadIndex:
// the sidecar is advisory, so every failure means "rebuild", never
// "corrupt store".
func decodeIndexFile(b []byte) (dataLen int64, entries []indexEntry, err error) {
	if len(b) < len(idxMagic) || string(b[:len(idxMagic)]) != idxMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", errBadIndex)
	}
	payload, n, err := enc.Frame(b[len(idxMagic):], maxIndexPayload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errBadIndex, err)
	}
	if len(idxMagic)+n != len(b) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", errBadIndex, len(b)-len(idxMagic)-n)
	}
	size, n, err := enc.Uvarint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: data length: %v", errBadIndex, err)
	}
	payload = payload[n:]
	count, n, err := enc.Uvarint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: entry count: %v", errBadIndex, err)
	}
	payload = payload[n:]
	// Four varints per entry, one byte each at minimum — a larger count is
	// malformed, and checking first bounds the allocation below.
	if count > uint64(len(payload))/4+1 {
		return 0, nil, fmt.Errorf("%w: %d entries in %d bytes", errBadIndex, count, len(payload))
	}
	entries = make([]indexEntry, 0, count)
	var prev indexEntry
	for i := uint64(0); i < count; i++ {
		var vals [4]int64
		for j := range vals {
			var v int64
			var vn int
			if j == 0 {
				u, un, uerr := enc.Uvarint(payload)
				v, vn, err = int64(u), un, uerr
			} else {
				v, vn, err = enc.Varint(payload)
			}
			if err != nil {
				return 0, nil, fmt.Errorf("%w: entry %d: %v", errBadIndex, i, err)
			}
			vals[j] = v
			payload = payload[vn:]
		}
		e := indexEntry{
			off:  prev.off + vals[0],
			minT: prev.minT + vals[1],
			maxT: prev.maxT + vals[2],
			wall: prev.wall + vals[3],
		}
		if e.off <= prev.off && i > 0 || e.off < int64(len(fileMagic)) ||
			e.off >= int64(size) || e.minT > e.maxT {
			return 0, nil, fmt.Errorf("%w: entry %d out of order", errBadIndex, i)
		}
		entries = append(entries, e)
		prev = e
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing payload bytes", errBadIndex, len(payload))
	}
	return int64(size), entries, nil
}

// addTail indexes a record now on disk, described by e, in the newest
// file's in-memory index: a chain start (opens) opens an entry, a
// chained record widens the current one. Caller holds l.mu.
//
//trajlint:holds l.mu
func (l *deviceLog) addTail(e indexEntry, opens bool) {
	if n := len(l.tail); n > 0 && !opens {
		t := &l.tail[n-1]
		t.minT = min(t.minT, e.minT)
		t.maxT = max(t.maxT, e.maxT)
		t.wall = max(t.wall, e.wall)
		return
	}
	l.tail = append(l.tail, e)
}

// entriesSorted reports whether entries are non-decreasing in both time
// bounds — the normal shape, since encoders emit strictly increasing
// timestamps. Readers binary-search sorted indexes and fall back to a
// linear filter otherwise (possible when a device re-ingests older
// timestamps across encoder sessions).
func entriesSorted(entries []indexEntry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i].minT < entries[i-1].minT || entries[i].maxT < entries[i-1].maxT {
			return false
		}
	}
	return true
}

// writeIndex persists the sidecar for file seq. Best-effort by contract:
// the caller ignores failures (a missing sidecar is rebuilt on the next
// read), so this must never fail an append. Needs no lock: concurrent
// rebuilds of the same sealed file encode identical bytes, and a sidecar
// torn by an interleaved rewrite fails its CRC on the next read and is
// rebuilt — advisory either way.
func (l *deviceLog) writeIndex(s *Store, seq int, dataLen int64, entries []indexEntry) error {
	b := appendIndexFile(nil, dataLen, entries)
	if err := s.fs.WriteFile(l.idxPath(seq), b, 0o644); err != nil {
		return err
	}
	s.indexWrites.Add(1)
	return nil
}

// fileIndex is one file's loaded index plus the data length it covers.
type fileIndex struct {
	entries []indexEntry
	dataLen int64
}

// loadIndex returns file seq's index: the in-memory tail for the newest
// file, the per-log cache or the sidecar for sealed ones, rebuilding
// from the data file when the sidecar is missing, unreadable, or stale.
// A rebuild that finds invalid bytes inside a sealed file reports
// ErrCorrupt, exactly like Replay would. Caller holds l.mu with
// l.opened.
//
//trajlint:holds l.mu
func (s *Store) loadIndex(l *deviceLog, seq int) (fileIndex, error) {
	if n := len(l.seqs); n > 0 && seq == l.seqs[n-1] {
		return fileIndex{entries: l.tail, dataLen: l.size}, nil
	}
	if fi, ok := l.idxCache[seq]; ok {
		return fi, nil
	}
	fi, err := s.readSealedIndex(l, seq)
	if err != nil {
		return fileIndex{}, err
	}
	l.cacheIndex(seq, fi)
	return fi, nil
}

// loadSealedIndex is loadIndex for snapshot readers, which hold no log
// lock: the per-log cache is consulted and repopulated under brief
// locks, and the disk work in between runs lock-free — safe because a
// sealed file (read-pinned by the caller's snapshot) is immutable.
func (s *Store) loadSealedIndex(l *deviceLog, seq int) (fileIndex, error) {
	l.mu.Lock()
	fi, ok := l.idxCache[seq]
	l.mu.Unlock()
	if ok {
		return fi, nil
	}
	fi, err := s.readSealedIndex(l, seq)
	if err != nil {
		return fileIndex{}, err
	}
	l.mu.Lock()
	if !l.evicted {
		l.cacheIndex(seq, fi)
	}
	l.mu.Unlock()
	return fi, nil
}

// readSealedIndex resolves sealed file seq's index from disk: the
// sidecar when present and fresh, else a rebuild from the data file
// (repairing the sidecar on the way out). Touches only immutable files,
// so it needs no lock; two racing readers do redundant, identical work.
func (s *Store) readSealedIndex(l *deviceLog, seq int) (fileIndex, error) {
	st, err := s.fs.Stat(l.path(seq))
	if err != nil {
		return fileIndex{}, fmt.Errorf("segstore: %w", err)
	}
	if b, err := s.fs.ReadFile(l.idxPath(seq)); err == nil {
		if dataLen, entries, derr := decodeIndexFile(b); derr == nil && dataLen == st.Size() {
			return fileIndex{entries: entries, dataLen: dataLen}, nil
		}
	}
	// Missing, corrupt, or stale sidecar: the data file is the source of
	// truth. Rescan it, repair the sidecar, and carry on.
	b, err := s.fs.ReadFile(l.path(seq))
	if err != nil {
		return fileIndex{}, fmt.Errorf("segstore: %w", err)
	}
	entries, validLen, _, err := scanLog(b, st.ModTime().UnixMilli(), s.idxGran)
	if err != nil {
		return fileIndex{}, fmt.Errorf("%w (%s)", err, l.path(seq))
	}
	if validLen < int64(len(b)) {
		// Only the newest file may legitimately end torn, and this is not
		// the newest file.
		return fileIndex{}, fmt.Errorf("%w: torn record mid-log (%s)", ErrCorrupt, l.path(seq))
	}
	s.indexRebuilds.Add(1)
	_ = l.writeIndex(s, seq, validLen, entries) // best effort; rebuilt again next time
	return fileIndex{entries: entries, dataLen: validLen}, nil
}

//
//trajlint:holds l.mu
func (l *deviceLog) cacheIndex(seq int, fi fileIndex) {
	if l.idxCache == nil {
		l.idxCache = make(map[int]fileIndex)
	}
	l.idxCache[seq] = fi
}

// dropIndex forgets (and unlinks the sidecar of) file seq — called when
// retention deletes or rewrites the file. The sidecar is removed before
// the caller touches the data file, so a crash between the two leaves a
// rebuildable data file, never a stale sidecar that outlives its data.
//
//trajlint:holds l.mu
func (l *deviceLog) dropIndex(s *Store, seq int) {
	delete(l.idxCache, seq)
	if err := s.fs.Remove(l.idxPath(seq)); err != nil && !errors.Is(err, os.ErrNotExist) {
		// Best effort: a leftover sidecar is detected as stale on next read.
		_ = err
	}
}

// nowMs is the wall clock stamped onto appended index entries,
// overridable for deterministic tests.
func (s *Store) nowMs() int64 { return s.now().UnixMilli() }

//trajlint:ignore walltime this IS the clock seam: Store.now starts as defaultNow, and only tests replace it
var defaultNow = time.Now

package segstore

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

// The time-indexed read path. Replay streams a whole log; the queries
// here consult each file's sparse index (index.go) first, so they read
// only the record spans whose time range can match — a range query over
// a multi-gigabyte log touches kilobytes, and position-at-time is a
// binary search plus one span read per file probed.
//
// Reads are concurrent: a query takes the device lock only long enough
// to capture a snapshot — the file list, the newest file's in-memory
// index entries and committed size — then decodes entirely outside the
// lock. That is safe because sealed files are immutable and the newest
// file is append-only: every byte below the snapshot's committed size is
// a finished record that no append will ever change. The two operations
// that DO rewrite bytes — whole-file retention deletes and expired-
// prefix truncation (compact.go) — honor the snapshot's per-file read
// pins and skip a pinned file until its readers are gone, so a file
// being read is never deleted or renamed-over under a reader, and the
// log stays resident (handles.go). Readers open their own descriptors,
// so they never refresh a log's handle recency, only its residency.
//
// Every query reads through one function, span: the segments of one
// index-entry span, as a packedSpan. With Config.ReadCacheBytes set it
// serves the span from the granule cache (cache.go), decoding and
// packing it once on a miss the cache admits — a hot SegmentAt or
// ReplayRange over cached granules does no I/O at all, binary-searches a
// time-sorted granule, and rebuilds only the segments it returns
// (packed.go). With the cache off, or on a miss the cache
// declines, it preads that one span into the snapshot's buffer and
// decodes into the snapshot's scratch, so a query holds one span in
// memory at a time besides its result.

// ErrNoPosition is returned by SegmentAt when no persisted segment
// covers the requested time.
var ErrNoPosition = errors.New("segstore: no position at that time")

// readSnap is one query's point-in-time view of a device log: the file
// list (each file read-pinned for the snapshot's lifetime), the newest
// file's index entries and committed size as of the snapshot, and the
// query's reusable read state. Snapshots are pooled; a warm query
// allocates nothing here.
type readSnap struct {
	l       *deviceLog
	device  string
	seqs    []int        // pinned files, ascending
	tail    []indexEntry // newest file's entries at snapshot time
	tailLen int64        // newest file's committed bytes at snapshot time
	plans   []spanPlan   // range-read planning scratch

	// The open descriptor of the file being read (fseq), kept across the
	// spans of one file and closed by the next file or by release.
	f    file
	fseq int
	// Span pread buffer and decode scratch, the packing scratch of an
	// admitted miss, and the view span hands out of a span read past the
	// cache. An entry span is bounded by the index granularity plus one
	// record, so all stay small however large the log.
	buf     []byte
	scratch []traj.Segment
	packing packedSpan
	view    packedSpan
}

// spanPlan is one file's share of a query: its index and the entry
// range the query must consider.
type spanPlan struct {
	seq    int
	fi     fileIndex
	lo, hi int
}

var snapPool = sync.Pool{New: func() any { return new(readSnap) }}

// snapshot captures a read view of device's log and pins every file in
// it. The device lock is held only for the capture — decoding happens
// after it is released — so concurrent readers, appenders, and the sink
// workers never wait on one another here. Call release when done.
func (s *Store) snapshot(device string) (*readSnap, error) {
	l, err := s.lockLog(device, false)
	if err != nil {
		return nil, err
	}
	// Re-check under the log lock: Close closes file handles under it, so
	// a read that got its log before Close must not open files (via the
	// recovery scan) behind a closed store.
	if s.closed.Load() {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if err := l.open(s); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	snap := snapPool.Get().(*readSnap)
	snap.l, snap.device = l, device
	snap.seqs = append(snap.seqs[:0], l.seqs...)
	snap.tail = append(snap.tail[:0], l.tail...)
	snap.tailLen = l.size
	if len(snap.seqs) > 0 {
		if l.readPins == nil {
			l.readPins = make(map[int]int)
		}
		for _, seq := range snap.seqs {
			l.readPins[seq]++
		}
	}
	l.mu.Unlock()
	return snap, nil
}

// release closes the snapshot's descriptor, drops its read pins and
// returns it to the pool.
func (snap *readSnap) release() {
	if snap.f != nil {
		snap.f.Close()
		snap.f = nil
	}
	l := snap.l
	if len(snap.seqs) > 0 {
		l.mu.Lock()
		for _, seq := range snap.seqs {
			if n := l.readPins[seq] - 1; n <= 0 {
				delete(l.readPins, seq)
			} else {
				l.readPins[seq] = n
			}
		}
		l.mu.Unlock()
	}
	snap.l = nil
	snapPool.Put(snap)
}

// tailSeq is the file that was newest at snapshot time — the one whose
// index is the snapshot's own tail copy.
func (snap *readSnap) tailSeq() int { return snap.seqs[len(snap.seqs)-1] }

// index resolves file seq's index within this snapshot: the captured
// tail for the newest file, the store's for sealed ones. A file sealed
// *after* the snapshot still reads through the captured tail — correct,
// since rotation freezes exactly the entries and size the snapshot
// copied.
func (snap *readSnap) index(s *Store, seq int) (fileIndex, error) {
	if seq == snap.tailSeq() {
		return fileIndex{entries: snap.tail, dataLen: snap.tailLen}, nil
	}
	return s.loadSealedIndex(snap.l, seq)
}

// plan resolves file seq's index and selects the entries a query over
// [from, to] must consider.
func (s *Store) plan(snap *readSnap, seq int, from, to int64) (spanPlan, error) {
	fi, err := snap.index(s, seq)
	if err != nil {
		return spanPlan{}, err
	}
	lo, hi := selectEntries(fi.entries, from, to)
	return spanPlan{seq: seq, fi: fi, lo: lo, hi: hi}, nil
}

// readPlan runs read over plan p. A failure under a sealed file's
// sidecar discards that sidecar and retries once against an index
// rebuilt from the data file — sidecars are advisory, and a
// CRC-collision or foreign file must not turn into a spurious
// ErrCorrupt. The newest file's index was built in memory from the data
// itself, so there a failure is real corruption. read must be safe to
// rerun from scratch.
func (s *Store) readPlan(snap *readSnap, p spanPlan, from, to int64, read func(spanPlan) error) error {
	for attempt := 0; ; attempt++ {
		err := read(p)
		if err == nil {
			return nil
		}
		if attempt > 0 || p.seq == snap.tailSeq() {
			return fmt.Errorf("%w: indexed read: %v (%s)", ErrCorrupt, err, snap.l.path(p.seq))
		}
		snap.l.mu.Lock()
		snap.l.dropIndex(s, p.seq)
		snap.l.mu.Unlock()
		if p, err = s.plan(snap, p.seq, from, to); err != nil {
			return err
		}
	}
}

// span returns the segments of file seq's index-entry span [off, end) —
// the one place the read path decides between the granule cache and the
// disk. A hit is served from the cache. A miss the cache admits
// (cache.go) is fetched once through its singleflight, packed into the
// snapshot's packing scratch and kept as an exact-size copy; one that
// does not pack is served as a declined miss. A miss the cache declines,
// and every read with the cache off, preads the span into the snapshot's
// buffer and decodes it into the snapshot's scratch: no fresh slice, no
// singleflight slot, no eviction. A cached span is shared and read-only;
// an uncached one is valid until the next span call. Either way the
// caller must not modify or keep it.
func (s *Store) span(snap *readSnap, seq int, off, end int64) (*packedSpan, error) {
	if s.cache != nil {
		key := granuleKey{snap.device, seq, off, end}
		p, hit, admit := s.cache.get(key, end-off)
		if hit {
			return p, nil
		}
		if admit {
			p, err := s.cache.load(key, func() (*packedSpan, error) {
				segs, err := s.readSpan(snap, seq, off, end)
				if err != nil {
					return nil, err
				}
				if !snap.packing.pack(segs) {
					return snap.viewOf(segs), nil
				}
				return snap.packing.clone(), nil
			})
			if p != nil || err != nil {
				return p, err
			}
			// A waiter on a leader whose span did not pack reads it itself.
		}
	}
	segs, err := s.readSpan(snap, seq, off, end)
	if err != nil {
		return nil, err
	}
	return snap.viewOf(segs), nil
}

// viewOf hands out decoded segments as the snapshot's uncached span.
func (snap *readSnap) viewOf(segs []traj.Segment) *packedSpan {
	snap.view.raw = segs
	return &snap.view
}

// readSpan preads file seq's bytes [off, end) — whole records — into the
// snapshot's buffer and decodes their segments into its scratch.
func (s *Store) readSpan(snap *readSnap, seq int, off, end int64) ([]traj.Segment, error) {
	if snap.f == nil || snap.fseq != seq {
		if snap.f != nil {
			snap.f.Close()
			snap.f = nil
		}
		f, err := s.fs.Open(snap.l.path(seq))
		if err != nil {
			return nil, err
		}
		snap.f, snap.fseq = f, seq
	}
	n := int(end - off)
	if cap(snap.buf) < n {
		snap.buf = make([]byte, n)
	}
	buf := snap.buf[:n]
	if err := s.preadFull(snap.f, buf, off); err != nil {
		return nil, err
	}
	segs, err := decodeRecordRange(snap.scratch[:0], buf)
	snap.scratch = segs[:0]
	return segs, err
}

// ReplayRange returns every persisted segment for device whose time
// span intersects [from, to] (unix ms, inclusive), in append order —
// exactly Replay filtered to the range, but answered by seeking to the
// covering records via the time index instead of scanning the log.
// from > to returns nil.
func (s *Store) ReplayRange(device string, from, to int64) ([]traj.Segment, error) {
	if from > to {
		return nil, nil
	}
	snap, err := s.snapshot(device)
	if err != nil {
		return nil, err
	}
	defer snap.release()
	return s.replayRange(snap, from, to)
}

// replayRange is the shared body of ReplayRange and Replay: plan every
// file's entry selection first — so the result is sized once, from the
// selected spans' byte total — then read file by file.
func (s *Store) replayRange(snap *readSnap, from, to int64) ([]traj.Segment, error) {
	plans := snap.plans[:0]
	var innerBytes int64 // spans of entries wholly inside [from, to]: every segment matches
	var boundary int     // entries straddling a range end: unknown, usually small, yield
	for _, seq := range snap.seqs {
		p, err := s.plan(snap, seq, from, to)
		if err != nil {
			return nil, err
		}
		if p.lo >= p.hi {
			continue
		}
		plans = append(plans, p)
		for i := p.lo; i < p.hi; i++ {
			e := p.fi.entries[i]
			if e.minT >= from && e.maxT <= to {
				innerBytes += entryEnd(p.fi, i) - e.off
			} else {
				boundary++
			}
		}
	}
	snap.plans = plans
	if len(plans) == 0 {
		return nil, nil
	}
	out := make([]traj.Segment, 0, estimateSegs(innerBytes, boundary))
	for _, p := range plans {
		base := out
		err := s.readPlan(snap, p, from, to, func(p spanPlan) error {
			out = base
			for i := p.lo; i < p.hi; i++ {
				e := p.fi.entries[i]
				if !e.overlaps(from, to) {
					continue
				}
				sp, err := s.span(snap, p.seq, e.off, entryEnd(p.fi, i))
				if err != nil {
					return err
				}
				// The span covers whole records; keep only the segments in range.
				lo, hi := sp.within(from, to)
				for j := lo; j < hi; j++ {
					if sp.endT(j) >= from && sp.startT(j) <= to {
						out = append(out, sp.seg(j))
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Replay returns every persisted segment for device in append order
// (coordinates quantized to 1 cm, as stored). A device with no log
// replays as nil. Damage anywhere but the newest file's tail is
// reported as ErrCorrupt. The log is read one index-entry span at a
// time — replaying a multi-gigabyte log holds one span in memory
// besides the result, not whole files.
func (s *Store) Replay(device string) ([]traj.Segment, error) {
	snap, err := s.snapshot(device)
	if err != nil {
		return nil, err
	}
	defer snap.release()
	return s.replayRange(snap, minTime, maxTime)
}

const (
	minTime = math.MinInt64
	maxTime = math.MaxInt64
)

// estimateSegs sizes a range read's result from the bytes of the fully
// included spans: a continuous stream's history records store about 11
// bytes per segment, framing included (TestStoredBytesPerSegment; v1
// records about 15), so bytes/12 lands near the truth for them and
// overshoots the chained one- to three-segment records of live appends,
// about 14 bytes a segment, by 1.2× — one allocation up front instead
// of log(n) regrowths while appending a big window. Boundary entries
// are mostly filtered away, so they contribute a token few slots rather
// than their byte mass (a narrow window over fat coalesced spans must
// not allocate for every segment it is about to discard).
func estimateSegs(innerBytes int64, boundary int) int {
	n := innerBytes/12 + int64(boundary)*8
	if n < 16 {
		n = 16
	}
	return int(n)
}

// selectEntries returns the half-open entry range [lo, hi) a query over
// [from, to] must consider: a binary search when the index is
// time-sorted (maxT and minT both non-decreasing — entries before lo end
// too early to reach from, entries from hi on start after to), the whole
// index otherwise.
func selectEntries(entries []indexEntry, from, to int64) (lo, hi int) {
	lo, hi = 0, len(entries)
	if entriesSorted(entries) {
		lo = sort.Search(len(entries), func(i int) bool { return entries[i].maxT >= from })
		hi = sort.Search(len(entries), func(i int) bool { return entries[i].minT > to })
	}
	return lo, hi
}

// entryEnd returns one past the last byte of entry i's span.
func entryEnd(fi fileIndex, i int) int64 {
	if i+1 < len(fi.entries) {
		return fi.entries[i+1].off
	}
	return fi.dataLen
}

// SegmentAt returns the persisted segment covering time t for device —
// the piecewise answer to "where was the device at t" (interpolate with
// Segment.At). When overlapping history covers t more than once (a
// device re-ingesting a time span), the segment appended last wins.
// ErrNoPosition is returned when t falls before, after, or in a gap of
// the device's history — including a device with no log at all.
func (s *Store) SegmentAt(device string, t int64) (traj.Segment, error) {
	snap, err := s.snapshot(device)
	if err != nil {
		return traj.Segment{}, err
	}
	defer snap.release()
	// Newest file first, newest entry first: on overlap the latest append
	// wins, and the common "where is it now" probe touches only the live
	// file — normally one span, and none at all when it is cached.
	var seg traj.Segment
	found := false
	for i := len(snap.seqs) - 1; i >= 0 && !found; i-- {
		p, err := s.plan(snap, snap.seqs[i], t, t)
		if err != nil {
			return traj.Segment{}, err
		}
		err = s.readPlan(snap, p, t, t, func(p spanPlan) error {
			for k := p.hi - 1; k >= p.lo; k-- {
				e := p.fi.entries[k]
				if !e.overlaps(t, t) {
					continue
				}
				sp, err := s.span(snap, p.seq, e.off, entryEnd(p.fi, k))
				if err != nil {
					return err
				}
				lo, hi := sp.within(t, t)
				for j := hi - 1; j >= lo; j-- {
					if sp.startT(j) <= t && t <= sp.endT(j) {
						seg, found = sp.seg(j), true
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			return traj.Segment{}, err
		}
	}
	if !found {
		return traj.Segment{}, ErrNoPosition
	}
	return seg, nil
}

// decodeRecordRange appends the segments of consecutive whole records in
// b — a byte range starting at a chain start and ending on a record
// boundary, such as an index entry's span — to dst, carrying the chain
// from record to record. A span whose first record is chained fails
// with ErrCorrupt: it cannot come from a true index, so readPlan
// rebuilds a sealed file's index instead of decoding shifted positions.
func decodeRecordRange(dst []traj.Segment, b []byte) ([]traj.Segment, error) {
	var c chain
	for off := 0; off < len(b); {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return dst, err
		}
		if dst, err = decodeRecordPayload(dst, payload, &c); err != nil {
			return dst, err
		}
		off += n
	}
	return dst, nil
}

// preadFull reads exactly len(b) bytes at off, counting them toward the
// ReadBytes stat. A full read is success even if the file ends exactly
// there (ReadAt may pair it with io.EOF).
func (s *Store) preadFull(f file, b []byte, off int64) error {
	n, err := f.ReadAt(b, off)
	s.readBytes.Add(int64(n))
	if n == len(b) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

package segstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// Tests for the time-indexed read path: ReplayRange and SegmentAt
// against a full-scan oracle, and sidecar damage of every kind resolving
// to a rebuild, never a wrong answer.

// rangeOracle filters a full replay to [from, to] by brute force — the
// semantics ReplayRange must reproduce via the index.
func rangeOracle(all []traj.Segment, from, to int64) []traj.Segment {
	var out []traj.Segment
	for _, sg := range all {
		if sg.End.T >= from && sg.Start.T <= to {
			out = append(out, sg)
		}
	}
	return out
}

// dropIdxCaches forgets every in-memory index so the next read goes back
// to the sidecar (or a rebuild).
func dropIdxCaches(s *Store, device string) {
	s.mu.Lock()
	l := s.logs[device]
	s.mu.Unlock()
	if l != nil {
		l.mu.Lock()
		l.idxCache = nil
		l.mu.Unlock()
	}
}

// segEqual compares ignoring nothing — ReplayRange promises exactly the
// replayed representation.
func segsEqual(a, b []traj.Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplayRangeOracle is the boundary sweep: every segment boundary
// (±1ms) as both range ends, indexed result vs full-scan oracle, over a
// log rotated into several files with per-record index entries.
func TestReplayRangeOracle(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 1 << 10})
	s.idxGran = 1 // every record gets its own index entry
	const dev = "sweep"
	segs := simplified(t, gen.Taxi, 600, 11)
	// One-segment appends: one record per segment, so entries and records
	// align 1:1 and the sweep hits every record boundary.
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(segs) {
		t.Fatalf("replay has %d segments, appended %d", len(all), len(segs))
	}
	if s.Stats().IndexWrites == 0 {
		t.Fatal("no sidecars written despite rotation")
	}

	var bounds []int64
	for i := 0; i < len(all); i += 7 { // subsample: the sweep is quadratic
		bounds = append(bounds, all[i].Start.T-1, all[i].Start.T, all[i].End.T, all[i].End.T+1)
	}
	bounds = append(bounds, math.MinInt64, all[0].Start.T-1_000_000, all[len(all)-1].End.T+1_000_000, math.MaxInt64)
	for _, from := range bounds {
		for _, to := range bounds {
			got, err := s.ReplayRange(dev, from, to)
			if err != nil {
				t.Fatalf("ReplayRange(%d, %d): %v", from, to, err)
			}
			want := rangeOracle(all, from, to)
			if from > to {
				want = nil
			}
			if !segsEqual(got, want) {
				t.Fatalf("ReplayRange(%d, %d) = %d segments, oracle says %d", from, to, len(got), len(want))
			}
		}
	}

	// The same sweep answered from sidecars after a reopen.
	dir := s.cfg.Dir
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Config{Dir: dir, Sync: SyncNever, MaxFileSize: 1 << 10})
	s2.idxGran = 1
	for i := 0; i < len(bounds); i += 3 {
		from, to := bounds[i], bounds[len(bounds)-1-i%len(bounds)]
		got, err := s2.ReplayRange(dev, from, to)
		if err != nil {
			t.Fatal(err)
		}
		want := rangeOracle(all, from, to)
		if from > to {
			want = nil
		}
		if !segsEqual(got, want) {
			t.Fatalf("after reopen: ReplayRange(%d, %d) = %d segments, oracle says %d", from, to, len(got), len(want))
		}
	}
	if s2.Stats().IndexRebuilds != 0 {
		t.Errorf("reopen rebuilt %d indexes; the sidecars were intact", s2.Stats().IndexRebuilds)
	}
}

// TestReplayRangeCoalesced reruns a coarser sweep at the default
// granularity, where one entry covers many records and range reads
// over-read then post-filter.
func TestReplayRangeCoalesced(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 4 << 10})
	const dev = "coarse"
	segs := simplified(t, gen.Truck, 800, 23)
	for i := 0; i < len(segs); i += 5 {
		if err := s.Append(dev, segs[i:min(i+5, len(segs))]); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(all); i += 11 {
		from, to := all[i].Start.T, all[min(i+17, len(all)-1)].End.T
		got, err := s.ReplayRange(dev, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !segsEqual(got, rangeOracle(all, from, to)) {
			t.Fatalf("coalesced ReplayRange(%d, %d) mismatch", from, to)
		}
	}
}

func TestSegmentAt(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 1 << 10})
	const dev = "probe"
	// Two bursts with a gap between them.
	burstA := []traj.Segment{
		{Start: traj.At(0, 0, 1000), End: traj.At(100, 0, 2000), EndIdx: 1},
		{Start: traj.At(100, 0, 2000), End: traj.At(100, 50, 3000), StartIdx: 1, EndIdx: 2},
	}
	burstB := []traj.Segment{
		{Start: traj.At(500, 500, 10_000), End: traj.At(600, 500, 12_000), StartIdx: 2, EndIdx: 3},
	}
	if err := s.Append(dev, burstA); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(dev, burstB); err != nil {
		t.Fatal(err)
	}

	// Mid-segment, exact endpoints, and the join between segments.
	for _, tc := range []struct {
		t    int64
		want traj.Segment
	}{
		{1000, burstA[0]},
		{1500, burstA[0]},
		{2000, burstA[1]}, // both cover t=2000; the later append wins
		{2999, burstA[1]},
		{11_000, burstB[0]},
	} {
		got, err := s.SegmentAt(dev, tc.t)
		if err != nil {
			t.Fatalf("SegmentAt(%d): %v", tc.t, err)
		}
		if got != tc.want {
			t.Fatalf("SegmentAt(%d) = %+v, want %+v", tc.t, got, tc.want)
		}
	}

	// Before, inside the gap, after, unknown device: ErrNoPosition.
	for _, tms := range []int64{999, 5000, 12_001} {
		if _, err := s.SegmentAt(dev, tms); !errors.Is(err, ErrNoPosition) {
			t.Fatalf("SegmentAt(%d): %v, want ErrNoPosition", tms, err)
		}
	}
	if _, err := s.SegmentAt("ghost", 1500); !errors.Is(err, ErrNoPosition) {
		t.Fatalf("unknown device: %v, want ErrNoPosition", err)
	}

	// Overlapping re-ingest: the segment appended last covers t.
	redo := []traj.Segment{
		{Start: traj.At(-7, -7, 1200), End: traj.At(-8, -8, 1800), EndIdx: 1},
	}
	if err := s.Append(dev, redo); err != nil {
		t.Fatal(err)
	}
	got, err := s.SegmentAt(dev, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if got != redo[0] {
		t.Fatalf("after re-ingest SegmentAt(1500) = %+v, want the newer %+v", got, redo[0])
	}
	// Interpolation sanity along the winning segment.
	p := got.At(1500)
	if p.T != 1500 || p.X > -7 || p.X < -8 {
		t.Fatalf("At(1500) = %+v", p)
	}
}

// TestSegmentAtAcrossFiles forces rotation between bursts so the
// newest-file-first probe has to walk back into sealed files.
func TestSegmentAtAcrossFiles(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 512})
	s.idxGran = 1
	const dev = "walker"
	segs := simplified(t, gen.SerCar, 500, 7)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(all); i += 13 {
		sg := all[i]
		mid := (sg.Start.T + sg.End.T) / 2
		got, err := s.SegmentAt(dev, mid)
		if err != nil {
			t.Fatalf("SegmentAt(%d): %v", mid, err)
		}
		if got.Start.T > mid || got.End.T < mid {
			t.Fatalf("SegmentAt(%d) span [%d, %d] does not cover it", mid, got.Start.T, got.End.T)
		}
	}
}

// TestSidecarTruncationEveryOffset torn-truncates a sealed file's
// sidecar at every byte length. Every prefix must either decode-and-fail
// or prove stale — and in all cases the range read silently rebuilds and
// returns the oracle answer.
func TestSidecarTruncationEveryOffset(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 512})
	s.idxGran = 1
	const dev = "torn"
	segs := simplified(t, gen.Taxi, 300, 5)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	from, to := all[1].Start.T, all[len(all)-2].End.T
	want := rangeOracle(all, from, to)

	// Pick the first sealed file's sidecar.
	dir := filepath.Join(s.cfg.Dir, dev)
	idx := filepath.Join(dir, idxName(1))
	orig, err := os.ReadFile(idx)
	if err != nil {
		t.Fatalf("no sidecar for sealed file: %v", err)
	}
	for n := 0; n <= len(orig); n++ {
		if err := os.WriteFile(idx, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		dropIdxCaches(s, dev)
		got, err := s.ReplayRange(dev, from, to)
		if err != nil {
			t.Fatalf("truncated sidecar at %d/%d bytes: %v", n, len(orig), err)
		}
		if !segsEqual(got, want) {
			t.Fatalf("truncated sidecar at %d/%d bytes: %d segments, oracle says %d", n, len(orig), len(got), len(want))
		}
		// The full, untouched sidecar must not trigger a rebuild.
		wantRebuilds := int64(1)
		if n == len(orig) {
			wantRebuilds = 0
		}
		if rb := s.indexRebuilds.Swap(0); rb != wantRebuilds {
			t.Fatalf("truncated sidecar at %d/%d bytes: %d rebuilds, want %d", n, len(orig), rb, wantRebuilds)
		}
		// The rebuild repaired the sidecar on disk; restore the truncated
		// form for the next iteration's premise to hold.
	}
}

// TestSidecarGarbageAndStale: flipped bytes and a stale dataLen both
// mean "rebuild", never a wrong or failed read.
func TestSidecarGarbageAndStale(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 512})
	const dev = "junk"
	segs := simplified(t, gen.Truck, 300, 9)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(s.cfg.Dir, dev, idxName(1))
	orig, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string) {
		t.Helper()
		dropIdxCaches(s, dev)
		got, err := s.ReplayRange(dev, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !segsEqual(got, all) {
			t.Fatalf("%s: %d segments, want %d", label, len(got), len(all))
		}
		if s.indexRebuilds.Load() == 0 {
			t.Fatalf("%s: no rebuild recorded", label)
		}
		s.indexRebuilds.Store(0)
	}

	for _, off := range []int{0, 2, len(orig) / 2, len(orig) - 1} {
		b := append([]byte(nil), orig...)
		b[off] ^= 0x5a
		if err := os.WriteFile(idx, b, 0o644); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("bit flip at %d", off))
	}

	// A CRC-valid sidecar describing a different data length is stale —
	// e.g. written before a crash that truncated the data file.
	stale := appendIndexFile(nil, 7, []indexEntry{{off: int64(len(fileMagic)), minT: 1, maxT: 2, wall: 3}})
	if err := os.WriteFile(idx, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	check("stale dataLen")

	// Sidecar deleted outright.
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	check("missing sidecar")
}

// TestRangeReadTornSealedFile: an indexed read that discovers real
// corruption in a sealed file reports ErrCorrupt rather than quietly
// returning less than the log holds.
func TestRangeReadTornSealedFile(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 512})
	const dev = "sealedtear"
	segs := simplified(t, gen.Taxi, 300, 13)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate the first sealed data file mid-record and drop its sidecar
	// so the read must rescan the data.
	seg1 := filepath.Join(s.cfg.Dir, dev, fileName(1))
	st, err := os.Stat(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(s.cfg.Dir, dev, idxName(1)))
	dropIdxCaches(s, dev)
	if _, err := s.ReplayRange(dev, math.MinInt64, math.MaxInt64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn sealed file: %v, want ErrCorrupt", err)
	}
}

// TestIndexCoalescing pins the sparse-in-bytes contract: with the
// default granularity a small file's whole index is one entry, and every
// entry offset is a decodable record boundary.
func TestIndexCoalescing(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever})
	const dev = "sparse"
	segs := simplified(t, gen.SerCar, 400, 3)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	l := s.logs[dev]
	s.mu.Unlock()
	l.mu.Lock()
	tail := append([]indexEntry(nil), l.tail...)
	size := l.size
	l.mu.Unlock()
	if len(tail) != 1 {
		t.Fatalf("%d appends under one granularity unit produced %d entries, want 1", len(segs), len(tail))
	}
	if tail[0].off != int64(len(fileMagic)) {
		t.Fatalf("first entry at %d, want %d", tail[0].off, len(fileMagic))
	}
	if tail[0].minT != segs[0].Start.T || tail[0].maxT != segs[len(segs)-1].End.T {
		t.Fatalf("entry spans [%d, %d], log spans [%d, %d]",
			tail[0].minT, tail[0].maxT, segs[0].Start.T, segs[len(segs)-1].End.T)
	}
	if size <= tail[0].off {
		t.Fatalf("size %d, entry offset %d", size, tail[0].off)
	}
}

// TestReplayRangeAfterRetention: range reads agree with Replay after
// whole-file retention plus prefix truncation have chewed on the log.
func TestReplayRangeAfterRetention(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 512, MaxLogBytes: 2 << 10})
	const dev = "aged"
	segs := simplified(t, gen.Taxi, 800, 29)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(all) >= len(segs) {
		t.Fatalf("retention left %d of %d segments", len(all), len(segs))
	}
	got, err := s.ReplayRange(dev, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEqual(got, all) {
		t.Fatalf("unbounded ReplayRange (%d) != Replay (%d) after retention", len(got), len(all))
	}
	mid := all[len(all)/2]
	got, err = s.ReplayRange(dev, mid.Start.T, mid.End.T)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEqual(got, rangeOracle(all, mid.Start.T, mid.End.T)) {
		t.Fatal("ranged read after retention mismatch")
	}
}

// TestReplayRangeClosed: reads on a closed store fail cleanly.
func TestReplayRangeClosed(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever})
	if err := s.Append("d", simplified(t, gen.Taxi, 50, 1)[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplayRange("d", 0, math.MaxInt64); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReplayRange on closed store: %v", err)
	}
	if _, err := s.SegmentAt("d", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("SegmentAt on closed store: %v", err)
	}
	if _, err := s.ReplayRange("..", 0, 1); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDeviceID) {
		t.Fatalf("bad device: %v", err)
	}
}

// TestOrphanSidecarsSweptAtOpen: sidecars and temp files without a
// surviving data file (a crash between retention's idx-then-seg deletes,
// or a torn prefix rewrite) are removed by the open sweep, and never
// trusted as data.
func TestOrphanSidecarsSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Sync: SyncNever, MaxFileSize: 512})
	const dev = "orphans"
	segs := simplified(t, gen.Taxi, 300, 17)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate crash leftovers: a sidecar whose data file is gone, and a
	// temp file from an interrupted prefix rewrite.
	devDir := filepath.Join(dir, escapeDevice(dev))
	orphan := filepath.Join(devDir, idxName(99))
	if err := os.WriteFile(orphan, appendIndexFile(nil, 100, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(devDir, fileName(1)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, Config{Dir: dir, Sync: SyncNever, MaxFileSize: 512})
	got, err := s2.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEqual(got, all) {
		t.Fatalf("replay with crash leftovers: %d segments, want %d", len(got), len(all))
	}
	for _, f := range []string{orphan, tmp} {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the open sweep (%v)", f, err)
		}
	}
}

// TestRetentionDropsSidecarsWithFiles: whole-file retention removes the
// sidecar alongside (in fact before) its data file — no orphans pile up.
func TestRetentionDropsSidecarsWithFiles(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, MaxFileSize: 512, MaxLogBytes: 1 << 10})
	const dev = "reaped"
	segs := simplified(t, gen.Truck, 600, 21)
	for _, sg := range segs {
		if err := s.Append(dev, []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	devDir := filepath.Join(s.cfg.Dir, escapeDevice(dev))
	entries, err := os.ReadDir(devDir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, e := range entries {
		live[e.Name()] = true
	}
	for name := range live {
		if filepath.Ext(name) == idxSuffix {
			data := name[:len(name)-len(idxSuffix)] + fileSuffix
			if !live[data] {
				t.Errorf("orphan sidecar %s survived retention", name)
			}
		}
	}
	if st := s.Stats(); st.DeletedFiles == 0 {
		t.Fatalf("retention deleted nothing: %+v", st)
	}
}

// preadSizeFS is osFS with query-path files that record the largest
// single ReadAt they serve.
type preadSizeFS struct {
	osFS
	largest atomic.Int64
}

func (p *preadSizeFS) Open(name string) (file, error) {
	f, err := p.osFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &preadSizeFile{file: f, largest: &p.largest}, nil
}

type preadSizeFile struct {
	file
	largest *atomic.Int64
}

func (f *preadSizeFile) ReadAt(b []byte, off int64) (int, error) {
	for n := int64(len(b)); ; {
		cur := f.largest.Load()
		if n <= cur || f.largest.CompareAndSwap(cur, n) {
			break
		}
	}
	return f.file.ReadAt(b, off)
}

// TestUncachedReplayPreadsOneSpan: with the cache off, Replay reads one
// index-entry span per pread, however large the file — the memory bound
// Replay documents. A single ~790 KB file of about a dozen 64 KiB
// entries must never be read in one piece.
func TestUncachedReplayPreadsOneSpan(t *testing.T) {
	ffs := &preadSizeFS{}
	s, err := openFS(Config{Dir: t.TempDir(), Sync: SyncNever}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const dev = "big"
	segs := syntheticSegs(64 << 10)
	appendInChunks(t, s, dev, segs, 64)

	snap, err := s.snapshot(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.seqs) != 1 {
		t.Fatalf("log spans %d files, want 1", len(snap.seqs))
	}
	fi, err := snap.index(s, snap.tailSeq())
	if err != nil {
		t.Fatal(err)
	}
	var largestSpan int64
	for i := range fi.entries {
		largestSpan = max(largestSpan, entryEnd(fi, i)-fi.entries[i].off)
	}
	entries, fileLen := len(fi.entries), fi.dataLen
	snap.release() // fi aliases the pooled snapshot's tail copy
	if entries < 8 {
		t.Fatalf("%d index entries over %d bytes: too few to tell one span from the file", entries, fileLen)
	}

	got, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEqual(got, segs) {
		t.Fatalf("replayed %d segments, appended %d", len(got), len(segs))
	}
	if p := ffs.largest.Load(); p == 0 || p > largestSpan {
		t.Fatalf("largest pread %d bytes; largest entry span %d, file %d", p, largestSpan, fileLen)
	}
}

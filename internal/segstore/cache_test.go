package segstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// Tests for the concurrent cached read path: every cached answer must be
// identical to what the bytes on disk say, across appends, rotation,
// retention deletes, prefix truncation, and re-ingest overlap — and the
// snapshot model must hold up under racing readers and writers.

// rawReplay decodes device's log straight from the files on disk — the
// ground truth, sharing nothing with the read path or cache under test.
func rawReplay(t *testing.T, dir, dev string) []traj.Segment {
	t.Helper()
	ddir := filepath.Join(dir, escapeDevice(dev))
	seqs, _, err := (&Store{fs: osFS{}}).listSeqs(ddir)
	if err != nil {
		t.Fatal(err)
	}
	var out []traj.Segment
	for _, seq := range seqs {
		b, err := os.ReadFile(filepath.Join(ddir, fileName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if out, err = refDecodeRecordRange(out, b[len(fileMagic):]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// segmentAtOracle is SegmentAt's contract by brute force: the
// last-appended segment covering t.
func segmentAtOracle(all []traj.Segment, t int64) (traj.Segment, bool) {
	for i := len(all) - 1; i >= 0; i-- {
		if all[i].Start.T <= t && t <= all[i].End.T {
			return all[i], true
		}
	}
	return traj.Segment{}, false
}

// verifyAgainstRaw checks Replay, unbounded and ranged ReplayRange, and
// SegmentAt probes against the raw on-disk decode. Called twice per
// phase; with the cache on, the second pass answers from it — so any
// staleness the phase's mutations should have invalidated shows up as a
// mismatch.
func verifyAgainstRaw(t *testing.T, s *Store, dir, dev string) {
	t.Helper()
	raw := rawReplay(t, dir, dev)
	got, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEqual(got, raw) {
		t.Fatalf("Replay: %d segs, raw scan %d", len(got), len(raw))
	}
	if got, err = s.ReplayRange(dev, math.MinInt64, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !segsEqual(got, raw) {
		t.Fatalf("unbounded ReplayRange: %d segs, raw scan %d", len(got), len(raw))
	}
	if len(raw) == 0 {
		return
	}
	for _, i := range []int{0, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		sg := raw[i]
		for _, r := range [][2]int64{
			{sg.Start.T, sg.End.T},
			{sg.Start.T - 1, sg.Start.T + 1},
			{sg.End.T, sg.End.T},
		} {
			got, err := s.ReplayRange(dev, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if !segsEqual(got, rangeOracle(raw, r[0], r[1])) {
				t.Fatalf("ReplayRange[%d, %d] mismatch", r[0], r[1])
			}
		}
		for _, tm := range []int64{sg.Start.T, (sg.Start.T + sg.End.T) / 2, sg.End.T} {
			want, ok := segmentAtOracle(raw, tm)
			gotSeg, err := s.SegmentAt(dev, tm)
			switch {
			case ok && err != nil:
				t.Fatalf("SegmentAt(%d): %v", tm, err)
			case ok && gotSeg != want:
				t.Fatalf("SegmentAt(%d) = %+v, want %+v", tm, gotSeg, want)
			case !ok && !errors.Is(err, ErrNoPosition):
				t.Fatalf("SegmentAt(%d) in a gap: %v", tm, err)
			}
		}
	}
}

// TestReadCacheCoherenceOracle interleaves every mutation the store
// supports — appends, rotation, size-budget deletes, expired-prefix
// truncation, re-ingest of an older time span — with queries, asserting
// after each phase (twice: cold-ish, then fully cached) that every
// answer matches a raw decode of the bytes on disk. Queries read through
// one span function whether or not the cache is on, so the oracle runs
// in both modes: with the cache off every answer comes from disk, with
// it on the second pass comes from cached granules. The 4 KiB budget
// holds a handful of per-record granules, so that cache is full and
// declining most misses, which read through the cache-off path. Each
// mode runs with per-record index entries (every record a chain start:
// maximum cache churn) and with 128-byte entries, inside which records
// are chained (record.go).
func TestReadCacheCoherenceOracle(t *testing.T) {
	for _, cacheBytes := range []int64{0, 4 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			for _, gran := range []int64{1, 128} {
				t.Run(fmt.Sprintf("gran=%d", gran), func(t *testing.T) { coherenceOracle(t, cacheBytes, gran) })
			}
		})
	}
}

// coherenceOracle is one TestReadCacheCoherenceOracle run: a cache of
// cacheBytes over index entries of gran bytes.
func coherenceOracle(t *testing.T, cacheBytes, gran int64) {
	dir := t.TempDir()
	s := openStore(t, Config{
		Dir:            dir,
		Sync:           SyncNever,
		SyncEvery:      time.Hour, // no background pass racing the oracle
		MaxFileSize:    512,
		MaxLogBytes:    2 << 10,
		MaxLogAge:      time.Hour,
		ReadCacheBytes: cacheBytes,
	})
	s.idxGran = gran
	clock := int64(1_000_000)
	s.now = func() time.Time { return time.UnixMilli(clock) }
	const dev = "oracle"
	segs := simplified(t, gen.Taxi, 900, 29)

	appendPhase := func(from, to int) {
		t.Helper()
		for i := from; i < to; i += 4 {
			clock += 1000
			if err := s.Append(dev, segs[i:min(i+4, to)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	verify := func() {
		t.Helper()
		verifyAgainstRaw(t, s, dir, dev) // populates the cache
		verifyAgainstRaw(t, s, dir, dev) // answered from it
	}

	// Phase 1: plain growth across several rotations.
	appendPhase(0, len(segs)/2)
	verify()

	// Phase 2: more growth — the cached tail granules from phase 1
	// must not shadow the records appended since (tail spans re-key
	// as they grow), and size-budget deletes fire at rotation.
	appendPhase(len(segs)/2, len(segs))
	verify()

	// Phase 3: re-ingest an old time span — entries go unsorted, and
	// last-appended-wins must hold through the cache.
	if err := s.Append(dev, segs[len(segs)/3:len(segs)/3+30]); err != nil {
		t.Fatal(err)
	}
	verify()

	// Phase 4: expire everything appended so far and compact — the
	// oldest surviving file is rewritten without its expired prefix,
	// reusing byte offsets for different records. Stale granules
	// must go with it.
	clock += (3 * time.Hour).Milliseconds()
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	verify()

	// Phase 5: life goes on after truncation.
	if err := s.Append(dev, segs[:8]); err != nil {
		t.Fatal(err)
	}
	verify()

	st := s.Stats()
	if cacheBytes > 0 && (st.ReadCacheHits == 0 || st.ReadCacheMiss == 0) {
		t.Fatalf("cache never exercised: %+v", st)
	}
	if cacheBytes == 4<<10 && st.ReadCacheDeclined == 0 {
		t.Fatalf("a full cache never declined a miss: %+v", st)
	}
	if st.DeletedFiles == 0 {
		t.Fatalf("size-budget deletes never fired — shrink MaxLogBytes: %+v", st)
	}
	if st.PrefixTruncations == 0 {
		t.Fatalf("prefix truncation never fired: %+v", st)
	}
}

// TestReadCacheWarmNoIO: once a query has run, repeating it does no disk
// I/O at all — ReadBytes frozen, every granule a hit — and SegmentAt
// rides the same cached granules.
func TestReadCacheWarmNoIO(t *testing.T) {
	s := openStore(t, Config{Sync: SyncNever, SyncEvery: time.Hour, MaxFileSize: 2 << 10, ReadCacheBytes: 1 << 20})
	s.idxGran = 1
	const dev = "warm"
	segs := simplified(t, gen.Taxi, 800, 7)
	appendInChunks(t, s, dev, segs, 4)

	cold, err := s.ReplayRange(dev, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	if st1.ReadBytes == 0 || st1.ReadCacheMiss == 0 {
		t.Fatalf("cold read did no counted I/O: %+v", st1)
	}
	if st1.ReadCacheBytes == 0 {
		t.Fatalf("nothing resident after cold read: %+v", st1)
	}

	warm, err := s.ReplayRange(dev, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEqual(warm, cold) {
		t.Fatal("warm result differs from cold")
	}
	st2 := s.Stats()
	if st2.ReadBytes != st1.ReadBytes {
		t.Fatalf("warm read did I/O: ReadBytes %d -> %d", st1.ReadBytes, st2.ReadBytes)
	}
	if st2.ReadCacheMiss != st1.ReadCacheMiss {
		t.Fatalf("warm read missed: %d -> %d", st1.ReadCacheMiss, st2.ReadCacheMiss)
	}
	if st2.ReadCacheHits <= st1.ReadCacheHits {
		t.Fatalf("warm read did not hit: %d -> %d", st1.ReadCacheHits, st2.ReadCacheHits)
	}

	mid := cold[len(cold)/2]
	want, _ := segmentAtOracle(cold, mid.Start.T)
	got, err := s.SegmentAt(dev, mid.Start.T)
	if err != nil || got != want {
		t.Fatalf("SegmentAt = %+v, %v; want %+v", got, err, want)
	}
	if st3 := s.Stats(); st3.ReadBytes != st2.ReadBytes {
		t.Fatalf("warm SegmentAt did I/O: ReadBytes %d -> %d", st2.ReadBytes, st3.ReadBytes)
	}
}

// TestReadCacheBudgetEviction: a budget smaller than the log keeps
// resident bytes bounded while answers stay correct.
func TestReadCacheBudgetEviction(t *testing.T) {
	const budget = 8 << 10
	s := openStore(t, Config{Sync: SyncNever, SyncEvery: time.Hour, MaxFileSize: 1 << 10, ReadCacheBytes: budget})
	s.idxGran = 1
	const dev = "tight"
	segs := simplified(t, gen.Taxi, 900, 11)
	appendInChunks(t, s, dev, segs, 4)
	var all []traj.Segment
	for pass := 0; pass < 3; pass++ {
		got, err := s.ReplayRange(dev, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			all = got
		} else if !segsEqual(got, all) {
			t.Fatalf("pass %d differs", pass)
		}
		if st := s.Stats(); st.ReadCacheBytes > budget {
			t.Fatalf("resident %d over budget %d", st.ReadCacheBytes, budget)
		}
	}
}

// TestReadCacheScanResistance: a hot set that fits the budget, read a
// few times, survives a one-pass scan over four times the budget — each
// scanned granule is seen once, never more often than the hot LRU
// victim, so the cache declines it — and re-reading the hot set does no
// I/O. A plain LRU admits the scan and evicts the hot set. Declines
// start only once the scan overflows the budget.
func TestReadCacheScanResistance(t *testing.T) {
	const budget = 64 << 10
	s := openStore(t, Config{Sync: SyncNever, SyncEvery: time.Hour, ReadCacheBytes: budget})
	s.idxGran = 1 // per-record granules
	hot := syntheticSegs(160)
	appendInChunks(t, s, "hot", hot, 16) // 10 granules, ~14 KiB decoded
	scan := syntheticSegs(4 * budget / int(segmentBytes))
	appendInChunks(t, s, "scan", scan, 64) // 4× the budget decoded

	readHot := func() {
		t.Helper()
		got, err := s.Replay("hot")
		if err != nil || !segsEqual(got, hot) {
			t.Fatalf("hot replay: %d segments, %v", len(got), err)
		}
	}
	for i := 0; i < 3; i++ {
		readHot()
	}
	st1 := s.Stats()
	if st1.ReadCacheDeclined != 0 {
		t.Fatalf("declined %d misses while the working set fits: %+v", st1.ReadCacheDeclined, st1)
	}

	if got, err := s.Replay("scan"); err != nil || !segsEqual(got, scan) {
		t.Fatalf("scan: %d segments, %v", len(got), err)
	}
	st2 := s.Stats()
	if st2.ReadCacheDeclined == 0 {
		t.Fatalf("the scan overflowed the budget without a decline: %+v", st2)
	}

	readHot()
	if st3 := s.Stats(); st3.ReadBytes != st2.ReadBytes {
		t.Fatalf("the scan evicted the hot set: ReadBytes %d -> %d re-reading it", st2.ReadBytes, st3.ReadBytes)
	}
}

// TestReadCacheSingleflight: concurrent misses on one admitted granule
// do one fetch — one miss, one span's bytes read — and every reader
// gets the same answer.
func TestReadCacheSingleflight(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Sync: SyncNever, SyncEvery: time.Hour, ReadCacheBytes: 64 << 20})
	const dev = "shared"
	segs := syntheticSegs(4000)
	appendInChunks(t, s, dev, segs, 500) // one file, one index entry
	fi, err := os.Stat(filepath.Join(dir, escapeDevice(dev), fileName(1)))
	if err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got, err := s.Replay(dev); err != nil || !segsEqual(got, segs) {
				t.Errorf("replay: %d segments, %v", len(got), err)
			}
		}()
	}
	close(start)
	wg.Wait()
	after := s.Stats()
	if miss := after.ReadCacheMiss - before.ReadCacheMiss; miss != 1 {
		t.Errorf("%d misses, want 1", miss)
	}
	if read, span := after.ReadBytes-before.ReadBytes, fi.Size()-int64(len(fileMagic)); read != span {
		t.Errorf("read %d bytes, want one %d-byte span", read, span)
	}
}

// TestConcurrentReadersWriters races 8 readers (range, point, and full
// replays) against one writer (plain and deferred-commit appends) on a
// single device with rotation and size-budget retention live — the
// snapshot pins and cache invalidation must keep every read clean, and
// the final replay byte-identical to the raw on-disk decode. Run under
// -race in CI.
func TestConcurrentReadersWriters(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{
		Dir:            dir,
		Sync:           SyncNever,
		SyncEvery:      time.Hour,
		MaxFileSize:    1 << 10,
		MaxLogBytes:    64 << 10,
		ReadCacheBytes: 1 << 20,
	})
	s.idxGran = 1
	const dev = "hot"
	segs := syntheticSegs(2000)
	appendInChunks(t, s, dev, segs[:200], 5)

	writerDone := make(chan error, 1)
	go func() {
		for i := 200; i < len(segs); i += 5 {
			chunk := segs[i:min(i+5, len(segs))]
			var err error
			if i%3 == 0 {
				if err = s.AppendNoSync(dev, chunk); err == nil {
					err = s.CommitDevices([]string{dev})
				}
			} else {
				err = s.Append(dev, chunk)
			}
			if err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from := int64((i*131+r*977)%2000) * 2000
				switch i % 3 {
				case 0:
					if _, err := s.ReplayRange(dev, from, from+100_000); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.SegmentAt(dev, from+1000); err != nil && !errors.Is(err, ErrNoPosition) {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Replay(dev); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}

	if err := <-writerDone; err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := s.Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if raw := rawReplay(t, dir, dev); !segsEqual(got, raw) {
		t.Fatalf("final replay %d segs, raw scan %d", len(got), len(raw))
	}
}

package segstore

import "testing"

// TestReadPathAllocs gates the read path's allocations per query on the
// 16-segment window of BenchmarkReplayRange and BenchmarkReplayRangeHot
// (16384 segments in 64 KiB files): a warm cached SegmentAt allocates
// nothing, a warm cached window only its result, and an uncached window
// at most 6: the result, plus the path and descriptor of the one file it
// opens. A window whose miss the cache declines costs what an uncached
// one does.
func TestReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const n = 16384
	segs := syntheticSegs(n)
	from := segs[n/2].Start.T + 1
	to := segs[n/2+15].End.T - 1
	build := func(cacheBytes int64) *Store {
		s := openStore(t, Config{MaxFileSize: 64 << 10, Sync: SyncNever, ReadCacheBytes: cacheBytes})
		appendInChunks(t, s, "dev", segs, 64)
		return s
	}
	window := func(s *Store) func() {
		return func() {
			if got, err := s.ReplayRange("dev", from, to); err != nil || len(got) != 16 {
				t.Fatalf("%d segments, %v", len(got), err)
			}
		}
	}
	cold, warm := build(0), build(64<<20)
	// declined holds one granule of the log's two full 64 KiB files
	// (~190 KB packed each), not both. The hot probes read both and the
	// window the second file's, so that one is the more frequent and
	// stays resident, and the probe of the first file is a miss the cache
	// declines, never more frequent than the victim it would displace. A
	// plain LRU would thrash on this cycle, missing twice a round.
	declined := build(320 << 10)
	hot := []int64{segs[10].Start.T, segs[11000].Start.T}
	probeHot := func() {
		for _, tm := range hot {
			if _, err := declined.SegmentAt("dev", tm); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		probeHot()
	}
	declinedWindow := window(declined)
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"warm/at", 0, func() {
			if _, err := warm.SegmentAt("dev", (from+to)/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"warm/window", 1, window(warm)},
		{"cold/window", 6, window(cold)},
		{"declined/window", 6, func() { declinedWindow(); probeHot() }},
	} {
		c.f() // prime the cache and the pools
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %.1f allocs per query, want at most %.0f", c.name, got, c.max)
		}
	}
	if st := declined.Stats(); st.ReadCacheDeclined < 101 {
		t.Errorf("declined/window: %d declined misses, want one per round: %+v", st.ReadCacheDeclined, st)
	}
}

// TestAppendPathAllocs gates the append path's allocations: a warm
// Append, whose log holds an open handle, allocates nothing, and a cold
// one, which alternates between two devices under a one-handle cap so
// that every append closes the other log's file and reopens its own,
// allocates at most 5 — what opening the file costs, the path of which
// the log keeps ready rather than formatting it on every miss.
func TestAppendPathAllocs(t *testing.T) {
	segs := syntheticSegs(8)
	for _, c := range []struct {
		name     string
		maxOpen  int
		devices  []string
		maxAlloc float64
	}{
		{"warm", 0, []string{"warm"}, 0},
		{"cold", 1, []string{"cold-a", "cold-b"}, 5},
	} {
		s := openStore(t, Config{MaxOpenFiles: c.maxOpen, Sync: SyncNever})
		for _, d := range c.devices { // pay first-open recovery up front
			if err := s.Append(d, segs); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		got := testing.AllocsPerRun(200, func() {
			if err := s.Append(c.devices[i%len(c.devices)], segs); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > c.maxAlloc {
			t.Errorf("%s: %.1f allocs per Append, want at most %.0f", c.name, got, c.maxAlloc)
		}
		if st := s.Stats(); c.maxOpen == 1 && st.HandleEvictions < 200 {
			t.Errorf("%s: %d handle evictions, want one per Append: %+v", c.name, st.HandleEvictions, st)
		}
	}
}

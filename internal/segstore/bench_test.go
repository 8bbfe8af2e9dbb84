package segstore

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// BenchmarkAppendColdHandle measures the cost the MaxOpenFiles LRU adds
// to an append that lost its handle: alternating between two devices
// under a cap of one makes every append a miss — close (with eviction),
// reopen, seek — on top of the write itself.
func BenchmarkAppendColdHandle(b *testing.B) {
	b.ReportAllocs()
	s, err := Open(Config{Dir: b.TempDir(), MaxOpenFiles: 1, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	segs := syntheticSegs(8)
	devs := [2]string{"cold-a", "cold-b"}
	for _, d := range devs { // pay first-open recovery outside the loop
		if err := s.Append(d, segs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(devs[i%2], segs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.HandleEvictions < int64(b.N) {
		b.Fatalf("benchmark not exercising eviction: %+v", st)
	}
}

// BenchmarkAppendWarmHandle is the baseline: same append with the
// handle already open, the common case under a generous cap.
func BenchmarkAppendWarmHandle(b *testing.B) {
	b.ReportAllocs()
	s, err := Open(Config{Dir: b.TempDir(), Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	segs := syntheticSegs(8)
	if err := s.Append("warm", segs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append("warm", segs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures a cold replay of a multi-file log at several
// sizes — the restart-recovery read path.
func BenchmarkReplay(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			dir := b.TempDir()
			s, err := Open(Config{Dir: dir, MaxFileSize: 4096, Sync: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Append("dev", syntheticSegs(n)); err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Open(Config{Dir: dir, Sync: SyncNever})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				segs, err := s.Replay("dev")
				if err != nil || len(segs) != n {
					b.Fatalf("%d segments, %v", len(segs), err)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkReplayRange pits the indexed range read against a full scan
// over the same log: a narrow window on a large multi-file log should
// cost a couple of index lookups and one span read per touched file —
// O(log n) in records — where Replay pays for every byte.
func BenchmarkReplayRange(b *testing.B) {
	b.ReportAllocs()
	const n = 16384
	segs := syntheticSegs(n)
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir, MaxFileSize: 64 << 10, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for off := 0; off < n; off += 64 {
		if err := s.Append("dev", segs[off:off+64]); err != nil {
			b.Fatal(err)
		}
	}
	// A 16-segment window in the middle of the log, nudged 1 ms inward so
	// the boundary-sharing neighbor segments fall outside it.
	from := segs[n/2].Start.T + 1
	to := segs[n/2+15].End.T - 1

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := s.ReplayRange("dev", from, to)
			if err != nil || len(got) != 16 {
				b.Fatalf("%d segments, %v", len(got), err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all, err := s.Replay("dev")
			if err != nil {
				b.Fatal(err)
			}
			got := all[:0]
			for _, sg := range all {
				if sg.End.T >= from && sg.Start.T <= to {
					got = append(got, sg)
				}
			}
			if len(got) != 16 {
				b.Fatalf("%d segments", len(got))
			}
		}
	})
	b.Run("at", func(b *testing.B) {
		b.ReportAllocs()
		t := (from + to) / 2
		for i := 0; i < b.N; i++ {
			if _, err := s.SegmentAt("dev", t); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplayRangeHot measures the concurrent cached read path: the
// same 16-segment window (and position probe) as BenchmarkReplayRange,
// cold (ReadCacheBytes=0 — every query preads and decodes its spans)
// versus warm (cached granules — no I/O at all), at 1 and 8 concurrent
// readers hammering ONE device: the workload the per-device lock used
// to serialize end to end. thrash spreads 16-segment windows uniformly
// over 256 devices whose decoded spans total 8× its 1 MiB budget: a
// working set the cache cannot hold, where a miss should cost what a
// cold read does.
func BenchmarkReplayRangeHot(b *testing.B) {
	const n = 16384
	segs := syntheticSegs(n)
	build := func(cacheBytes int64) *Store {
		s, err := Open(Config{Dir: b.TempDir(), MaxFileSize: 64 << 10, Sync: SyncNever, ReadCacheBytes: cacheBytes})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		for off := 0; off < n; off += 64 {
			if err := s.Append("dev", segs[off:off+64]); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	from := segs[n/2].Start.T + 1
	to := segs[n/2+15].End.T - 1
	window := func(b *testing.B, s *Store, readers int) {
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			cnt := b.N / readers
			if r == 0 {
				cnt += b.N % readers
			}
			wg.Add(1)
			go func(cnt int) {
				defer wg.Done()
				for i := 0; i < cnt; i++ {
					got, err := s.ReplayRange("dev", from, to)
					if err != nil || len(got) != 16 {
						b.Errorf("%d segments, %v", len(got), err)
						return
					}
				}
			}(cnt)
		}
		wg.Wait()
	}
	for _, mode := range []struct {
		name  string
		cache int64
	}{{"cold", 0}, {"warm", 64 << 20}} {
		s := build(mode.cache)
		if mode.cache > 0 { // prime: the steady state being measured is all-hits
			if _, err := s.ReplayRange("dev", from, to); err != nil {
				b.Fatal(err)
			}
		}
		for _, readers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/readers=%d", mode.name, readers), func(b *testing.B) {
				window(b, s, readers)
			})
		}
		if mode.cache > 0 {
			b.Run("warm/at", func(b *testing.B) {
				b.ReportAllocs()
				tm := (from + to) / 2
				for i := 0; i < b.N; i++ {
					if _, err := s.SegmentAt("dev", tm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	const devices, perDevice = 256, 470 // ~34 KB decoded a device, one span each
	s, err := Open(Config{Dir: b.TempDir(), Sync: SyncNever, ReadCacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	hist := syntheticSegs(perDevice)
	names := make([]string, devices)
	for d := range names {
		names[d] = fmt.Sprintf("dev-%03d", d)
		appendInChunks(b, s, names[d], hist, 30)
	}
	b.Run("thrash", func(b *testing.B) {
		b.ReportAllocs()
		r := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < b.N; i++ {
			k := r.IntN(perDevice - 16)
			got, err := s.ReplayRange(names[r.IntN(devices)], hist[k].Start.T+1, hist[k+15].End.T-1)
			if err != nil || len(got) != 16 {
				b.Fatalf("%d segments, %v", len(got), err)
			}
		}
	})
}

// BenchmarkDecodeSpan pins the record decoder that every span read pays
// for, cached or not: one 470-segment index-entry span of a simplified
// taxi trajectory, framed as 16 records of up to 30 segments (what a
// device ingesting 256-point batches writes), decoded into a reused
// scratch slice. The span is encoded the way each file kind holds it —
// chained, what the store writes; v2 chain starts, what TSG2 files hold;
// v1, what TSG1 files hold — and span-bytes reports its size. The
// reference case runs the v1 decoder the in-place one replaced
// (record_ref_test.go) over the v1 span.
func BenchmarkDecodeSpan(b *testing.B) {
	segs := simplified(b, gen.Taxi, 6000, 47)[:470]
	chained, v2, v1 := recordSpan(segs, 30, appendRecordPayload), recordSpan(segs, 30, v2Records), recordSpan(segs, 30, v1Records)
	for _, c := range []struct {
		name   string
		span   []byte
		decode func([]traj.Segment, []byte) ([]traj.Segment, error)
	}{{"chained", chained, decodeRecordRange}, {"v2", v2, decodeRecordRange}, {"v1", v1, decodeRecordRange}, {"reference", v1, refDecodeRecordRange}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.span)))
			var scratch []traj.Segment
			for i := 0; i < b.N; i++ {
				got, err := c.decode(scratch[:0], c.span)
				if err != nil || len(got) != len(segs) {
					b.Fatalf("%d segments, %v", len(got), err)
				}
				scratch = got
			}
			b.ReportMetric(float64(len(c.span)), "span-bytes")
		})
	}
}

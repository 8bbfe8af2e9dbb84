package segstore

import (
	"math"
	"testing"
	"unsafe"

	"trajsim/internal/enc"
	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// Tests for the packed form the granule cache holds (packed.go): a packed
// span rebuilds exactly the decoded segments or is refused, costs at most
// 24 bytes a segment on realistic spans, and a span that does not pack is
// still answered, uncached.

// segmentBytes is a decoded segment's size, by which
// TestReadCacheScanResistance sizes its scan.
var segmentBytes = int64(unsafe.Sizeof(traj.Segment{}))

// segBitsEqual compares two segments bit for bit, floats included.
func segBitsEqual(a, b traj.Segment) bool {
	return samePoint(a.Start, b.Start) && samePoint(a.End, b.End) && a.StartIdx == b.StartIdx &&
		a.EndIdx == b.EndIdx && a.VirtualStart == b.VirtualStart && a.VirtualEnd == b.VirtualEnd
}

// checkPacked fails t unless p rebuilds exactly segs, through every
// accessor the read path uses.
func checkPacked(t *testing.T, p *packedSpan, segs []traj.Segment) {
	t.Helper()
	if p.len() != len(segs) {
		t.Fatalf("packed span holds %d segments, want %d", p.len(), len(segs))
	}
	for i, s := range segs {
		if got := p.seg(i); !segBitsEqual(got, s) {
			t.Fatalf("segment %d rebuilds as %+v, want %+v", i, got, s)
		}
		if p.startT(i) != s.Start.T || p.endT(i) != s.End.T {
			t.Fatalf("segment %d: times %d–%d, want %d–%d", i, p.startT(i), p.endT(i), s.Start.T, s.End.T)
		}
	}
}

// TestCachedBytesPerSegment pins what a cached segment costs: every
// granule of the gen presets' logs — the history records of 256-point
// batches and the chained live records of 16-point batches, read back
// through a cache that keeps them all — costs at most 24 bytes a segment
// besides granuleOverhead. A decoded segment took 72.
func TestCachedBytesPerSegment(t *testing.T) {
	for _, arm := range []struct {
		name    string
		records func(testing.TB, gen.Preset, uint64) [][]traj.Segment
	}{{"history", presetRecords}, {"live", liveRecords}} {
		t.Run(arm.name, func(t *testing.T) {
			s := openStore(t, Config{Sync: SyncNever, ReadCacheBytes: 64 << 20})
			for i, p := range gen.Presets {
				for _, rec := range arm.records(t, p, uint64(90+i)) {
					if err := s.Append(p.String(), rec); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Replay(p.String()); err != nil {
					t.Fatal(err)
				}
			}
			var segs, bytes int64
			s.cache.mu.Lock()
			defer s.cache.mu.Unlock()
			for _, g := range s.cache.byKey {
				n := int64(g.span.len())
				if perSeg := float64(g.cost-granuleOverhead) / float64(n); perSeg > 24 {
					t.Errorf("%v: %d segments cost %d bytes, %.1f a segment besides the overhead", g.key, n, g.cost, perSeg)
				}
				segs += n
				bytes += g.cost - granuleOverhead
			}
			if segs == 0 {
				t.Fatal("nothing cached")
			}
			t.Logf("%d granules, %d segments: %.2f B/segment besides the overhead (decoded: %d)",
				len(s.cache.byKey), segs, float64(bytes)/float64(segs), segmentBytes)
		})
	}
}

// TestUnpackableSpanDeclined: a span whose coordinates lie farther from
// its first Start than an int32 of 1 cm counts reaches (21,475 km) does
// not pack. Every query over it still answers exactly what the bytes on
// disk say, as a declined miss that caches nothing, while a packable
// device's spans in the same store are cached as usual.
func TestUnpackableSpanDeclined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Sync: SyncNever, ReadCacheBytes: 64 << 20})
	far := syntheticSegs(40)
	far[20].End.X = 3e7 // 30,000 km east, and back
	far[21].Start.X = 3e7
	if err := s.Append("far", far); err != nil {
		t.Fatal(err)
	}
	want := rawReplay(t, dir, "far")
	var p packedSpan
	if p.pack(want) {
		t.Fatal("a span 30,000 km wide packed")
	}
	for pass := 0; pass < 3; pass++ {
		got, err := s.Replay("far")
		if err != nil || !segsEqual(got, want) {
			t.Fatalf("pass %d: replay %d segments, %v; want %d", pass, len(got), err, len(want))
		}
		for _, sg := range want[18:24] {
			if got, err := s.SegmentAt("far", sg.Start.T+1); err != nil || got != sg {
				t.Fatalf("SegmentAt(%d) = %+v, %v; want %+v", sg.Start.T+1, got, err, sg)
			}
		}
	}
	st := s.Stats()
	if st.ReadCacheHits != 0 || st.ReadCacheBytes != 0 || st.ReadCacheDeclined != st.ReadCacheMiss || st.ReadCacheMiss < 21 {
		t.Fatalf("want every read a declined miss and nothing resident: %+v", st)
	}

	near := syntheticSegs(40)
	if err := s.Append("near", near); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if got, err := s.Replay("near"); err != nil || !segsEqual(got, near) {
			t.Fatalf("near: %d segments, %v", len(got), err)
		}
	}
	if after := s.Stats(); after.ReadCacheHits != 1 || after.ReadCacheBytes == 0 || after.ReadCacheDeclined != st.ReadCacheDeclined {
		t.Fatalf("a packable span beside it was not cached: %+v", after)
	}
}

// TestPackedSpanUnsortedLastWins: a span whose times go back cannot be
// searched by time — one where a device re-ingests an older stretch, so
// both times go back; one where a long segment starts before the
// segments appended ahead of it, so Start.T does; and one where it ends
// after the segments appended behind it, so End.T does — each in the
// same index entry as the first ingest. SegmentAt must still answer the
// segment appended last, ReplayRange every overlapping segment in append
// order, with the cache off, filling, and warm.
func TestPackedSpanUnsortedLastWins(t *testing.T) {
	first := syntheticSegs(60)
	again := syntheticSegs(60)[20:30]
	for i := range again {
		again[i].Start.Y += 5 // tell the copies apart
		again[i].End.Y += 5
	}
	long := []traj.Segment{{Start: first[10].Start, End: traj.At(70, 3, first[59].End.T), StartIdx: 30, EndIdx: 200}}
	early := []traj.Segment{{Start: first[5].Start, End: traj.At(80, 3, 300_000), StartIdx: 15, EndIdx: 900}}
	for name, batches := range map[string][][]traj.Segment{
		"re-ingest":  {first, again},
		"long-last":  {first, long},
		"long-early": {first[:5], early, first[5:]},
	} {
		for _, cacheBytes := range []int64{0, 64 << 20} {
			dir := t.TempDir()
			s := openStore(t, Config{Dir: dir, Sync: SyncNever, ReadCacheBytes: cacheBytes})
			for _, b := range batches {
				if err := s.Append("dev", b); err != nil {
					t.Fatal(err)
				}
			}
			raw := rawReplay(t, dir, "dev")
			var p packedSpan
			if !p.pack(raw) || p.sorted {
				t.Fatalf("%s: the log packs to one unsorted span: %v, sorted %v", name, p.len(), p.sorted)
			}
			for pass := 0; pass < 2; pass++ {
				for tm := first[15].Start.T; tm <= first[35].End.T; tm += 500 {
					want, _ := segmentAtOracle(raw, tm)
					if got, err := s.SegmentAt("dev", tm); err != nil || got != want {
						t.Fatalf("%s, cache %d, pass %d: SegmentAt(%d) = %+v, %v; want %+v", name, cacheBytes, pass, tm, got, err, want)
					}
					got, err := s.ReplayRange("dev", tm, tm+3000)
					if err != nil || !segsEqual(got, rangeOracle(raw, tm, tm+3000)) {
						t.Fatalf("%s, cache %d, pass %d: ReplayRange(%d, %d): %d segments, %v", name, cacheBytes, pass, tm, tm+3000, len(got), err)
					}
				}
			}
			if st := s.Stats(); cacheBytes > 0 && st.ReadCacheHits == 0 {
				t.Fatalf("%s, cache %d never hit: %+v", name, cacheBytes, st)
			}
		}
	}
}

// FuzzPackedSpan: every span decodeRecordRange accepts either packs and
// rebuilds to exactly its segments, bit for bit, or is refused — and is
// refused only when some value does lie beyond the packed widths: a span
// whose coordinates are all within ±2^30 counts and whose indexes are
// all within ±2^30 must pack. A packed span kept by the cache costs no
// more than maxGranuleCost predicts from its bytes on disk. Each input
// is read three ways: as a span of framed records, reframed so that
// each payload passes its CRC (reframe), and as segments (chainBatches)
// encoded into one chained span, which reaches every start mode, index
// jumps of any width and coordinates past an int32 of counts.
func FuzzPackedSpan(f *testing.F) {
	seedRecords(f, v1Records)
	seedRecords(f, v2Records)
	seedRecords(f, appendRecordPayload)
	wide := syntheticSegs(8)
	wide[3].End.X, wide[4].Start.X = 3e7, 3e7 // past an int32 of counts
	wide[5].StartIdx, wide[5].EndIdx = 3_000_000_000, 3_000_000_001
	wide[6].End.T = math.MaxInt64
	for _, encode := range []recordEncoder{v1Records, v2Records, appendRecordPayload} {
		f.Add(recordSpan(wide, 3, encode))
	}
	// A coordinate at the edge of int64 counts, whose decoded float no
	// longer quantizes back to a count: a one-segment v2 record, Start in
	// mode 3, End at the same place a millisecond later.
	edge := []byte{recordV2, 1, modeAbsolute << headModeShift}
	edge = enc.AppendVarint(edge, math.MaxInt64-100)
	f.Add(enc.AppendFrame(nil, append(edge, 0, 0, 0, 0, 0, 2, 0)))
	f.Fuzz(func(t *testing.T, b []byte) {
		var chained, payload []byte
		var c chain
		for _, bt := range chainBatches(b) {
			payload, c = appendRecordPayload(payload[:0], bt, c)
			chained = enc.AppendFrame(chained, payload)
		}
		var p packedSpan // reused, as a snapshot's packing scratch is
		for _, span := range [][]byte{b, reframe(b), chained} {
			segs, err := decodeRecordRange(nil, span)
			if err != nil {
				continue
			}
			if !p.pack(segs) {
				if packable(segs) {
					t.Fatalf("refused a span within ±2^30: %+v", segs)
				}
				continue
			}
			checkPacked(t, &p, segs)
			kept := p.clone()
			checkPacked(t, kept, segs)
			if cost, bound := granuleCost(kept), maxGranuleCost(int64(len(span))); cost > bound {
				t.Fatalf("%d segments in %d bytes cost %d, bound %d", len(segs), len(span), cost, bound)
			}
		}
	})
}

// packable reports whether every coordinate of segs is a count within
// ±2^30 and every index within ±2^30, which pack must accept.
func packable(segs []traj.Segment) bool {
	const lim = 1 << 30
	in := func(v float64) bool { return math.Abs(v) < lim*quantXY }
	for _, s := range segs {
		if !in(s.Start.X) || !in(s.Start.Y) || !in(s.End.X) || !in(s.End.Y) ||
			s.StartIdx <= -lim || s.StartIdx >= lim || s.EndIdx <= -lim || s.EndIdx >= lim {
			return false
		}
	}
	return true
}

package segstore

import (
	"fmt"
	"testing"

	"trajsim/internal/core"
	"trajsim/internal/enc"
	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// presetRecords returns the OPERB-A output (ζ = 40 m) of a 4,096-point
// trajectory of preset p, cut into the records a device ingesting
// 256-point batches writes: one per batch, holding the segments whose
// last point falls in it — about 29 each.
func presetRecords(t testing.TB, p gen.Preset, seed uint64) [][]traj.Segment {
	t.Helper()
	pw, err := core.SimplifyAggressive(gen.One(p, 4096, seed), 40)
	if err != nil {
		t.Fatal(err)
	}
	segs := []traj.Segment(pw)
	var recs [][]traj.Segment
	for lo := 0; lo < len(segs); {
		hi := lo + 1
		for hi < len(segs) && segs[hi].EndIdx/256 == segs[lo].EndIdx/256 {
			hi++
		}
		recs = append(recs, segs[lo:hi])
		lo = hi
	}
	return recs
}

// liveRecords returns the records a device streaming preset p's
// 4,096-point trajectory in 16-point batches writes: each batch's points
// pushed through a session's OPERB-A encoder (ζ = 40 m), the segments
// they finalize one record, and the encoder's tail one more — one to
// three segments per record, the records servebench's ingest-fleet
// writes.
func liveRecords(t testing.TB, p gen.Preset, seed uint64) [][]traj.Segment {
	t.Helper()
	e, err := core.NewAggressiveEncoder(40, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts := gen.One(p, 4096, seed)
	var recs [][]traj.Segment
	for lo := 0; lo < len(pts); lo += 16 {
		var rec []traj.Segment
		for _, q := range pts[lo:min(lo+16, len(pts))] {
			rec = append(rec, e.Push(q)...)
		}
		if len(rec) > 0 {
			recs = append(recs, rec)
		}
	}
	if tail := e.Flush(); len(tail) > 0 {
		recs = append(recs, append([]traj.Segment(nil), tail...))
	}
	return recs
}

// TestStoredBytesPerSegment pins what the store writes per segment on
// realistic input, framing included: every gen preset's records,
// appended through the store. The history arm writes a record per
// 256-point batch, about 29 segments each; the live arm a record per
// 16-point batch, one to three segments each, most of them chained. The
// test logs what the same records take unchained and in the v1 layout:
// 11.2 B/segment against 11.7 and 15.1 for history, and 14.2 against
// 21.0 and 22.5 for live records, which the bound of 15 holds.
func TestStoredBytesPerSegment(t *testing.T) {
	for _, arm := range []struct {
		name    string
		records func(testing.TB, gen.Preset, uint64) [][]traj.Segment
		bound   float64
	}{{"history", presetRecords, 12.5}, {"live", liveRecords, 15}} {
		t.Run(arm.name, func(t *testing.T) {
			s := openStore(t, Config{Sync: SyncNever})
			var v1Bytes, v2Bytes int
			for i, p := range gen.Presets {
				for _, rec := range arm.records(t, p, uint64(90+i)) {
					if err := s.Append(p.String(), rec); err != nil {
						t.Fatal(err)
					}
					v1Bytes += len(enc.AppendFrame(nil, appendRecordPayloadV1(nil, rec)))
					v2Bytes += len(enc.AppendFrame(nil, chainStart(rec)))
				}
			}
			st := s.Stats()
			perSeg := float64(st.Bytes) / float64(st.Segments)
			t.Logf("%d segments in %d records: %.2f B/segment (unchained: %.2f, v1 layout: %.2f)",
				st.Segments, st.Appends, perSeg, float64(v2Bytes)/float64(st.Segments), float64(v1Bytes)/float64(st.Segments))
			if perSeg > arm.bound {
				t.Errorf("%.2f bytes per segment, want at most %.1f", perSeg, arm.bound)
			}
		})
	}
}

// TestRecordV2MatchesV1: a batch encoded in either layout, and cut into
// chained records, decodes to the same segments — the v2 encoder takes
// a shortcut only where the quantized values agree. The batches cover
// every start mode: realistic encoder output, the golden segments
// (virtual endpoints, an index jump), gaps in space, time and index, and
// Starts that differ from the previous End below the 1 cm quantum.
func TestRecordV2MatchesV1(t *testing.T) {
	odd := []traj.Segment{
		{Start: traj.At(5, 5, 1000), End: traj.At(9, 1, 2000), StartIdx: 7, EndIdx: 9},
		// Start in the previous End's 1 cm count: mode 0.
		{Start: traj.At(9.001, 1.004, 2000), End: traj.At(3, 3, 2500), StartIdx: 9, EndIdx: 12},
		{Start: traj.At(3, 3, 2500), End: traj.At(4, 4, 2600), StartIdx: 13, EndIdx: 13}, // mode 1
		{Start: traj.At(4, 4, 2600), End: traj.At(5, 5, 2700), StartIdx: 20, EndIdx: 25}, // mode 2
		// Backwards in space and index, then a 1 ms gap: mode 3.
		{Start: traj.At(4, 4, 2600), End: traj.At(-5, 5, 2800), StartIdx: 2, EndIdx: 1},
		{Start: traj.At(-5, 5, 2801), End: traj.At(-5, 5, 2900), StartIdx: 1, EndIdx: 1},
		// One count away from the previous End: mode 3.
		{Start: traj.At(-5.006, 5, 2900), End: traj.At(0, 0, 3000), StartIdx: 1, EndIdx: 2},
		{Start: traj.At(0, 0, 3000), End: traj.At(0, 0, 3000), StartIdx: 2, EndIdx: 2, VirtualStart: true},
	}
	batches := [][]traj.Segment{goldenSegments(), syntheticSegs(40), odd}
	for i, p := range gen.Presets {
		batches = append(batches, simplified(t, p, 2000, uint64(80+i)))
	}
	for i, b := range batches {
		want, err := decodeOne(nil, appendRecordPayloadV1(nil, b))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeOne(nil, chainStart(b))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !segsEqual(got, want) {
			t.Fatalf("batch %d: v2 decodes to\n%v\nv1 to\n%v", i, got, want)
		}
		// Cut into chained records, each first segment takes the mode the
		// same segment takes inside one record.
		for _, chunk := range []int{1, 3} {
			got, err := decodeRecordRange(nil, recordSpan(b, chunk, appendRecordPayload))
			if err != nil || !segsEqual(got, want) {
				t.Fatalf("batch %d in chained records of %d: %v, decodes to\n%v\nv1 to\n%v", i, chunk, err, got, want)
			}
		}
	}
}

// TestMaxGranuleCostBoundsSpans: the cache admits a miss by the cost
// maxGranuleCost predicts from the span's length on disk, so that must
// bound the packed cost of a span of any layout — including one of
// segments as small as the v2 layout gets (5 bytes: a continuous
// segment with a one-byte End and span), which v1's nine-byte minimum
// would underestimate, one whose every segment needs a side-table entry
// at the fewest bytes that takes on disk (8: a StartIdx jump past 16
// bits), and spans of chained one-segment records, the densest thing a
// live stream writes.
func TestMaxGranuleCostBoundsSpans(t *testing.T) {
	minimal := make([]traj.Segment, 600)
	jumps := make([]traj.Segment, 600)
	for i := range minimal {
		minimal[i] = traj.Segment{Start: traj.At(1, 1, int64(i)), End: traj.At(1, 1, int64(i+1)), StartIdx: i, EndIdx: i + 1}
		jumps[i] = traj.Segment{Start: traj.At(1, 1, int64(i)), End: traj.At(1, 1, int64(i+1)), StartIdx: 40000 * i, EndIdx: 40000*i + 1}
	}
	cases := map[string][]traj.Segment{"minimal": minimal, "wide-jumps": jumps, "synthetic": syntheticSegs(600)}
	for i, p := range gen.Presets {
		cases[p.String()] = simplified(t, p, 4000, uint64(60+i))
	}
	for name, segs := range cases {
		for _, layout := range []struct {
			name   string
			encode recordEncoder
		}{{"v1", v1Records}, {"v2", v2Records}, {"chained", appendRecordPayload}} {
			for _, chunk := range []int{1, 29, 600} {
				span := recordSpan(segs, chunk, layout.encode)
				decoded, err := decodeRecordRange(nil, span)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%s/records of %d", name, layout.name, chunk)
				var p packedSpan
				if !p.pack(decoded) {
					t.Fatalf("%s: does not pack", label)
				}
				if cost, bound := granuleCost(p.clone()), maxGranuleCost(int64(len(span))); cost > bound {
					t.Errorf("%s: %d segments in %d bytes cost %d, bound %d", label, len(decoded), len(span), cost, bound)
				}
			}
		}
	}
}

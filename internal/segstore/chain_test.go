package segstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trajsim/internal/enc"
	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// Tests for record chaining (record.go): inside a TSG3 file a record
// that opens no index entry is coded against the record before it, so
// the index, the writer's chain state and the read path must agree on
// where chains start.

// chainedLog appends the live records of every gen preset to one device
// of a store with small files, so the log has sealed files with
// sidecars and a newest file with an in-memory index, all of them
// chained.
func chainedLog(t *testing.T, dir string, gran int64) *Store {
	t.Helper()
	s := openStore(t, Config{Dir: dir, Sync: SyncNever, MaxFileSize: 4096})
	s.idxGran = gran
	for i, p := range gen.Presets {
		for _, rec := range liveRecords(t, p, uint64(30+i)) {
			if err := s.Append("dev", rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestChainedIndexRebuild: a sidecar rebuilt from data equals the index
// that appends built — entries at the same offsets over the same time
// ranges — for sealed files and the newest one, at the default index
// granularity (one chain per 4 KiB file) and at a shrunk one (a chain
// start every 200 bytes). Rebuilt at a granularity of 1 byte, the index
// still places entries only at chain starts, which are exactly the
// entries the appends opened.
func TestChainedIndexRebuild(t *testing.T) {
	for _, gran := range []int64{defaultIndexGranularity, 200} {
		dir := t.TempDir()
		s := chainedLog(t, dir, gran)
		l, err := s.lockLog("dev", false)
		if err != nil {
			t.Fatal(err)
		}
		seqs, tail, size := append([]int(nil), l.seqs...), append([]indexEntry(nil), l.tail...), l.size
		l.mu.Unlock()
		if len(seqs) < 3 {
			t.Fatalf("granularity %d: %d files, want several", gran, len(seqs))
		}
		for i, seq := range seqs {
			data, err := os.ReadFile(l.path(seq))
			if err != nil {
				t.Fatal(err)
			}
			appended, dataLen := tail, size
			if i < len(seqs)-1 {
				b, err := os.ReadFile(l.idxPath(seq))
				if err != nil {
					t.Fatal(err)
				}
				if dataLen, appended, err = decodeIndexFile(b); err != nil {
					t.Fatal(err)
				}
			}
			for _, g := range []int64{gran, 1} {
				rebuilt, validLen, _, err := scanLog(data, 0, g)
				if err != nil || validLen != dataLen || !sameSpans(rebuilt, appended) {
					t.Fatalf("granularity %d, file %d rebuilt at %d: %d entries (valid %d of %d, %v), appended %d",
						gran, seq, g, len(rebuilt), validLen, dataLen, err, len(appended))
				}
			}
			if gran == 200 && i < len(seqs)-1 && len(appended) < 5 {
				t.Fatalf("sealed file %d has %d entries at granularity 200, want several", seq, len(appended))
			}
		}
	}
}

// recordTimes walks a log file's records and returns each one's offset
// and time range, decoding them as one chain.
func recordTimes(t *testing.T, data []byte) []indexEntry {
	t.Helper()
	var out []indexEntry
	var c chain
	for off := int64(len(fileMagic)); off < int64(len(data)); {
		payload, n, err := enc.Frame(data[off:], maxRecordPayload)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := decodeRecordPayload(nil, payload, &c)
		if err != nil {
			t.Fatal(err)
		}
		minT, maxT, _ := segTimeRange(segs)
		out = append(out, indexEntry{off: off, minT: minT, maxT: maxT})
		off += int64(n)
	}
	return out
}

// TestForgedSidecarAtChainedRecord: a sidecar is advisory, and one whose
// entries point at chained records — one entry per record, as if the
// file had no chains — must never yield shifted segments. A span that
// starts on a chained record fails to decode, so the read path drops
// the sidecar and answers from an index rebuilt from the data, with the
// cache on and off. Each probe opens a fresh store over a freshly forged
// sidecar and asks for one chained record's time range, so the forged
// entry it must read is that record's own.
func TestForgedSidecarAtChainedRecord(t *testing.T) {
	dir := t.TempDir()
	if err := chainedLog(t, dir, defaultIndexGranularity).Close(); err != nil {
		t.Fatal(err)
	}
	truth := rawReplay(t, dir, "dev")
	ddir := filepath.Join(dir, "dev")
	data, err := os.ReadFile(filepath.Join(ddir, fileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	forged := recordTimes(t, data)
	sidecar := appendIndexFile(nil, int64(len(data)), forged)
	probes := 0
	for i, e := range forged {
		payload, _, _ := enc.Frame(data[e.off:], maxRecordPayload)
		if !chainedRecord(payload) || i%7 != 1 {
			continue
		}
		probes++
		var want []traj.Segment
		for _, sg := range truth {
			if sg.End.T >= e.minT && sg.Start.T <= e.maxT {
				want = append(want, sg)
			}
		}
		for _, cache := range []int64{0, 1 << 20} {
			if err := os.WriteFile(filepath.Join(ddir, idxName(1)), sidecar, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openStore(t, Config{Dir: dir, Sync: SyncNever, ReadCacheBytes: cache})
			got, err := s.ReplayRange("dev", e.minT, e.maxT)
			if err != nil || !segsEqual(got, want) {
				t.Fatalf("cache %d: ReplayRange(%d, %d) = %d segments, %v; want %d", cache, e.minT, e.maxT, len(got), err, len(want))
			}
			if n := s.Stats().IndexRebuilds; n != 1 {
				t.Fatalf("cache %d: %d index rebuilds, want the forged sidecar rebuilt once", cache, n)
			}
			if err := os.WriteFile(filepath.Join(ddir, idxName(1)), sidecar, 0o644); err != nil {
				t.Fatal(err)
			}
			s = openStore(t, Config{Dir: dir, Sync: SyncNever, ReadCacheBytes: cache})
			if sg, ok := segmentAtOracle(truth, e.maxT); ok {
				if got, err := s.SegmentAt("dev", e.maxT); err != nil || got != sg {
					t.Fatalf("cache %d: SegmentAt(%d) = %+v, %v; want %+v", cache, e.maxT, got, err, sg)
				}
			}
			if got, err := s.Replay("dev"); err != nil || !segsEqual(got, truth) {
				t.Fatalf("cache %d: Replay: %d segments, %v; want %d", cache, len(got), err, len(truth))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if probes < 5 {
		t.Fatalf("%d probes, want several chained records in file 1", probes)
	}
}

// TestChainRollsBackWithFailedWrite: a write that fails — outright or
// after a torn half reached the disk — must not advance the chain. The
// next record is then coded against the last record actually on disk,
// and replays exactly, in process and after a reopen. The batch after
// the failed one continues it, so a chain that kept the failed batch's
// End would decode the next Start at the wrong place.
func TestChainRollsBackWithFailedWrite(t *testing.T) {
	for _, short := range []bool{false, true} {
		ffs := newFaultFS()
		ffs.err, ffs.short = errors.New("injected write failure"), short
		dir := t.TempDir()
		s, err := openFS(Config{Dir: dir, Sync: SyncNever}, ffs)
		if err != nil {
			t.Fatal(err)
		}
		segs := syntheticSegs(3)
		if err := s.Append("dev", segs[:1]); err != nil {
			t.Fatal(err)
		}
		ffs.armAt = ffs.ops()
		if err := s.Append("dev", segs[1:2]); err == nil || !ffs.fired || ffs.kindAt(ffs.armAt) != "write" {
			t.Fatalf("short=%v: the second append returned %v; want the injected write failure", short, err)
		}
		if err := s.Append("dev", segs[2:]); err != nil {
			t.Fatal(err)
		}
		want := quantizeAll([]traj.Segment{segs[0], segs[2]})
		if got, err := s.Replay("dev"); err != nil || !segsEqual(got, want) {
			t.Fatalf("short=%v: replayed %v, %v; want %v", short, got, err, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := rawReplay(t, dir, "dev"); !segsEqual(got, want) {
			t.Fatalf("short=%v: the file decodes to %v; want %v", short, got, want)
		}
	}
}

// FuzzRecordChain holds chained records to their encoder and to a plain
// reference decoder (record_ref_test.go). Any input, read as batches of
// segments (chainBatches), is encoded as one index entry's span — a
// chain start and records chained to it — which must decode to exactly
// those segments. The input itself, as a span of framed records and
// reframed so that each payload passes its CRC, must decode to what the
// reference returns, or fail with the same error.
func FuzzRecordChain(f *testing.F) {
	seedRecords(f, appendRecordPayload)
	for i, p := range gen.Presets {
		recs := liveRecords(f, p, uint64(40+i))[:20]
		var lp []byte // length-prefixed payloads, the reframed reading
		var c chain
		for _, rec := range recs {
			var payload []byte
			payload, c = appendRecordPayload(nil, rec, c)
			lp = append(append(lp, byte(len(payload))), payload...)
		}
		f.Add(lp)
	}
	f.Add([]byte{0x10, 1, 2, 3, 4, 0x04, 5, 6, 7, 8, 0x1c, 9, 10, 11, 12, 0xfe, 0x80, 0x7f, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		batches := chainBatches(b)
		var span, payload []byte
		var want []traj.Segment
		var c chain
		for _, bt := range batches {
			payload, c = appendRecordPayload(payload[:0], bt, c)
			span = enc.AppendFrame(span, payload)
			want = append(want, bt...)
		}
		got, err := decodeRecordRange(nil, span)
		if err != nil || !segsEqual(got, want) {
			t.Fatalf("%d batches encoded as one span decode to %d segments, %v; want %d", len(batches), len(got), err, len(want))
		}

		for _, in := range [][]byte{b, reframe(b)} {
			got, err := decodeRecordRange(nil, in)
			want, wantErr := refDecodeRecordRange(nil, in)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference %v", err, wantErr)
			}
			if !segsEqual(got, want) {
				t.Fatalf("%d segments, reference %d", len(got), len(want))
			}
		}
	})
}

// reframe reads b as length-prefixed payloads, each length one byte, and
// frames them into a span whose every payload passes its CRC.
func reframe(b []byte) []byte {
	var span []byte
	for rest := b; len(rest) > 0; {
		n := min(int(rest[0]), len(rest)-1)
		span = enc.AppendFrame(span, rest[1:1+n])
		rest = rest[1+n:]
	}
	return span
}

// chainBatches reads b as segments of five bytes each — control, two
// coordinate deltas, a time delta and an index delta — grouped into
// batches. The control byte holds the flags (bits 0–1), how Start
// relates to the previous End (bits 2–3: continuous, next index, index
// jump, jump in space, time and index), a batch break (bit 4) and a
// delta scale (bits 5–7), so every start mode, chained or not, and
// varints of one to five bytes come up. Coordinates are whole 1 cm
// counts, so the segments survive quantization exactly.
func chainBatches(b []byte) [][]traj.Segment {
	var batches [][]traj.Segment
	var cur []traj.Segment
	var x, y, t int64
	var idx int
	pt := func(x, y, t int64) traj.Point {
		return traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
	}
	for ; len(b) >= 5; b = b[5:] {
		ctl, dx, dy, dt, di := b[0], int64(int8(b[1])), int64(int8(b[2])), int64(b[3]), int(int8(b[4]))
		sh := uint(ctl>>5) * 3
		sx, sy, st, sidx := x, y, t, idx
		switch ctl >> 2 & 3 {
		case 1:
			sidx++
		case 2:
			sidx += di
		case 3:
			sx, sy, st, sidx = sx+dx<<sh, sy+dy<<sh, st-dt, sidx+di
		}
		x, y, t, idx = sx+dy<<sh, sy+dx<<sh, st+dt<<sh, sidx+int(b[4])
		cur = append(cur, traj.Segment{
			Start: pt(sx, sy, st), End: pt(x, y, t), StartIdx: sidx, EndIdx: idx,
			VirtualStart: ctl&1 != 0, VirtualEnd: ctl&2 != 0,
		})
		if ctl&16 != 0 {
			batches, cur = append(batches, cur), nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

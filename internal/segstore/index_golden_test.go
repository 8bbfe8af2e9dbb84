package segstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trajsim/internal/traj"
)

// TestGoldenIndexFile pins the sidecar format — magic, CRC framing,
// delta coding, field order — as produced by a real rotation, the same
// way record_v2.golden pins the data file. The store clock is overridden
// so the wall stamps (and therefore the bytes) are deterministic. The
// TSI1 format did not change with the v2 record layout, but its offsets
// did: index_v2.golden is the sidecar of a log of v2 records, and
// index_v1.golden, the same appends' sidecar over v1 records, must keep
// decoding.
func TestGoldenIndexFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncNever, MaxFileSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(1_700_000_000_000)
	s.now = func() time.Time { clock += 1000; return time.UnixMilli(clock) }
	s.idxGran = 1 // one entry per record, exercising the delta chain

	// Two records per file: each segment is ~35 framed bytes, so the
	// third append pushes past 64 bytes and rotates, sealing file 1 with
	// a two-entry sidecar.
	segs := append(goldenSegments(),
		traj.Segment{Start: traj.At(-3.25, 60, 160_500), End: traj.At(40, 40, 200_000),
			StartIdx: 41, EndIdx: 55, VirtualEnd: true},
	)
	for _, sg := range segs {
		if err := s.Append("golden", []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "golden", idxName(1)))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "index_v2.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("index sidecar format changed:\n got %x\nwant %x\nre-bless with -update only for a deliberate format break", got, want)
	}

	// The checked-in fixtures must keep decoding on current code, with the
	// exact entries the appends above produced.
	for _, name := range []string{"index_v1.golden", "index_v2.golden"} {
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenIndex(t, name, fixture)
	}
}

// checkGoldenIndex decodes a TestGoldenIndexFile fixture and checks its
// entries: one per record of the two the sealed file holds.
func checkGoldenIndex(t *testing.T, name string, fixture []byte) {
	t.Helper()
	dataLen, entries, err := decodeIndexFile(fixture)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(entries) != 2 {
		t.Fatalf("%s has %d entries, want 2", name, len(entries))
	}
	want0 := indexEntry{off: int64(len(fileMagic)), minT: 0, maxT: 30_000, wall: 1_700_000_001_000}
	if entries[0] != want0 {
		t.Fatalf("%s: entry 0 = %+v, want %+v", name, entries[0], want0)
	}
	// The second offset is whatever record 1's length makes it.
	if entries[1].minT != 30_000 || entries[1].maxT != 95_000 || entries[1].wall != 1_700_000_002_000 {
		t.Fatalf("%s: entry 1 = %+v", name, entries[1])
	}
	if entries[1].off <= entries[0].off || dataLen <= entries[1].off {
		t.Fatalf("%s: offsets out of order: %+v, dataLen %d", name, entries, dataLen)
	}
}

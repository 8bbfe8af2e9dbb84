package segstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trajsim/internal/traj"
)

// TestGoldenIndexFile pins the sidecar format — magic, CRC framing,
// delta coding, field order — as produced by a real rotation, the same
// way record_v3.golden pins the data file. The store clock is overridden
// so the wall stamps (and therefore the bytes) are deterministic. The
// TSI1 format has not changed since the first sidecars, but what they
// index has: index_v1.golden and index_v2.golden are the sidecars of
// logs of v1 and of unchained v2 records, one entry per record, and
// must keep decoding; index_v3.golden is the sidecar of a TSG3 log,
// whose first entry holds a chain start and a record chained to it.
func TestGoldenIndexFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncNever, MaxFileSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(1_700_000_000_000)
	s.now = func() time.Time { clock += 1000; return time.UnixMilli(clock) }
	s.idxGran = 30 // an entry opens once the current one spans 30 bytes

	// File 1 takes three records: a chain start at offset 4 (21 framed
	// bytes), a record chained to it (17 bytes), and a chain start at 42,
	// 38 bytes into the first entry, that opens the second (26 bytes). The
	// fourth, chained (16 bytes), would pass 80 bytes, so it rotates and
	// seals file 1 with a two-entry sidecar.
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

	path := filepath.Join("testdata", "index_v3.golden")
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
	dataLen, entries, err := decodeIndexFile(want)
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := []indexEntry{
		{off: 4, minT: 0, maxT: 95_000, wall: 1_700_000_002_000},
		{off: 42, minT: 95_000, maxT: 160_500, wall: 1_700_000_003_000},
	}
	if dataLen != 68 || !reflect.DeepEqual(entries, wantEntries) {
		t.Fatalf("index_v3.golden: dataLen %d, entries %+v; want 68, %+v", dataLen, entries, wantEntries)
	}
	// A rebuild from the data file places the same entries.
	data, err := os.ReadFile(filepath.Join(dir, "golden", fileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, validLen, _, err := scanLog(data, 1_700_000_003_000, s.idxGran)
	if err != nil || validLen != dataLen || !sameSpans(rebuilt, entries) {
		t.Fatalf("rebuilt index %+v (valid %d, %v), want %+v", rebuilt, validLen, err, entries)
	}

	// The older fixtures must keep decoding on current code, with the
	// exact entries their appends produced.
	for _, name := range []string{"index_v1.golden", "index_v2.golden"} {
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenIndex(t, name, fixture)
	}
}

// checkGoldenIndex decodes an index_v1 or index_v2 fixture and checks
// its entries: one per record of the two the sealed file holds.
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

// sameSpans reports whether two indexes place the same entries over the
// same time ranges; wall stamps may differ, since a rebuild stamps the
// file mtime.
func sameSpans(a, b []indexEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].off != b[i].off || a[i].minT != b[i].minT || a[i].maxT != b[i].maxT {
			return false
		}
	}
	return true
}

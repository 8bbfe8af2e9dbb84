package segstore

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trajsim/internal/enc"
	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSegments exercises every encoded field: negative coordinates,
// virtual endpoints, non-contiguous index ranges.
func goldenSegments() []traj.Segment {
	return []traj.Segment{
		{Start: traj.At(0, 0, 0), End: traj.At(250.07, -14.5, 30_000),
			StartIdx: 0, EndIdx: 11},
		{Start: traj.At(250.07, -14.5, 30_000), End: traj.At(198.2, 77.77, 95_000),
			StartIdx: 11, EndIdx: 40, VirtualStart: true, VirtualEnd: true},
		{Start: traj.At(198.2, 77.77, 95_000), End: traj.At(-3.25, 60, 160_500),
			StartIdx: 40, EndIdx: 41},
	}
}

// TestGoldenLogFile pins the complete on-disk format — file magic, CRC
// framing, record payload encoding, chaining — as produced by real
// Appends, in record_v3.golden: one Append per segment, so a chain start
// and two records chained to it. Any byte-level change breaks old logs
// and must be a deliberate, version-bumped decision, not a silent diff.
// record_v1.golden (a TSG1 file of v1 records) and record_v2.golden (a
// TSG2 file of one unchained v2 record) are the same segments as the
// store wrote them before: they are read fixtures now, and all three
// must keep replaying on current code.
func TestGoldenLogFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range goldenSegments() {
		if err := s.Append("golden", []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "golden", fileName(1)))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "record_v3.golden")
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
		t.Fatalf("log file format changed:\n got %x\nwant %x\nre-bless with -update only for a deliberate format break", got, want)
	}

	// The checked-in fixtures must keep replaying on current code: copy
	// each into a fresh store layout and read it back.
	for _, name := range []string{"record_v1.golden", "record_v2.golden", "record_v3.golden"} {
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if segs := replayFixture(t, fixture); !reflect.DeepEqual(segs, quantizeAll(goldenSegments())) {
			t.Fatalf("%s replayed wrong: %v", name, segs)
		}
	}
}

// replayFixture replays a log file fixture as device "golden"'s only
// file in a fresh store.
func replayFixture(t *testing.T, fixture []byte) []traj.Segment {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden", fileName(1)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Config{Dir: dir, Sync: SyncNever})
	segs, err := s.Replay("golden")
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestUpgradeFromV1Log: a data directory written before the v2 layout —
// record_v1.golden as a device's only file — opens, takes appends and
// restarts (checkUpgrade).
func TestUpgradeFromV1Log(t *testing.T) { checkUpgrade(t, "record_v1.golden") }

// TestUpgradeFromV2Log: the same for a data directory written before
// chaining, whose records a TSG2 file holds unchained.
func TestUpgradeFromV2Log(t *testing.T) { checkUpgrade(t, "record_v2.golden") }

// checkUpgrade installs fixture as a device's only file and appends to
// it twice, restarting the store around each append. The old file is
// sealed with its bytes unchanged and gains its sidecar before the first
// new record, which starts a TSG3 file; the restarted store recovers the
// chain from that file and appends the second record there, chained to
// the first, and replay returns the fixture's history followed by the
// new segments.
func checkUpgrade(t *testing.T, name string) {
	fixture, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	devDir := filepath.Join(dir, "golden")
	if err := os.MkdirAll(devDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(devDir, fileName(1)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	more := []traj.Segment{
		{Start: traj.At(-3.25, 60, 160_500), End: traj.At(40, 40, 200_000), StartIdx: 41, EndIdx: 55, VirtualEnd: true},
		{Start: traj.At(40, 40, 200_000), End: traj.At(71.5, -8.03, 260_000), StartIdx: 55, EndIdx: 60},
	}
	want := quantizeAll(append(goldenSegments(), more...))
	for i, sg := range more {
		s, err := Open(Config{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append("golden", []traj.Segment{sg}); err != nil {
			t.Fatal(err)
		}
		got, err := s.Replay("golden")
		if err != nil {
			t.Fatal(err)
		}
		if n := len(goldenSegments()) + i + 1; !reflect.DeepEqual(got, want[:n]) {
			t.Fatalf("after %d appends: replayed %v, want %v", i+1, got, want[:n])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := os.ReadFile(filepath.Join(devDir, fileName(1))); err != nil || !bytes.Equal(b, fixture) {
		t.Fatalf("the old file changed: %x, %v", b, err)
	}
	if _, err := os.Stat(filepath.Join(devDir, idxName(1))); err != nil {
		t.Fatalf("the sealed old file has no sidecar: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(devDir, fileName(2)))
	if err != nil || string(b[:len(fileMagic)]) != fileMagic {
		t.Fatalf("file 2 starts %q, want %q (%v)", b, fileMagic, err)
	}
	if files, _ := filepath.Glob(filepath.Join(devDir, "*"+fileSuffix)); len(files) != 2 {
		t.Fatalf("log files %v, want 1 and 2: the restarted store must append to the TSG3 file", files)
	}
	// The second record continues the chain the restarted store
	// recovered from the first.
	first, _ := appendRecordPayload(nil, more[:1], chain{})
	off := len(fileMagic) + len(enc.AppendFrame(nil, first))
	payload, _, err := enc.Frame(b[off:], maxRecordPayload)
	if err != nil || !chainedRecord(payload) {
		t.Fatalf("file 2's second record %x is not chained (%v)", b[off:], err)
	}
}

// TestDowngradeRefusesV2Log: a store from before the v2 layout must not
// take a file the current store wrote for a log with a torn tail — its
// recovery would truncate the undecodable v2 records away as one, under
// maxTornTail. The file's header, TSG2 then and TSG3 now, makes its
// scan refuse the file instead.
func TestDowngradeRefusesV2Log(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Sync: SyncNever})
	appendInChunks(t, s, "dev", simplified(t, gen.Taxi, 2000, 61), 29)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, b := logBytes(t, dir, "dev")
	if n, err := scanLogV1(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pre-v2 scan of a TSG2 file: valid prefix %d of %d bytes, error %v; want ErrCorrupt", n, len(b), err)
	}
	// The header is what protects the records: under a TSG1 header the
	// same scan would keep only the header and call the rest a torn tail.
	relabelled := append([]byte(fileMagicV1), b[len(fileMagic):]...)
	if n, err := scanLogV1(relabelled); err != nil || n != int64(len(fileMagicV1)) {
		t.Fatalf("pre-v2 scan of v2 records under TSG1: valid prefix %d, %v; want the header alone", n, err)
	}
}

// TestDowngradeRefusesV3Log: a store from before chaining must not take
// a TSG3 file for a log with a torn tail — its recovery would stop at
// the first chained record, whose chain bit it reads as a bad head, and
// truncate the rest away as one, under maxTornTail. The TSG3 header
// makes its scan refuse the file instead, truncating nothing.
func TestDowngradeRefusesV3Log(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Sync: SyncNever})
	appendInChunks(t, s, "dev", simplified(t, gen.Taxi, 2000, 61), 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, b := logBytes(t, dir, "dev")
	if n, err := scanLogV2(b); !errors.Is(err, ErrCorrupt) || n != 0 {
		t.Fatalf("pre-chaining scan of a TSG3 file: valid prefix %d of %d bytes, error %v; want ErrCorrupt", n, len(b), err)
	}
	// The header is what protects the records: under a TSG2 header the
	// same scan would keep the first record, a chain start, and call the
	// rest a torn tail.
	first, n, err := enc.Frame(b[len(fileMagic):], maxRecordPayload)
	if err != nil || chainedRecord(first) {
		t.Fatalf("the log does not open with a chain start: %v", err)
	}
	relabelled := append([]byte(fileMagicV2), b[len(fileMagic):]...)
	if got, err := scanLogV2(relabelled); err != nil || got != int64(len(fileMagic)+n) {
		t.Fatalf("pre-chaining scan of chained records under TSG2: valid prefix %d, %v; want %d", got, err, len(fileMagic)+n)
	}
}

// TestPrefixTruncationKeepsMagic: MaxLogAge's prefix rewrite keeps the
// file's own magic. A TSG1 file of v1 records stays a TSG1 file — it
// holds v1 records only, which is all that header promises — and the
// next append still rotates past it rather than write v2 records there.
func TestPrefixTruncationKeepsMagic(t *testing.T) {
	segs := syntheticSegs(40)
	b := []byte(fileMagicV1)
	for off := 0; off < len(segs); off += 10 {
		b = enc.AppendFrame(b, appendRecordPayloadV1(nil, segs[off:off+10]))
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "dev"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dev", fileName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, dir, "dev", 2*time.Hour)
	s := openStore(t, Config{Dir: dir, Sync: SyncNever, MaxLogAge: time.Hour})
	s.idxGran = 1 // one index entry per record, so the expired prefix is three of the four
	got, err := s.Replay("dev")
	if err != nil {
		t.Fatal(err)
	}
	if want := quantizeAll(segs[30:]); !reflect.DeepEqual(got, want) || s.Stats().PrefixTruncations != 1 {
		t.Fatalf("replayed %d segments after %d prefix truncations, want the last record's 10 after 1",
			len(got), s.Stats().PrefixTruncations)
	}
	_, rewritten := logBytes(t, dir, "dev")
	if string(rewritten[:len(fileMagicV1)]) != fileMagicV1 {
		t.Fatalf("rewritten file starts %q, want %q", rewritten[:len(fileMagicV1)], fileMagicV1)
	}
	if err := s.Append("dev", segs[:1]); err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(dir, "dev", fileName(2)))
	if err != nil || string(b2[:len(fileMagic)]) != fileMagic {
		t.Fatalf("the append after the rewrite went to %q (%v), want a new %s file", b2, err, fileMagic)
	}
}

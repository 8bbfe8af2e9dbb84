package segstore

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"trajsim/internal/traj"
)

// The injected-fault sweep: the storage-fault counterpart of the
// truncation-at-every-offset crash-recovery test. A scripted workload
// runs once over a tracing faultFS to enumerate every file operation it
// performs; then, for each operation index (and for each failure shape —
// generic I/O error, ENOSPC, short write), the workload re-runs with
// that single operation failing. Whatever the store acknowledged must
// replay, in order, both from the live store that took the fault and
// from a clean reopen of the directory; batches whose append failed may
// appear (the fault can strike after the bytes landed) but only
// atomically and only in their original position — the store never
// acknowledges data it lost and never replays garbage.

const (
	faultDev     = "fault-dev"
	nFaultBatch  = 12
	faultFileMax = 96 // bytes; forces several rotations over the workload
	// faultIdxGran gives each faultFileMax file several index entries,
	// with chained records between them, so a live index that is stale
	// after a fault points its reads at the wrong bytes.
	faultIdxGran = 24
)

// runFaultWorkload executes the scripted workload against ffs: 12
// single-segment batches for one device, mixing the plain Append path
// with the deferred AppendNoSync+CommitDevices group-commit path, under
// SyncAlways with a tiny rotation threshold and index granularity. It
// reports which batches were acknowledged (append and, for deferred
// ones, commit both succeeded). quarBase 0 lets a poisoned log attempt
// recovery on the very next append, so a single injected fault costs at
// most one batch. Before closing the store it replays the device in
// process, which must pass the acknowledged-prefix oracle like the
// clean reopen does; that replay may fail only when the armed fault
// fired inside it.
func runFaultWorkload(t *testing.T, dir, label string, ffs *faultFS) (acked []bool) {
	t.Helper()
	acked = make([]bool, nFaultBatch)
	s, err := openFS(Config{Dir: dir, Sync: SyncAlways, MaxFileSize: faultFileMax}, ffs)
	if err != nil {
		return acked // store never opened: nothing acknowledged
	}
	s.quarBase = 0
	s.idxGran = faultIdxGran
	defer s.Close()
	segs := syntheticSegs(nFaultBatch)
	for k := 0; k < nFaultBatch; k++ {
		b := segs[k : k+1]
		if k%3 == 2 {
			// The async sink's group-commit path: ack requires the commit.
			err := s.AppendNoSync(faultDev, b)
			if err == nil {
				err = s.CommitDevices([]string{faultDev})
			}
			acked[k] = err == nil
		} else {
			acked[k] = s.Append(faultDev, b) == nil
		}
	}
	firedBefore := ffs.hasFired()
	got, err := s.Replay(faultDev)
	switch {
	case err == nil:
		checkAckedPrefix(t, label+": live replay", got, acked)
	case firedBefore || !ffs.hasFired():
		t.Fatalf("%s: live replay: %v", label, err)
	}
	return acked
}

// wantBatches is each workload batch in replayed form: the segment
// pushed through the record codec, so float quantization matches.
func wantBatches(t *testing.T) []traj.Segment {
	t.Helper()
	segs := syntheticSegs(nFaultBatch)
	out := make([]traj.Segment, 0, nFaultBatch)
	for k := range segs {
		rt, err := decodeOne(nil, chainStart(segs[k:k+1]))
		if err != nil || len(rt) != 1 {
			t.Fatalf("codec round-trip of batch %d: %v", k, err)
		}
		out = append(out, rt[0])
	}
	return out
}

// verifyAckedPrefix reopens dir with the real filesystem and checks its
// replay against the acknowledgements.
func verifyAckedPrefix(t *testing.T, dir, label string, acked []bool) {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: clean reopen: %v", label, err)
	}
	defer s.Close()
	got, err := s.Replay(faultDev)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	checkAckedPrefix(t, label, got, acked)
}

// checkAckedPrefix is the oracle: every acked batch present in got, in
// order; unacked batches optional but only in position; nothing else.
func checkAckedPrefix(t *testing.T, label string, got []traj.Segment, acked []bool) {
	t.Helper()
	want := wantBatches(t)
	k := 0
	for _, sg := range got {
		for k < nFaultBatch && sg != want[k] {
			if acked[k] {
				t.Fatalf("%s: acked batch %d missing from replay", label, k)
			}
			k++
		}
		if k == nFaultBatch {
			t.Fatalf("%s: unexpected segment in replay: %+v", label, sg)
		}
		k++
	}
	for ; k < nFaultBatch; k++ {
		if acked[k] {
			t.Fatalf("%s: acked batch %d missing from replay tail", label, k)
		}
	}
}

// TestFaultMatrix sweeps one injected failure across every file
// operation of the workload, in three shapes, asserting the
// acknowledged-prefix oracle after each.
func TestFaultMatrix(t *testing.T) {
	// Trace pass: no fault, enumerate the op sequence.
	trace := newFaultFS()
	acked := runFaultWorkload(t, t.TempDir(), "trace pass", trace)
	for k, ok := range acked {
		if !ok {
			t.Fatalf("trace pass: batch %d not acknowledged with no fault armed", k)
		}
	}
	total := trace.ops()
	if total < 30 {
		t.Fatalf("trace pass saw only %d file operations — workload not exercising the store", total)
	}

	type shape struct {
		name  string
		err   error
		short bool
	}
	shapes := []shape{
		{name: "ioerr", err: errors.New("injected I/O failure")},
		{name: "enospc", err: syscall.ENOSPC},
		{name: "shortwrite", err: errors.New("injected short write"), short: true},
	}
	for i := 0; i < total; i++ {
		kind := trace.kindAt(i)
		for _, sh := range shapes {
			if sh.short && kind != "write" {
				continue // a short write only means something for Write
			}
			label := fmt.Sprintf("op %d (%s) %s", i, kind, sh.name)
			ffs := newFaultFS()
			ffs.armAt, ffs.err, ffs.short = i, sh.err, sh.short
			dir := t.TempDir()
			acked := runFaultWorkload(t, dir, label, ffs)
			if !ffs.fired {
				t.Fatalf("%s: armed fault never fired (trace drift?)", label)
			}
			verifyAckedPrefix(t, dir, label, acked)
		}
	}
}

// TestQuarantineRecovery walks the full quarantine lifecycle: a failed
// fsync poisons the log; while quarantined, appends are rejected with
// the sticky failure without touching the filesystem (the fd was
// discarded — a failed fsync is never retried on the same descriptor);
// once the backoff deadline passes and the fault clears, the next append
// re-runs recovery and the log resumes, with the gauge and counter
// moving accordingly.
func TestQuarantineRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	s, err := openFS(Config{Dir: dir, Sync: SyncAlways}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.quarBase = time.Hour // quarantine holds until the test lifts it
	segs := syntheticSegs(4)

	if err := s.Append(faultDev, segs[0:1]); err != nil {
		t.Fatal(err)
	}

	// Break every fsync: the next append writes its bytes, fails the
	// sync, and must quarantine rather than acknowledge.
	ffs.err = errors.New("injected fsync failure")
	ffs.setWedge("sync")
	if err := s.Append(faultDev, segs[1:2]); err == nil {
		t.Fatal("append with failing fsync was acknowledged")
	}
	if got := s.Stats().PoisonedLogs; got != 1 {
		t.Fatalf("PoisonedLogs = %d after failed fsync, want 1", got)
	}

	// While quarantined: sticky rejection, and — fsyncgate — not a single
	// further fsync or file open.
	syncs, opens := ffs.opsOfKind("sync"), ffs.opsOfKind("openfile")
	if err := s.Append(faultDev, segs[2:3]); err == nil {
		t.Fatal("append to quarantined log succeeded inside the backoff window")
	}
	if ffs.opsOfKind("sync") != syncs || ffs.opsOfKind("openfile") != opens {
		t.Fatal("quarantined append touched the filesystem (fsync retried or fd reopened)")
	}

	// Fault clears, deadline passes: the next append recovers and lands.
	ffs.setWedge("")
	s.mu.Lock()
	l := s.logs[faultDev]
	s.mu.Unlock()
	l.mu.Lock()
	l.quarNext = time.Now().Add(-time.Second)
	l.mu.Unlock()
	if err := s.Append(faultDev, segs[3:4]); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	st := s.Stats()
	if st.PoisonedLogs != 0 || st.QuarantineReopens != 1 {
		t.Fatalf("after recovery: PoisonedLogs=%d QuarantineReopens=%d, want 0 and 1",
			st.PoisonedLogs, st.QuarantineReopens)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: batches 0 and 3 were acknowledged and must be present;
	// batch 1's bytes reached the file before its fsync "failed" (only
	// the injected sync failed, the write was real), so it replays too;
	// batch 2 was rejected up front and must not.
	want := wantBatches(t)
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Replay(faultDev)
	if err != nil {
		t.Fatal(err)
	}
	exp := []traj.Segment{want[0], want[1], want[3]}
	if len(got) != len(exp) {
		t.Fatalf("replay after recovery: %d segments, want %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], exp[i])
		}
	}
}

// TestEvictionFsyncFailureReachesNextAppend: the residency walk detaches
// a dirty handle, and its fsync runs after the walk, outside every lock.
// Until that fsync settles, the log must stay resident even over the
// resident budget. Were it dropped, the failure would quarantine an
// instance nobody holds, and the device's next append, on a fresh
// instance, would succeed as if the lost bytes were durable.
func TestEvictionFsyncFailureReachesNextAppend(t *testing.T) {
	ffs := newFaultFS()
	ffs.err = syscall.EIO
	s, err := openFS(Config{Dir: t.TempDir(), MaxOpenFiles: 1, Sync: SyncInterval, SyncEvery: time.Hour}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.maxResident = 1
	s.quarBase = time.Hour // the quarantine must still be up at the check
	segs := syntheticSegs(3)
	if err := s.Append("victim", segs[:1]); err != nil {
		t.Fatal(err)
	}
	// other's new handle pushes victim's dirty one out, and the eviction
	// fsync stalls.
	hold := ffs.holdNext("sync")
	done := make(chan error, 1)
	go func() { done <- s.Append("other", segs[1:2]) }()
	select {
	case <-hold.started:
	case err := <-done:
		close(hold.release) // so the deferred Close's fsyncs cannot stall
		t.Fatalf("append to other returned (%v) without syncing victim's evicted handle", err)
	}
	// A new log runs the walk while that fsync is in flight.
	_, err = s.Replay("third")
	close(hold.release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("append to other: %v", err)
	}
	if err := s.Append("victim", segs[2:3]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after its evicted handle's fsync failed: %v, want the injected EIO", err)
	}
}

// TestFirstFileDirSyncNotForgotten: under SyncAlways a log's first file
// takes appends only once its directory entry is synced. While that
// directory fsync keeps failing, every append to the new device must
// fail, the second as much as the first: none may commit into a file
// whose entry a power loss could take. Once the directory heals, the
// next append succeeds and the replay holds exactly what was
// acknowledged.
func TestFirstFileDirSyncNotForgotten(t *testing.T) {
	ffs := newFaultFS()
	s, err := openFS(Config{Dir: t.TempDir(), Sync: SyncAlways}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	segs := syntheticSegs(3)

	// "open" is syncDir's directory open; listSeqs lists with ReadDir.
	ffs.err = syscall.EIO
	ffs.setWedge("open")
	if err := s.Append(faultDev, segs[0:1]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first append with the directory fsync failing: %v, want the injected EIO", err)
	}
	if err := s.Append(faultDev, segs[1:2]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("second append with the directory fsync still failing: %v, want the injected EIO", err)
	}
	ffs.setWedge("")
	if err := s.Append(faultDev, segs[2:3]); err != nil {
		t.Fatalf("append after the directory healed: %v", err)
	}
	got, err := s.Replay(faultDev)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantBatches(t)[2]; len(got) != 1 || got[0] != want {
		t.Fatalf("replay = %+v, want only the acknowledged batch %+v", got, want)
	}
}

// TestENOSPCRetryable: a write that fails cleanly at a record boundary
// (zero bytes accepted, the ENOSPC shape) fails the append but does NOT
// quarantine — nothing torn, nothing unsynced — and appends resume as
// soon as space clears, with no backoff in the way.
func TestENOSPCRetryable(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	s, err := openFS(Config{Dir: dir, Sync: SyncAlways}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	segs := syntheticSegs(3)

	if err := s.Append(faultDev, segs[0:1]); err != nil {
		t.Fatal(err)
	}
	ffs.err = syscall.ENOSPC
	ffs.setWedge("write")
	if err := s.Append(faultDev, segs[1:2]); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: %v, want ENOSPC", err)
	}
	if got := s.Stats().PoisonedLogs; got != 0 {
		t.Fatalf("PoisonedLogs = %d after clean ENOSPC, want 0 (retryable, not quarantined)", got)
	}
	ffs.setWedge("")
	if err := s.Append(faultDev, segs[2:3]); err != nil {
		t.Fatalf("append after space cleared: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := wantBatches(t)
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Replay(faultDev)
	if err != nil {
		t.Fatal(err)
	}
	exp := []traj.Segment{want[0], want[2]}
	if len(got) != len(exp) {
		t.Fatalf("replay: %d segments, want %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], exp[i])
		}
	}
}

package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trajsim/internal/gen"
)

// Tests for the group-commit protocol: AppendNoSync writes the same
// bytes as Append but withholds the SyncAlways fsync until CommitDevices
// settles it — the property the stream package's sweep-level group
// commit is built on. Append is the same write plus the commit step.

// TestAppendNoSyncDefersFsync: under SyncAlways a deferred append costs
// no fsync; the commit pays exactly one and a second commit of a clean
// log is a no-op.
func TestAppendNoSyncDefersFsync(t *testing.T) {
	s := openStore(t, Config{Sync: SyncAlways})
	segs := simplified(t, gen.Taxi, 300, 101)
	if err := s.AppendNoSync("dev", segs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Syncs != 0 || st.GroupSyncs != 0 {
		t.Fatalf("deferred append synced: %+v", st)
	}
	// The bytes are written (just not durable): replay sees them already.
	got, err := s.Replay("dev")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, quantizeAll(segs)) {
		t.Fatal("replay of uncommitted deferred append mismatch")
	}
	if err := s.CommitDevices([]string{"dev"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Syncs != 1 || st.GroupSyncs != 1 {
		t.Fatalf("commit of one dirty log: %+v, want exactly one (group) sync", st)
	}
	// Clean log: committing again syncs nothing.
	if err := s.CommitDevices([]string{"dev"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Syncs != 1 || st.GroupSyncs != 1 {
		t.Fatalf("commit of a clean log synced again: %+v", st)
	}
}

// TestGroupCommitFoldsSyncs is the cost model: K devices × M deferred
// appends, one CommitDevices over the sweep → exactly K fsyncs, not K×M.
func TestGroupCommitFoldsSyncs(t *testing.T) {
	const devices, appends = 4, 8
	s := openStore(t, Config{Sync: SyncAlways})
	segs := syntheticSegs(devices * appends * 4)
	devs := make([]string, devices)
	for d := range devs {
		devs[d] = fmt.Sprintf("dev-%d", d)
		for i := 0; i < appends; i++ {
			chunk := segs[i*4 : i*4+4]
			if err := s.AppendNoSync(devs[d], chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Syncs != 0 {
		t.Fatalf("%d syncs before the commit: %+v", st.Syncs, st)
	}
	// One pin per deferred append: release them all in one sweep's worth
	// of commits, the way the sink worker does.
	commit := make([]string, 0, devices*appends)
	for i := 0; i < appends; i++ {
		commit = append(commit, devs...)
	}
	if err := s.CommitDevices(commit); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Syncs != devices || st.GroupSyncs != devices {
		t.Fatalf("committing %d×%d deferred appends cost %d syncs, want %d: %+v",
			devices, appends, st.Syncs, devices, st)
	}
	if st.Appends != devices*appends {
		t.Fatalf("appends: %+v", st)
	}
}

// TestPlainAppendSettlesDeferred: a SyncAlways Append after deferred
// writes covers them — its commit's fsync makes the earlier bytes
// durable too, so the trailing commit finds a clean log.
func TestPlainAppendSettlesDeferred(t *testing.T) {
	s := openStore(t, Config{Sync: SyncAlways})
	segs := syntheticSegs(10)
	if err := s.AppendNoSync("dev", segs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("dev", segs[5:10]); err != nil {
		t.Fatal(err)
	}
	// Append's one fsync is its commit step, so it counts as a group sync.
	if st := s.Stats(); st.Syncs != 1 || st.GroupSyncs != 1 {
		t.Fatalf("after interleaved plain append: %+v", st)
	}
	if err := s.CommitDevices([]string{"dev"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Syncs != 1 {
		t.Fatalf("commit re-synced a log the plain append settled: %+v", st)
	}
}

// TestGroupCommitPinsHandles: a log with deferred unsynced bytes is
// exempt from the MaxOpenFiles LRU — evicting it would either lose the
// handle the pending fsync needs or force the sync early. Once
// committed, the exemption lapses.
func TestGroupCommitPinsHandles(t *testing.T) {
	s := openStore(t, Config{Sync: SyncAlways, MaxOpenFiles: 1})
	segs := syntheticSegs(12)
	// Two pinned logs under cap 1: the second open wants to evict the
	// first, which must refuse while pinned.
	if err := s.AppendNoSync("a", segs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendNoSync("b", segs[4:8]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.HandleEvictions != 0 {
		t.Fatalf("pinned handle evicted: %+v", st)
	}
	if st.OpenHandles != 2 {
		t.Fatalf("%d open handles, want both pinned logs held open over cap: %+v", st.OpenHandles, st)
	}
	if err := s.CommitDevices([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// Unpinned now: the next open brings the LRU back into force.
	if err := s.Append("c", segs[8:12]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.HandleEvictions == 0 {
		t.Fatalf("no eviction after the pins released under cap 1: %+v", st)
	}
}

// TestGroupCommitByteIdentity: per-batch Append and per-batch
// AppendNoSync + trailing CommitDevices must leave byte-identical logs —
// same records, same rotation points — so the sweep path inherits the
// recovery and replay guarantees of the synchronous one.
func TestGroupCommitByteIdentity(t *testing.T) {
	segs := syntheticSegs(600)
	dirSync, dirDefer := t.TempDir(), t.TempDir()
	// A small MaxFileSize forces rotations inside the deferred run too.
	mk := func(dir string) *Store {
		return openStore(t, Config{Dir: dir, Sync: SyncAlways, MaxFileSize: 2048})
	}
	sSync, sDefer := mk(dirSync), mk(dirDefer)
	const chunk = 7
	for off := 0; off < len(segs); off += chunk {
		c := segs[off:min(off+chunk, len(segs))]
		if err := sSync.Append("dev", c); err != nil {
			t.Fatal(err)
		}
		if err := sDefer.AppendNoSync("dev", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sDefer.CommitDevices([]string{"dev"}); err != nil {
		t.Fatal(err)
	}
	want, err := sSync.Replay("dev")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sDefer.Replay("dev")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("deferred-path replay differs from synchronous path")
	}
	files, err := filepath.Glob(filepath.Join(dirDefer, "dev", "*"+fileSuffix))
	if err != nil || len(files) < 2 {
		t.Fatalf("glob: %v files, err %v — want rotation to have produced several", len(files), err)
	}
	for _, f := range files {
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dirSync, "dev", filepath.Base(f)))
		if err != nil {
			t.Fatalf("deferred store has %s with no synchronous counterpart: %v", f, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s differs between deferred and synchronous stores", filepath.Base(f))
		}
	}
	// The fold won: far fewer fsyncs than appends on the deferred side.
	st, dst := sSync.Stats(), sDefer.Stats()
	if dst.Appends != st.Appends {
		t.Fatalf("append counts diverge: %d vs %d", dst.Appends, st.Appends)
	}
	if dst.Syncs >= st.Syncs {
		t.Fatalf("deferred path cost %d syncs, synchronous %d — group commit saved nothing", dst.Syncs, st.Syncs)
	}
}

// TestGroupCommitOtherPolicies: under SyncInterval/SyncNever the pair
// degenerates to Append — no fsync is owed, so the commit only releases
// the pin and GroupSyncs stays zero.
func TestGroupCommitOtherPolicies(t *testing.T) {
	segs := syntheticSegs(6)
	for _, cfg := range []Config{
		{Sync: SyncNever},
		{Sync: SyncInterval, SyncEvery: time.Hour},
	} {
		s := openStore(t, cfg)
		if err := s.AppendNoSync("dev", segs[:6]); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitDevices([]string{"dev"}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Syncs != 0 || st.GroupSyncs != 0 {
			t.Fatalf("policy %v: commit synced: %+v", cfg.Sync, st)
		}
		got, err := s.Replay("dev")
		if err != nil || len(got) != 6 {
			t.Fatalf("policy %v: replay %d segments, err %v", cfg.Sync, len(got), err)
		}
	}
}

// TestCommitUnknownDeviceNoop: committing a device with no resident log
// must not error and — crucially — must not fabricate log metadata for
// it.
func TestCommitUnknownDeviceNoop(t *testing.T) {
	s := openStore(t, Config{Sync: SyncAlways})
	if err := s.CommitDevices([]string{"ghost", "phantom"}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, ok := s.logs["ghost"]
	n := len(s.logs)
	s.mu.Unlock()
	if ok || n != 0 {
		t.Fatalf("commit of unknown devices created metadata (%d resident logs)", n)
	}
	if st := s.Stats(); st.Syncs != 0 || st.GroupSyncs != 0 {
		t.Fatalf("commit of unknown devices synced: %+v", st)
	}
}

// TestDeferredSurvivesReopen: deferred bytes are ordinary log bytes — a
// clean close and reopen replays them even if no commit ever ran (Close
// owns the final fsync, as it does for SyncNever writes).
func TestDeferredSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	segs := simplified(t, gen.Truck, 300, 107)
	s := openStore(t, Config{Dir: dir, Sync: SyncAlways})
	if err := s.AppendNoSync("dev", segs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Config{Dir: dir, Sync: SyncAlways})
	got, err := s2.Replay("dev")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, quantizeAll(segs)) {
		t.Fatal("uncommitted deferred append lost across clean close/reopen")
	}
}

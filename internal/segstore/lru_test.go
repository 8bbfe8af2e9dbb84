package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// appendInChunks feeds segs to dev in fixed-size appends — the same
// record sequence regardless of which store (or goroutine) runs it.
func appendInChunks(t testing.TB, s *Store, dev string, segs []traj.Segment, chunk int) {
	for off := 0; off < len(segs); off += chunk {
		if err := s.Append(dev, segs[off:min(off+chunk, len(segs))]); err != nil {
			t.Errorf("%s: %v", dev, err)
			return
		}
	}
}

// TestHandleLRUChurn is the acceptance test for the residency walk: a
// store capped at MaxOpenFiles=4 serving 64 devices — with concurrent
// appends and replays forcing constant evict/reopen churn — must end up
// byte-identical on disk to an effectively unbounded store fed the same
// appends, and replay identically. The second arm also holds only 6
// logs resident, so handle detaches and metadata drops race the same
// appends and replays inside one walk.
func TestHandleLRUChurn(t *testing.T) {
	for _, c := range []struct {
		name     string
		resident int
	}{
		{"handles", residentLogs},
		{"handles+resident", 6},
	} {
		t.Run(c.name, func(t *testing.T) { testResidencyChurn(t, c.resident) })
	}
}

func testResidencyChurn(t *testing.T, resident int) {
	const (
		devices = 64
		cap     = 4
		chunk   = 7
	)
	segs := simplified(t, gen.Taxi, 1200, 31)
	cfg := Config{MaxFileSize: 2048, Sync: SyncNever}

	dirBounded, dirUnbounded := t.TempDir(), t.TempDir()
	cfg.Dir, cfg.MaxOpenFiles = dirUnbounded, 1<<20
	unbounded := openStore(t, cfg)
	cfg.Dir, cfg.MaxOpenFiles = dirBounded, cap
	bounded := openStore(t, cfg)
	bounded.maxResident = resident

	dev := func(d int) string { return fmt.Sprintf("dev-%02d", d) }
	for d := 0; d < devices; d++ {
		appendInChunks(t, unbounded, dev(d), segs, chunk)
	}

	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			appendInChunks(t, bounded, dev(d), segs, chunk)
		}(d)
		if d%2 == 0 {
			// Interleave replays so eviction races cold reads, not just writes.
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if _, err := bounded.Replay(dev(d)); err != nil {
						t.Errorf("concurrent replay %s: %v", dev(d), err)
						return
					}
				}
			}(d)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// One serial append converges any transient over-budget state
	// (victims that were busy when a walk ran), after which both budgets
	// hold.
	if err := bounded.Append(dev(0), segs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := unbounded.Append(dev(0), segs[:1]); err != nil {
		t.Fatal(err)
	}
	st := bounded.Stats()
	if st.OpenHandles > cap {
		t.Errorf("%d open handles at rest, cap %d", st.OpenHandles, cap)
	}
	if st.ResidentLogs > int64(resident) {
		t.Errorf("%d resident logs at rest, budget %d", st.ResidentLogs, resident)
	}
	if st.HandleEvictions == 0 || st.HandleMisses < devices || resident < devices && st.MetaEvictions == 0 {
		t.Errorf("no churn observed: %+v", st)
	}
	if ust := unbounded.Stats(); ust.HandleEvictions != 0 {
		t.Errorf("unbounded store evicted %d handles", ust.HandleEvictions)
	}

	// Replay equality for every device…
	want, err := unbounded.Replay(dev(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty replay — test proves nothing")
	}
	for d := 0; d < devices; d++ {
		got, err := bounded.Replay(dev(d))
		if err != nil {
			t.Fatal(err)
		}
		w := want
		if d == 0 {
			if w, err = unbounded.Replay(dev(0)); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: bounded replay differs from unbounded", dev(d))
		}
	}

	// …and byte identity of the logs themselves: same records, same
	// rotation points, eviction/reopen left no seams.
	for d := 0; d < devices; d++ {
		pattern := filepath.Join(dirBounded, escapeDevice(dev(d)), "*"+fileSuffix)
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("glob %s: %v, %v", pattern, files, err)
		}
		for _, f := range files {
			got, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			ref := filepath.Join(dirUnbounded, escapeDevice(dev(d)), filepath.Base(f))
			wantB, err := os.ReadFile(ref)
			if err != nil {
				t.Fatalf("bounded store has %s with no unbounded counterpart: %v", f, err)
			}
			if string(got) != string(wantB) {
				t.Fatalf("%s differs between bounded and unbounded stores", f)
			}
		}
	}
}

// syntheticSegs manufactures n contiguous segments with exactly
// representable (integer) coordinates — for tests that need a precise
// count rather than realistic encoder output.
func syntheticSegs(n int) []traj.Segment {
	out := make([]traj.Segment, n)
	for i := range out {
		t0 := int64(i) * 2000
		out[i] = traj.Segment{
			Start:    traj.At(float64(i), float64(i%7), t0),
			End:      traj.At(float64(i+1), float64((i+1)%7), t0+2000),
			StartIdx: i * 3, EndIdx: i*3 + 3,
		}
	}
	return out
}

// TestColdReopenAfterStoreRestart: an evicted-then-reopened handle and a
// process restart compose — the log keeps appending where it left off.
func TestColdReopenAfterStoreRestart(t *testing.T) {
	dir := t.TempDir()
	segs := syntheticSegs(60)
	s := openStore(t, Config{Dir: dir, MaxOpenFiles: 1, Sync: SyncNever})
	// Two devices under cap 1: every alternating append reopens cold.
	for i := 0; i < 6; i++ {
		if err := s.Append(fmt.Sprintf("d%d", i%2), segs[i*10:(i+1)*10]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.HandleEvictions < 4 {
		t.Fatalf("alternating appends under cap 1 evicted only %d times: %+v", st.HandleEvictions, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Config{Dir: dir, MaxOpenFiles: 1, Sync: SyncNever})
	for _, dev := range []string{"d0", "d1"} {
		got, err := s2.Replay(dev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 30 {
			t.Fatalf("%s: %d segments after restart, want 30", dev, len(got))
		}
	}
}

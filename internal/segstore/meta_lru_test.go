package segstore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Tests for the resident-log budget (Store.maxResident, shrunk here from
// residentLogs): the logs map must stop growing with every device ever
// seen, eviction must be invisible to correctness (re-recovery on next
// touch), and poisoned logs must never be evicted into amnesia.

// openResident is openStore with the resident-log budget shrunk to
// budget.
func openResident(t *testing.T, cfg Config, budget int) *Store {
	t.Helper()
	s := openStore(t, cfg)
	s.maxResident = budget
	return s
}

// TestMetaLRUEviction: far more devices than the cap, serial appends —
// the resident count holds at the cap, evictions are counted, and every
// device still replays in full (indexed and scanned alike).
func TestMetaLRUEviction(t *testing.T) {
	const (
		devices = 32
		cap     = 4
	)
	s := openResident(t, Config{MaxOpenFiles: 2, Sync: SyncAlways}, cap)
	segs := syntheticSegs(40)
	dev := func(d int) string { return fmt.Sprintf("m-%02d", d) }
	for round := 0; round < 4; round++ {
		for d := 0; d < devices; d++ {
			if err := s.Append(dev(d), segs[round*10:(round+1)*10]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.ResidentLogs > cap {
		t.Errorf("%d resident logs at rest, cap %d", st.ResidentLogs, cap)
	}
	if st.MetaEvictions == 0 {
		t.Error("no metadata evictions under a cap 8x smaller than the device count")
	}
	// Every device re-recovers transparently: full replay, and an indexed
	// range read that must rebuild its view of the world from disk.
	for d := 0; d < devices; d++ {
		got, err := s.Replay(dev(d))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 40 {
			t.Fatalf("%s: %d segments after eviction churn, want 40", dev(d), len(got))
		}
		ranged, err := s.ReplayRange(dev(d), math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ranged) {
			t.Fatalf("%s: indexed read disagrees with replay after eviction", dev(d))
		}
	}
}

// TestMetaLRUAppendAfterEviction: an evicted log's next append lands
// exactly where the old instance left off — recovery, not restart.
func TestMetaLRUAppendAfterEviction(t *testing.T) {
	s := openResident(t, Config{MaxOpenFiles: 1, Sync: SyncAlways}, 2)
	segs := syntheticSegs(30)
	if err := s.Append("victim", segs[:10]); err != nil {
		t.Fatal(err)
	}
	// Push "victim" out of residence.
	for d := 0; d < 8; d++ {
		if err := s.Append(fmt.Sprintf("crowd-%d", d), segs[:1]); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	_, resident := s.logs["victim"]
	s.mu.Unlock()
	if resident {
		t.Fatal("victim still resident — the test exercised nothing")
	}
	if err := s.Append("victim", segs[10:]); err != nil {
		t.Fatal(err)
	}
	got, err := s.Replay("victim")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("replay after evicted append: %d segments, want 30", len(got))
	}
}

// TestMetaLRUKeepsPoisonedLogs: a log with a sticky write failure must
// stay resident — evicting it would forget the failure and let a fresh
// instance accept appends into a log whose tail never made it to disk.
func TestMetaLRUKeepsPoisonedLogs(t *testing.T) {
	s := openResident(t, Config{MaxOpenFiles: 1, Sync: SyncAlways}, 2)
	segs := syntheticSegs(10)
	if err := s.Append("poisoned", segs[:5]); err != nil {
		t.Fatal(err)
	}
	sticky := errors.New("injected write failure")
	s.mu.Lock()
	l := s.logs["poisoned"]
	s.mu.Unlock()
	l.mu.Lock()
	l.failed = sticky
	l.quarNext = s.now().Add(time.Hour) // still in quarantine backoff
	l.mu.Unlock()

	for d := 0; d < 8; d++ {
		if err := s.Append(fmt.Sprintf("crowd-%d", d), segs[:1]); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	kept := s.logs["poisoned"]
	s.mu.Unlock()
	if kept != l {
		t.Fatal("poisoned log was evicted (or replaced) despite its sticky failure")
	}
	if err := s.Append("poisoned", segs[5:]); !errors.Is(err, sticky) {
		t.Fatalf("append to poisoned log: %v, want the sticky failure", err)
	}
}

// TestMetaLRUConcurrentChurn: the lockLog retry loop under real
// contention — concurrent appenders and readers across many devices with
// a tiny cap; -race and the final replay check catch dual-instance
// writers.
func TestMetaLRUConcurrentChurn(t *testing.T) {
	const (
		devices = 16
		workers = 8
	)
	s := openResident(t, Config{MaxOpenFiles: 2, Sync: SyncAlways}, 3)
	segs := syntheticSegs(workers)
	dev := func(d int) string { return fmt.Sprintf("churn-%02d", d) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < devices; d++ {
				if err := s.Append(dev((d+w)%devices), segs[w:w+1]); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if _, err := s.SegmentAt(dev(d), segs[0].Start.T); err != nil && !errors.Is(err, ErrNoPosition) {
					t.Errorf("SegmentAt: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	total := 0
	for d := 0; d < devices; d++ {
		got, err := s.Replay(dev(d))
		if err != nil {
			t.Fatal(err)
		}
		total += len(got)
	}
	if total != devices*workers {
		t.Fatalf("replayed %d segments across devices, appended %d", total, devices*workers)
	}
}

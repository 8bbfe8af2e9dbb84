package stream

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/metrics"
	"trajsim/internal/segstore"
	"trajsim/internal/traj"
)

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("zero Zeta accepted")
	}
	if _, err := NewEngine(Config{Zeta: -1}); err == nil {
		t.Error("negative Zeta accepted")
	}
	if _, err := NewEngine(Config{Zeta: 40, Shards: -2}); err == nil {
		t.Error("negative shard count accepted")
	}
	e, err := NewEngine(Config{Zeta: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.shards); got != DefaultShards {
		t.Errorf("default shards = %d, want %d", got, DefaultShards)
	}
}

// TestSingleSessionMatchesBatch: ingesting one device in batches then
// flushing must reproduce exactly the segments of a one-shot encoder run.
func TestSingleSessionMatchesBatch(t *testing.T) {
	tr := gen.One(gen.Taxi, 1200, 7)
	for _, aggressive := range []bool{false, true} {
		e, err := NewEngine(Config{Zeta: 30, Aggressive: aggressive})
		if err != nil {
			t.Fatal(err)
		}
		var got []traj.Segment
		for off := 0; off < len(tr); off += 100 {
			end := min(off+100, len(tr))
			segs, err := e.Ingest("taxi-1", tr[off:end])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, segs...)
		}
		tail, err := e.Flush("taxi-1")
		if err != nil {
			t.Fatalf("session vanished before flush: %v", err)
		}
		got = append(got, tail...)
		enc, err := newSessionEncoder(30, aggressive, e.opts)
		if err != nil {
			t.Fatal(err)
		}
		var want []traj.Segment
		for _, p := range tr {
			want = append(want, enc.Push(p)...)
		}
		want = append(want, enc.Flush()...)
		if len(got) != len(want) {
			t.Fatalf("aggressive=%v: engine emitted %d segments, one-shot %d", aggressive, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("aggressive=%v: segment %d differs: %v vs %v", aggressive, i, got[i], want[i])
			}
		}
		if err := metrics.VerifyBound(tr, traj.Piecewise(got), 30); err != nil {
			t.Errorf("aggressive=%v: %v", aggressive, err)
		}
	}
}

// TestConcurrentIngest hammers one engine from many goroutines — one per
// device session — across shard counts, under -race. Every device checks
// its own reassembled piecewise output against the error bound.
func TestConcurrentIngest(t *testing.T) {
	const (
		devices = 128
		points  = 160 // 128 × 160 = 20480 points total
		batch   = 32
		zeta    = 40.0
	)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := NewEngine(Config{Zeta: zeta, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, devices)
			for d := 0; d < devices; d++ {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					dev := fmt.Sprintf("dev-%03d", d)
					tr := gen.One(gen.Truck, points, uint64(d)+1)
					var segs []traj.Segment
					for off := 0; off < len(tr); off += batch {
						end := min(off+batch, len(tr))
						out, err := e.Ingest(dev, tr[off:end])
						if err != nil {
							errs <- fmt.Errorf("%s: %w", dev, err)
							return
						}
						segs = append(segs, out...)
					}
					tail, err := e.Flush(dev)
					if err != nil {
						errs <- fmt.Errorf("%s: flush: %w", dev, err)
						return
					}
					segs = append(segs, tail...)
					if err := metrics.VerifyBound(tr, traj.Piecewise(segs), zeta); err != nil {
						errs <- fmt.Errorf("%s: %w", dev, err)
					}
				}(d)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			st := e.Stats()
			if st.Points != devices*points {
				t.Errorf("Stats.Points = %d, want %d", st.Points, devices*points)
			}
			if st.Opened != devices || st.Flushed != devices || st.Sessions != 0 {
				t.Errorf("Stats = %+v, want %d opened+flushed, 0 live", st, devices)
			}
		})
	}
}

// TestSharedDeviceIngest: concurrent batches for the SAME device must
// serialize on the shard lock without racing; the cleaner absorbs the
// time-order violations the interleaving produces.
func TestSharedDeviceIngest(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 40, Shards: 2, CleanWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.SerCar, 1000, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for off := g * 250; off < (g+1)*250; off += 50 {
				if _, err := e.Ingest("shared", tr[off:off+50]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := e.Sessions(); n != 1 {
		t.Errorf("Sessions = %d, want 1", n)
	}
	if _, err := e.Flush("shared"); err != nil {
		t.Errorf("flush found no session: %v", err)
	}
	// Duplicate flush: the session is gone.
	if segs, err := e.Flush("shared"); !errors.Is(err, ErrNoSession) || segs != nil {
		t.Errorf("duplicate flush returned (%v, %v), want (nil, ErrNoSession)", segs, err)
	}
}

func TestEviction(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	var evicted atomic.Int32
	e, err := NewEngine(Config{
		Zeta: 40, IdleAfter: time.Minute, Clock: now,
		OnEvict: func(dev string, _ []traj.Segment) {
			if dev != "old" {
				t.Errorf("evicted %q, want \"old\"", dev)
			}
			evicted.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 200, 9)
	if _, err := e.Ingest("old", tr[:100]); err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute)
	if _, err := e.Ingest("fresh", tr[:100]); err != nil {
		t.Fatal(err)
	}
	evs := e.EvictIdle()
	if len(evs) != 1 || evs[0].Device != "old" {
		t.Fatalf("EvictIdle = %+v, want one eviction of \"old\"", evs)
	}
	if len(evs[0].Segments) == 0 {
		t.Error("eviction dropped the session's trailing segments")
	}
	if got := evicted.Load(); got != 1 {
		t.Errorf("OnEvict called %d times, want 1", got)
	}
	if _, err := e.Flush("old"); !errors.Is(err, ErrNoSession) {
		t.Errorf("evicted session still flushable: %v", err)
	}
	if _, err := e.Flush("fresh"); err != nil {
		t.Errorf("fresh session was evicted: %v", err)
	}
	st := e.Stats()
	if st.Evicted != 1 || st.Sessions != 0 {
		t.Errorf("Stats = %+v, want Evicted=1 Sessions=0", st)
	}
}

func TestJanitor(t *testing.T) {
	e, err := NewEngine(Config{
		Zeta: 40, IdleAfter: 10 * time.Millisecond, EvictEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tr := gen.One(gen.Taxi, 50, 2)
	if _, err := e.Ingest("d", tr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := e.Stats(); st.Evicted != 1 {
		t.Errorf("Stats.Evicted = %d, want 1", st.Evicted)
	}
}

func TestSessionLimit(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 40, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 10, 4)
	for _, dev := range []string{"a", "b"} {
		if _, err := e.Ingest(dev, tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Ingest("c", tr); !errors.Is(err, ErrSessionLimit) {
		t.Errorf("third session: err = %v, want ErrSessionLimit", err)
	}
	// An existing session still accepts points at the limit.
	if _, err := e.Ingest("a", gen.One(gen.Taxi, 10, 5)); errors.Is(err, ErrSessionLimit) {
		t.Error("existing session rejected at the session limit")
	}
	// Flushing frees a slot.
	if _, err := e.Flush("b"); err != nil {
		t.Fatalf("flush b: %v", err)
	}
	if _, err := e.Ingest("c", tr); err != nil {
		t.Errorf("after flush: %v", err)
	}
}

// TestTimeOrderRejected: without a cleaner, a batch that breaks the
// strictly-increasing-timestamp invariant — against itself or the
// previous batch — is rejected whole, leaving the session intact.
func TestTimeOrderRejected(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 40})
	if err != nil {
		t.Fatal(err)
	}
	bad := []traj.Point{traj.At(0, 0, 1000), traj.At(5, 5, 1000), traj.At(9, 9, 500)}
	if _, err := e.Ingest("d", bad); !errors.Is(err, ErrTimeOrder) {
		t.Fatalf("internally unordered batch: err = %v, want ErrTimeOrder", err)
	}
	// A rejected first batch must not register a session.
	if st := e.Stats(); st.Sessions != 0 || st.Opened != 0 {
		t.Errorf("rejected first batch left a session: %+v", st)
	}
	good := []traj.Point{traj.At(0, 0, 1000), traj.At(5, 5, 2000)}
	if _, err := e.Ingest("d", good); err != nil {
		t.Fatal(err)
	}
	// Next batch must continue after t=2000.
	stale := []traj.Point{traj.At(9, 9, 2000)}
	if _, err := e.Ingest("d", stale); !errors.Is(err, ErrTimeOrder) {
		t.Fatalf("cross-batch duplicate timestamp: err = %v, want ErrTimeOrder", err)
	}
	if st := e.Stats(); st.Points != 2 {
		t.Errorf("rejected batches counted: Stats.Points = %d, want 2", st.Points)
	}
	// A cleaner-equipped engine repairs the same input instead.
	ec, err := NewEngine(Config{Zeta: 40, CleanWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Ingest("d", bad); err != nil {
		t.Errorf("cleaner engine rejected repairable batch: %v", err)
	}
}

// TestSessionLimitConcurrent: first-contact ingests racing on different
// shards must never overshoot MaxSessions.
func TestSessionLimitConcurrent(t *testing.T) {
	const limit = 10
	e, err := NewEngine(Config{Zeta: 40, Shards: 16, MaxSessions: limit})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 10, 4)
	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := e.Ingest(fmt.Sprintf("dev-%02d", g), tr)
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrSessionLimit):
				rejected.Add(1)
			default:
				t.Errorf("dev-%02d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := admitted.Load(); got != limit {
		t.Errorf("admitted %d sessions, want exactly %d", got, limit)
	}
	if got := e.Sessions(); got != limit {
		t.Errorf("Sessions() = %d, want %d", got, limit)
	}
	if got := rejected.Load(); got != 64-limit {
		t.Errorf("rejected %d, want %d", got, 64-limit)
	}
}

func TestIngestErrors(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest("", gen.One(gen.Taxi, 5, 1)); !errors.Is(err, ErrNoDevice) {
		t.Errorf("empty device: err = %v, want ErrNoDevice", err)
	}
	long := strings.Repeat("x", MaxDevice+1)
	if _, err := e.Ingest(long, gen.One(gen.Taxi, 5, 1)); !errors.Is(err, ErrDeviceTooLong) {
		t.Errorf("%d-byte device: err = %v, want ErrDeviceTooLong", len(long), err)
	}
	if _, err := e.Ingest(strings.Repeat("x", MaxDevice), gen.One(gen.Taxi, 5, 1)); err != nil {
		t.Errorf("%d-byte device: err = %v, want accepted", MaxDevice, err)
	}
	if segs, err := e.Ingest("d", nil); err != nil || segs != nil {
		t.Errorf("empty batch: (%v, %v), want (nil, nil)", segs, err)
	}
	e.Close()
	if _, err := e.Ingest("d", gen.One(gen.Taxi, 5, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("closed engine: err = %v, want ErrClosed", err)
	}
}

func TestCloseFlushesAll(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 40, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 10; d++ {
		if _, err := e.Ingest(fmt.Sprintf("d%d", d), gen.One(gen.Truck, 300, uint64(d)+1)); err != nil {
			t.Fatal(err)
		}
	}
	tails := e.Close()
	if len(tails) != 10 {
		t.Fatalf("Close flushed %d sessions, want 10", len(tails))
	}
	for dev, segs := range tails {
		if len(segs) == 0 {
			t.Errorf("%s: no trailing segments", dev)
		}
	}
	if again := e.Close(); again != nil {
		t.Errorf("second Close returned %v, want nil", again)
	}
}

// TestCloseIngestRace: ingest racing Close must either succeed before the
// drain (and be flushed by Close) or fail with ErrClosed — never leave a
// live session behind a closed engine.
func TestCloseIngestRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		e, err := NewEngine(Config{Zeta: 40, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		tr := gen.One(gen.Taxi, 40, uint64(round)+1)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				_, err := e.Ingest(fmt.Sprintf("dev-%d", g), tr)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("ingest: %v", err)
				}
			}(g)
		}
		close(start)
		e.Close()
		wg.Wait()
		if n := e.Sessions(); n != 0 {
			t.Fatalf("round %d: %d sessions survived Close", round, n)
		}
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(100, 7, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	if err := ForEach(0, 4, func(int) error { t.Error("called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
	// Errors stop new work: with one worker, nothing past the failing
	// index runs.
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(100, 1, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("ran %d items after error, want 4", got)
	}
}

func TestFNVDistribution(t *testing.T) {
	// Sanity: realistic device IDs spread across shards instead of
	// piling onto a few.
	const shards = 16
	var counts [shards]int
	for d := 0; d < 4096; d++ {
		counts[fnv1a(fmt.Sprintf("vehicle-%06d", d))%shards]++
	}
	for i, c := range counts {
		if c < 128 || c > 384 { // expect 256 ± 50%
			t.Errorf("shard %d holds %d of 4096 IDs — badly skewed", i, c)
		}
	}
}

// memSink is an in-memory Sink recording every AppendNoSync, optionally
// failing appends (fail) or commits (failCommit) on command.
type memSink struct {
	mu         sync.Mutex
	batches    int
	segs       map[string][]traj.Segment
	fail       error
	failCommit error
}

func (m *memSink) AppendNoSync(device string, segs []traj.Segment) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	if m.segs == nil {
		m.segs = map[string][]traj.Segment{}
	}
	m.batches++
	m.segs[device] = append(m.segs[device], segs...)
	return nil
}

func (m *memSink) CommitDevices([]string) error { return m.failCommit }

// TestSinkReceivesEverySegment: every emission path — ingest, explicit
// flush, idle eviction, Close — lands in the Sink, in order, exactly
// matching what the engine handed back to callers.
func TestSinkReceivesEverySegment(t *testing.T) {
	sink := &memSink{}
	now := time.Now()
	clock := func() time.Time { return now }
	e, err := NewEngine(Config{Zeta: 30, Shards: 4, Sink: sink, IdleAfter: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]traj.Segment{}
	ingest := func(dev string, tr traj.Trajectory) {
		t.Helper()
		for off := 0; off < len(tr); off += 100 {
			segs, err := e.Ingest(dev, tr[off:min(off+100, len(tr))])
			if err != nil {
				t.Fatal(err)
			}
			want[dev] = append(want[dev], segs...)
		}
	}
	ingest("flushed", gen.One(gen.Taxi, 600, 61))
	ingest("evicted", gen.One(gen.Truck, 600, 62))
	ingest("closed", gen.One(gen.SerCar, 600, 63))

	segs, err := e.Flush("flushed")
	if err != nil {
		t.Fatalf("flush failed: %v", err)
	}
	want["flushed"] = append(want["flushed"], segs...)

	now = now.Add(2 * time.Minute)
	evs := e.EvictIdle()
	for _, ev := range evs {
		want[ev.Device] = append(want[ev.Device], ev.Segments...)
	}
	if len(evs) != 2 {
		t.Fatalf("evicted %d sessions, want 2", len(evs))
	}

	// "closed" was evicted above; reopen it so Close has a tail to flush.
	tr := gen.One(gen.GeoLife, 300, 64)
	for i := range tr {
		tr[i].T += 1 << 40 // after the evicted session's timestamps
	}
	ingest("closed", tr)
	for dev, segs := range e.Close() {
		want[dev] = append(want[dev], segs...)
	}

	if len(sink.segs) != len(want) {
		t.Fatalf("sink saw devices %v", sink.segs)
	}
	for dev, w := range want {
		got := sink.segs[dev]
		if len(got) != len(w) {
			t.Fatalf("%s: sink holds %d segments, engine emitted %d", dev, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s: segment %d differs: %v vs %v", dev, i, got[i], w[i])
			}
		}
	}
}

// TestSinkErrorDegradesGracefully: a failing sink must not fail ingest —
// segments still flow to the caller, and Flush returns the tail with the
// sink's failure — but every failure is counted:
// SinkErrors per merged payload (the ingest batch and the flush tail may
// legitimately fold into one sweep), SinkErrorSegs per segment lost.
func TestSinkErrorDegradesGracefully(t *testing.T) {
	sink := &memSink{fail: errors.New("disk full")}
	e, err := NewEngine(Config{Zeta: 30, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 500, 65)
	segs, err := e.Ingest("dev", tr)
	if err != nil {
		t.Fatalf("ingest with failing sink: %v", err)
	}
	tail, err := e.Flush("dev")
	if !errors.Is(err, sink.fail) {
		t.Fatalf("flush returned %v, want the sink's failure", err)
	}
	if len(segs)+len(tail) == 0 {
		t.Fatal("no segments emitted")
	}
	st := e.Stats()
	if st.SinkErrors < 1 {
		t.Fatalf("stats: %+v, want sink errors counted", st)
	}
	if st.SinkErrorSegs != int64(len(segs)+len(tail)) {
		t.Fatalf("stats: %+v, want %d segments counted lost", st, len(segs)+len(tail))
	}
	if st.SinkAppends != 0 {
		t.Fatalf("stats: %+v, want no appends counted for a failing sink", st)
	}
}

// TestSinkConcurrentDevices: under concurrent ingest the sink's
// per-device streams stay ordered and complete.
func TestSinkConcurrentDevices(t *testing.T) {
	sink := &memSink{}
	e, err := NewEngine(Config{Zeta: 40, Shards: 4, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	const devices = 24
	var wg sync.WaitGroup
	wants := make([][]traj.Segment, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%02d", d)
			tr := gen.One(gen.Taxi, 800, uint64(d)+100)
			var want []traj.Segment
			for off := 0; off < len(tr); off += 64 {
				segs, err := e.Ingest(dev, tr[off:min(off+64, len(tr))])
				if err != nil {
					t.Error(err)
					return
				}
				want = append(want, segs...)
			}
			tail, _ := e.Flush(dev)
			wants[d] = append(want, tail...)
		}(d)
	}
	wg.Wait()
	for d := 0; d < devices; d++ {
		dev := fmt.Sprintf("dev-%02d", d)
		got := sink.segs[dev]
		if len(got) != len(wants[d]) {
			t.Fatalf("%s: %d segments in sink, want %d", dev, len(got), len(wants[d]))
		}
		for i := range got {
			if got[i] != wants[d][i] {
				t.Fatalf("%s: segment %d out of order", dev, i)
			}
		}
	}
}

// TestStatsSurfacesStoreCounters: when the Sink is a segment store (or
// anything else implementing StatsSink), one Engine.Stats call answers
// for the whole storage path; sinks without counters leave Store nil.
func TestStatsSurfacesStoreCounters(t *testing.T) {
	store, err := segstore.Open(segstore.Config{Dir: t.TempDir(), Sync: segstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e, err := NewEngine(Config{Zeta: 20, Sink: store})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Ingest("dev", gen.One(gen.Taxi, 400, 61)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush("dev"); err != nil {
		t.Fatalf("flush found no session: %v", err)
	}
	st := e.Stats()
	if st.Store == nil {
		t.Fatal("Stats.Store is nil with a segment-store sink")
	}
	if want := store.Stats(); *st.Store != want {
		t.Errorf("Stats.Store = %+v, want %+v", *st.Store, want)
	}
	if st.Store.Segments == 0 || st.Store.Appends == 0 {
		t.Errorf("store counters empty after flush: %+v", *st.Store)
	}

	plain, err := NewEngine(Config{Zeta: 20, Sink: discardSink{}})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if st := plain.Stats(); st.Store != nil {
		t.Errorf("counter-less sink surfaced store stats: %+v", st.Store)
	}
}

// discardSink is a Sink with no Stats method.
type discardSink struct{}

func (discardSink) AppendNoSync(string, []traj.Segment) error { return nil }
func (discardSink) CommitDevices([]string) error              { return nil }

package stream

import (
	"errors"
	"sync"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// gateSink is a memSink whose AppendNoSync blocks until the gate
// channel yields (or is closed), simulating a stalled disk.
type gateSink struct {
	memSink
	gate chan struct{}
}

func (g *gateSink) AppendNoSync(device string, segs []traj.Segment) error {
	<-g.gate
	return g.memSink.AppendNoSync(device, segs)
}

// ingestBatches pushes tr through the engine in batches and returns the
// total number of segments the engine handed back. Safe to call off the
// test goroutine.
func ingestBatches(e *Engine, dev string, tr traj.Trajectory, batch int) (int, error) {
	emitted := 0
	for off := 0; off < len(tr); off += batch {
		segs, err := e.Ingest(dev, tr[off:min(off+batch, len(tr))])
		if err != nil {
			return emitted, err
		}
		emitted += len(segs)
	}
	return emitted, nil
}

// ingestEmitting is ingestBatches for the test goroutine: it fails the
// test on error.
func ingestEmitting(t *testing.T, e *Engine, dev string, tr traj.Trajectory, batch int) int {
	t.Helper()
	emitted, err := ingestBatches(e, dev, tr, batch)
	if err != nil {
		t.Fatal(err)
	}
	return emitted
}

// TestSinkConfigValidation: negative queue knobs are construction-time
// errors, not latent panics.
func TestSinkConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{Zeta: 10, SinkWriters: -1}); err == nil {
		t.Error("negative SinkWriters accepted")
	}
	if _, err := NewEngine(Config{Zeta: 10, SinkQueue: -4}); err == nil {
		t.Error("negative SinkQueue accepted")
	}
}

// TestIngestNotBlockedBySlowSink is the tentpole property: with the
// async queue, Ingest completes while the sink is wedged — the disk
// write happens outside the ingest critical section. The test would
// deadlock (and time out) if Ingest waited on the sink.
func TestIngestNotBlockedBySlowSink(t *testing.T) {
	sink := &gateSink{gate: make(chan struct{})}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkQueue: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 2000, 31)
	emitted := ingestEmitting(t, e, "dev", tr, 50) // sink gate shut the whole time
	if emitted == 0 {
		t.Fatal("trajectory emitted no segments; pick a smaller zeta")
	}
	if sink.len("dev") != 0 {
		t.Error("segments reached the sink while its gate was shut")
	}
	close(sink.gate) // disk recovers
	tails := e.Close()
	if got := sink.len("dev"); got != emitted+len(tails["dev"]) {
		t.Errorf("sink holds %d segments after Close, want %d", got, emitted+len(tails["dev"]))
	}
	if st := e.Stats(); st.SinkQueued != 0 {
		t.Errorf("Close left queue depth: %+v", st)
	}
}

// TestSinkBlockPolicyLosesNothing: a full queue blocks the producer — a
// queue much smaller than the backlog plus a stalling sink must count
// blocked enqueues and still deliver every segment.
func TestSinkBlockPolicyLosesNothing(t *testing.T) {
	sink := &gateSink{gate: make(chan struct{})}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 2000, 33)
	type result struct {
		emitted int
		err     error
	}
	done := make(chan result)
	go func() {
		emitted, err := ingestBatches(e, "dev", tr, 50)
		done <- result{emitted, err}
	}()
	// With the gate shut, the worker parks on the first append and the
	// size-1 queue holds one more op, so the producer must block — wait
	// for the counter to prove it, then let the disk recover.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().SinkBlocked == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Stats().SinkBlocked == 0 {
		t.Fatal("producer never blocked against a wedged size-1 queue")
	}
	close(sink.gate)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	emitted := res.emitted
	tails := e.Close()
	if got := sink.len("dev"); got != emitted+len(tails["dev"]) {
		t.Errorf("sink holds %d segments, want %d", got, emitted+len(tails["dev"]))
	}
	if st := e.Stats(); st.SinkBlocked == 0 {
		t.Errorf("no blocked enqueues recorded against a size-1 queue: %+v", st)
	}
}

// TestFlushWaitsForDeviceQueue: Flush's persisted-before-return barrier —
// when Flush returns, every batch the device emitted earlier has cleared
// the queue, even though those appends ran asynchronously.
func TestFlushWaitsForDeviceQueue(t *testing.T) {
	sink := &gateSink{gate: make(chan struct{}, 1)}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkWriters: 2, SinkQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Truck, 1500, 37)
	emitted := ingestEmitting(t, e, "dev", tr, 50)
	// Unblock the sink only after the flush is in flight.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(sink.gate)
	}()
	tail, err := e.Flush("dev")
	if err != nil {
		t.Fatalf("flush found no session: %v", err)
	}
	if got := sink.len("dev"); got != emitted+len(tail) {
		t.Errorf("after Flush returned the sink holds %d segments, want %d", got, emitted+len(tail))
	}
	e.Close()
}

// TestEvictIdlePersistsBeforeReturn: same barrier for the janitor path.
func TestEvictIdlePersistsBeforeReturn(t *testing.T) {
	sink := &memSink{}
	now := time.Now()
	clock := func() time.Time { return now }
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, IdleAfter: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	emitted := ingestEmitting(t, e, "dev", gen.One(gen.Taxi, 1200, 39), 60)
	now = now.Add(time.Hour)
	evs := e.EvictIdle()
	if len(evs) != 1 {
		t.Fatalf("evicted %d sessions, want 1", len(evs))
	}
	if got := sink.len("dev"); got != emitted+len(evs[0].Segments) {
		t.Errorf("after EvictIdle the sink holds %d segments, want %d", got, emitted+len(evs[0].Segments))
	}
	e.Close()
}

// TestQueueOrderAcrossSessions: per-device order must survive flushing a
// session and immediately reopening it while the queue is backed up —
// the successor's batches must not overtake the predecessor's tail.
func TestQueueOrderAcrossSessions(t *testing.T) {
	sink := &memSink{}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 1500, 43)
	var want []traj.Segment
	for run := 0; run < 3; run++ {
		for off := 0; off < len(tr); off += 50 {
			segs, err := e.Ingest("dev", tr[off:off+50])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, segs...)
		}
		tail, err := e.Flush("dev")
		if err != nil {
			t.Fatalf("flush found no session: %v", err)
		}
		want = append(want, tail...)
	}
	e.Close()
	got := sink.copyOf("dev")
	if len(got) != len(want) {
		t.Fatalf("sink holds %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d out of emission order", i)
		}
	}
}

// len returns the number of persisted segments for device.
func (m *memSink) len(device string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.segs[device])
}

// copyOf returns a snapshot of the persisted segments for device.
func (m *memSink) copyOf(device string) []traj.Segment {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]traj.Segment(nil), m.segs[device]...)
}

// TestIngestAppendConcurrentSameDevice: IngestAppend's result must be
// safe to read while other goroutines keep ingesting the same device —
// the copy happens under the shard lock, unlike Ingest's reusable
// out-buffer. Fails under -race if the snapshot aliases the session
// buffer.
func TestIngestAppendConcurrentSameDevice(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 5, Shards: 2, CleanWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tr := gen.One(gen.Taxi, 2000, 47)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []traj.Segment
			for off := 0; off < len(tr); off += 50 {
				var err error
				mine, err = e.IngestAppend("shared", tr[off:off+50], mine[:0])
				if err != nil {
					t.Error(err)
					return
				}
				// Read every field of the snapshot while the other three
				// goroutines overwrite the session's out-buffer.
				var sum float64
				for _, s := range mine {
					sum += s.Start.X + s.End.Y + float64(s.EndIdx)
				}
				_ = sum
			}
		}(g)
	}
	wg.Wait()
}

// TestIngestAppendSemantics: dst grows across calls, errors leave it
// unchanged, and empty batches are no-ops.
func TestIngestAppendSemantics(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tr := gen.One(gen.Taxi, 1200, 49)
	var acc []traj.Segment
	var want int
	for off := 0; off < len(tr); off += 60 {
		acc, err = e.IngestAppend("dev", tr[off:off+60], acc)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := e.Ingest("probe", tr[off:off+60]) // mirror stream, counts only
		if err != nil {
			t.Fatal(err)
		}
		want += len(segs)
	}
	if len(acc) != want {
		t.Fatalf("accumulated %d segments, mirror emitted %d", len(acc), want)
	}
	if got, err := e.IngestAppend("dev", nil, acc); err != nil || len(got) != len(acc) {
		t.Fatalf("empty batch: %d segments, err %v", len(got), err)
	}
	stale := []traj.Point{{X: 1, Y: 1, T: -1}} // behind the stream: rejected
	if got, err := e.IngestAppend("dev", stale, acc); !errors.Is(err, ErrTimeOrder) || len(got) != len(acc) {
		t.Fatalf("rejected batch: %d segments (want %d unchanged), err %v", len(got), len(acc), err)
	}
}

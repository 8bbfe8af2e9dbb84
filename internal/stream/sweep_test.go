package stream

import (
	"bytes"
	"errors"
	"log"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/segstore"
	"trajsim/internal/traj"
)

// Tests for the sweep-level group commit: backlog folding, the fold cap,
// pool-capacity rejection, and the restart-identity guarantee across the
// deferred commit protocol.

// TestSweepFoldsBacklog: a backlog built behind a stalled sink must
// drain in merged sweeps — far fewer Append calls than batches — without
// reordering or losing a segment.
func TestSweepFoldsBacklog(t *testing.T) {
	sink := &gateSink{gate: make(chan struct{})}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 512})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 2000, 71)
	// Count enqueued batches ourselves: one per Ingest call that emitted.
	var want []traj.Segment
	batches := 0
	for off := 0; off < len(tr); off += 25 {
		segs, err := e.Ingest("dev", tr[off:min(off+25, len(tr))])
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 0 {
			batches++
			want = append(want, segs...)
		}
	}
	if batches < 10 {
		t.Fatalf("only %d batches emitted; test proves nothing", batches)
	}
	close(sink.gate) // disk recovers; the worker sweeps the backlog
	tails := e.Close()
	want = append(want, tails["dev"]...)

	got := sink.copyOf("dev")
	if len(got) != len(want) {
		t.Fatalf("sink holds %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d out of emission order after sweep folding", i)
		}
	}
	st := e.Stats()
	if st.SinkAppends >= int64(batches) {
		t.Fatalf("%d appends for %d batches — backlog never folded: %+v", st.SinkAppends, batches, st)
	}
	if st.SinkSweepBatches != int64(batches) {
		t.Fatalf("sweeps folded %d batches, %d were enqueued: %+v", st.SinkSweepBatches, batches, st)
	}
	if st.SinkSweeps == 0 || st.SinkSweeps > st.SinkAppends {
		t.Fatalf("sweep accounting: %+v", st)
	}
	if st.SinkErrors != 0 || st.SinkErrorSegs != 0 {
		t.Fatalf("healthy sink counted errors: %+v", st)
	}
}

// sizeSink records the payload size of every AppendNoSync, behind a
// gate.
type sizeSink struct {
	memSink
	gate   chan struct{}
	sizeMu sync.Mutex
	sizes  []int
}

func (s *sizeSink) AppendNoSync(device string, segs []traj.Segment) error {
	<-s.gate
	s.sizeMu.Lock()
	s.sizes = append(s.sizes, len(segs))
	s.sizeMu.Unlock()
	return s.memSink.AppendNoSync(device, segs)
}

// TestSweepCapBoundsFold: Config.SinkSweep bounds how much a stalled
// worker folds into one payload — a deep backlog drains as several
// capped sweeps, not one unbounded merge.
func TestSweepCapBoundsFold(t *testing.T) {
	const sweep, batch = 64, 25
	sink := &sizeSink{gate: make(chan struct{})}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 512, SinkSweep: sweep})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.One(gen.Taxi, 2000, 73)
	emitted := ingestEmitting(t, e, "dev", tr, batch)
	if emitted < 4*(sweep+batch) {
		t.Fatalf("only %d segments emitted; too few to need several sweeps", emitted)
	}
	close(sink.gate)
	tails := e.Close()
	total := emitted + len(tails["dev"])

	sink.sizeMu.Lock()
	sizes := append([]int(nil), sink.sizes...)
	sink.sizeMu.Unlock()
	sum, maxSize := 0, 0
	for _, n := range sizes {
		sum += n
		maxSize = max(maxSize, n)
	}
	if sum != total {
		t.Fatalf("appends carried %d segments, %d were persisted", sum, total)
	}
	// The drain loop stops pulling once the sweep holds sweepSegs, so one
	// payload can overshoot by at most the final op it folded.
	bound := sweep + max(batch, len(tails["dev"]))
	if maxSize > bound {
		t.Fatalf("a sweep payload reached %d segments, cap allows at most %d", maxSize, bound)
	}
	if maxSize <= batch {
		t.Fatalf("largest payload is %d segments (one batch) — nothing folded", maxSize)
	}
	if want := total / (sweep + batch); len(sizes) < want {
		t.Fatalf("%d segments drained in %d appends — the cap did not split the backlog (want ≥ %d)",
			total, len(sizes), want)
	}
}

// TestRecyclePoolCap: batch buffers beyond maxPooledSegs are dropped,
// not pooled — an outlier burst must not pin its peak allocation.
func TestRecyclePoolCap(t *testing.T) {
	q := newSinkQueue(Config{Sink: &memSink{}, SinkWriters: 1, SinkQueue: 1, SinkSweep: DefaultSinkSweep}, time.Now)
	defer q.close()
	small := &segBatch{segs: make([]traj.Segment, 0, maxPooledSegs)}
	if !q.recycle(small) {
		t.Errorf("batch at the cap (%d) was not pooled", maxPooledSegs)
	}
	big := &segBatch{segs: make([]traj.Segment, 0, maxPooledSegs+1)}
	if q.recycle(big) {
		t.Errorf("batch over the cap (%d) was pooled", maxPooledSegs+1)
	}
}

// TestSweepCommitFailure: when a sweep's CommitDevices fails, every
// device share the sweep wrote counts as lost — the engine cannot tell
// which file's fsync failed — even though each AppendNoSync succeeded.
// Nothing is announced to OnSink, nothing counts as appended, and Flush
// and FlushAll still hand the tails back to the caller, with a
// *FlushError naming the devices whose tails were lost. The process log
// blames the commit, not the append.
func TestSweepCommitFailure(t *testing.T) {
	logged, prev := &logBuffer{}, log.Writer()
	log.SetOutput(logged)
	t.Cleanup(func() { log.SetOutput(prev) })
	sink := &gateSink{memSink: memSink{failCommit: errors.New("fsync: input/output error")}, gate: make(chan struct{})}
	rec := &hookRecorder{}
	e, err := NewEngine(Config{Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 512, OnSink: rec.hook})
	if err != nil {
		t.Fatal(err)
	}
	devs := []string{"taxi", "truck", "car"}
	presets := []gen.Preset{gen.Taxi, gen.Truck, gen.SerCar}
	// Gate shut: the single worker parks on its first write while the
	// other batches queue up, so the drain folds several devices into
	// one sweep.
	emitted := 0
	for i, dev := range devs {
		emitted += ingestEmitting(t, e, dev, gen.One(presets[i], 800, uint64(75+i)), 40)
	}
	close(sink.gate)
	tail, err := e.Flush(devs[0])
	var fe *FlushError
	if !errors.As(err, &fe) || !reflect.DeepEqual(fe.Devices, devs[:1]) || !errors.Is(err, sink.failCommit) {
		t.Fatalf("flush returned %v; want a FlushError naming %s and wrapping the commit failure", err, devs[0])
	}
	if len(tail) == 0 {
		t.Fatal("flush returned no tail; pick a smaller zeta")
	}
	tails, err := e.FlushAll()
	if !errors.As(err, &fe) || !reflect.DeepEqual(fe.Devices, []string{"car", "truck"}) || !errors.Is(err, sink.failCommit) {
		t.Fatalf("FlushAll returned %v; want a FlushError naming car and truck", err)
	}
	e.Close()
	lost := emitted + len(tail)
	for _, dev := range devs[1:] {
		lost += len(tails[dev])
	}

	sink.mu.Lock()
	shares := sink.batches
	written := 0
	for _, segs := range sink.segs {
		written += len(segs)
	}
	sink.mu.Unlock()
	if written != lost {
		t.Fatalf("sink was handed %d segments, the engine emitted %d", written, lost)
	}
	st := e.Stats()
	if st.SinkErrors != int64(shares) {
		t.Errorf("SinkErrors = %d, want one per device share written (%d): %+v", st.SinkErrors, shares, st)
	}
	if st.SinkErrorSegs != int64(lost) {
		t.Errorf("SinkErrorSegs = %d, want every segment (%d): %+v", st.SinkErrorSegs, lost, st)
	}
	if st.SinkAppends != 0 {
		t.Errorf("SinkAppends = %d after only failed commits", st.SinkAppends)
	}
	if st.SinkSweeps >= int64(shares) {
		t.Errorf("%d sweeps for %d shares — no sweep covered several devices: %+v", st.SinkSweeps, shares, st)
	}
	if len(rec.segs) != 0 {
		t.Errorf("OnSink announced %d devices whose commit failed", len(rec.segs))
	}
	if out := logged.String(); !strings.Contains(out, "stream: sink commit ") || strings.Contains(out, "sink append") {
		t.Errorf("log blames the wrong step of a failed commit:\n%s", out)
	}
}

// logBuffer captures the standard logger's output for a test to read
// while other goroutines may still write to it.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *logBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *logBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// gatedStore wedges the write half of a real segment store, so a
// backlog builds and the drain exercises merged multi-batch payloads
// through the group-commit protocol.
type gatedStore struct {
	*segstore.Store
	gate chan struct{}
}

var _ Sink = (*gatedStore)(nil)

func (g *gatedStore) AppendNoSync(device string, segs []traj.Segment) error {
	<-g.gate
	return g.Store.AppendNoSync(device, segs)
}

// TestSweepRestartIdentity is the acceptance test for the commit
// protocol: the same uploads through the sweep-folding async pipeline
// and through one Store.Append per batch — the reference engine has no
// Sink; every batch it returns is appended by hand — must leave stores
// that replay identically after a close and reopen: folding changes the
// record framing, never the segment stream.
func TestSweepRestartIdentity(t *testing.T) {
	devs := []string{"taxi-1", "truck-2", "car-3"}
	presets := []gen.Preset{gen.Taxi, gen.Truck, gen.SerCar}
	dirRef, dirSweep := t.TempDir(), t.TempDir()

	storeRef, err := segstore.Open(segstore.Config{Dir: dirRef, Sync: segstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	engRef, err := NewEngine(Config{Zeta: 5})
	if err != nil {
		t.Fatal(err)
	}
	appendRef := func(dev string, segs []traj.Segment) {
		t.Helper()
		if err := storeRef.Append(dev, segs); err != nil {
			t.Fatal(err)
		}
	}
	ingestRef := func(dev string, tr traj.Trajectory) {
		t.Helper()
		for off := 0; off < len(tr); off += 50 {
			segs, err := engRef.Ingest(dev, tr[off:min(off+50, len(tr))])
			if err != nil {
				t.Fatal(err)
			}
			appendRef(dev, segs)
		}
	}
	storeSweep, err := segstore.Open(segstore.Config{Dir: dirSweep, Sync: segstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedStore{Store: storeSweep, gate: make(chan struct{})}
	engSweep, err := NewEngine(Config{Zeta: 5, Sink: gated, SinkWriters: 2, SinkQueue: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// First half with the gate shut: the backlog folds into merged
	// payloads when the disk recovers.
	trs := make([]traj.Trajectory, len(devs))
	for i, dev := range devs {
		trs[i] = gen.One(presets[i], 1500, uint64(81+i))
		half := trs[i][:len(trs[i])/2]
		ingestRef(dev, half)
		ingestEmitting(t, engSweep, dev, half, 50)
	}
	close(gated.gate)
	// A mid-stream session boundary on one device: the successor's
	// batches must land after the flushed tail inside the merged stream.
	tail, err := engRef.Flush(devs[0])
	if err != nil {
		t.Fatalf("reference flush found no session: %v", err)
	}
	appendRef(devs[0], tail)
	if _, err := engSweep.Flush(devs[0]); err != nil {
		t.Fatalf("sweep flush found no session: %v", err)
	}
	for i, dev := range devs {
		rest := trs[i][len(trs[i])/2:]
		ingestRef(dev, rest)
		ingestEmitting(t, engSweep, dev, rest, 50)
	}
	refTails := engRef.Close()
	for _, dev := range devs {
		appendRef(dev, refTails[dev])
	}
	engSweep.Close()

	refStats, sweepStats := storeRef.Stats(), storeSweep.Stats()
	if sweepStats.GroupSyncs == 0 {
		t.Fatalf("sweep store never group-committed: %+v", sweepStats)
	}
	if sweepStats.Syncs >= refStats.Syncs {
		t.Fatalf("sweep path cost %d fsyncs, per-batch Append %d — group commit saved nothing",
			sweepStats.Syncs, refStats.Syncs)
	}
	if err := storeRef.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storeSweep.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh stores over both directories must agree exactly.
	reopen := func(dir string) *segstore.Store {
		s, err := segstore.Open(segstore.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	ref, swp := reopen(dirRef), reopen(dirSweep)
	for _, dev := range devs {
		want, err := ref.Replay(dev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := swp.Replay(dev)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty reference replay — test proves nothing", dev)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sweep-path replay differs from per-batch Append after restart", dev)
		}
	}
}

package stream

import (
	"errors"
	"sync"
	"testing"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// hookRecorder collects OnSink notifications, copying each batch as the
// hook contract requires (the engine reuses the slice).
type hookRecorder struct {
	mu   sync.Mutex
	segs map[string][]traj.Segment
}

func (h *hookRecorder) hook(device string, segs []traj.Segment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.segs == nil {
		h.segs = map[string][]traj.Segment{}
	}
	h.segs[device] = append(h.segs[device], segs...)
}

// TestOnSinkSeesEveryPersistedBatch: the hook observes exactly what the
// sink accepted — same devices, same segments, same order — and Stats
// counts the appends.
func TestOnSinkSeesEveryPersistedBatch(t *testing.T) {
	sink := &memSink{}
	rec := &hookRecorder{}
	e, err := NewEngine(Config{Zeta: 30, Shards: 4, Sink: sink, OnSink: rec.hook})
	if err != nil {
		t.Fatal(err)
	}
	for dev, preset := range map[string]gen.Preset{"a": gen.Taxi, "b": gen.Truck} {
		if _, err := e.Ingest(dev, gen.One(preset, 600, 71)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close() // drains the queue; hooks have all fired

	if len(rec.segs) != len(sink.segs) {
		t.Fatalf("hook saw devices %v, sink holds %v", rec.segs, sink.segs)
	}
	total := 0
	for dev, want := range sink.segs {
		got := rec.segs[dev]
		if len(got) != len(want) {
			t.Fatalf("%s: hook saw %d segments, sink holds %d", dev, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: segment %d differs — the hook's copy is not what was persisted", dev, i)
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("nothing reached the sink — test proves nothing")
	}
	if st := e.Stats(); st.SinkAppends != int64(sink.batches) || st.SinkAppends == 0 {
		t.Fatalf("SinkAppends %d, sink counted %d batches", st.SinkAppends, sink.batches)
	}
}

// TestOnSinkSilentOnFailure: a batch the sink rejected is never
// announced — a tail listener must not be told about segments a later
// replay could not serve.
func TestOnSinkSilentOnFailure(t *testing.T) {
	sink := &memSink{fail: errors.New("disk full")}
	rec := &hookRecorder{}
	e, err := NewEngine(Config{Zeta: 30, Sink: sink, OnSink: rec.hook})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest("dev", gen.One(gen.Taxi, 400, 72)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if len(rec.segs) != 0 {
		t.Fatalf("hook fired for %v despite every append failing", rec.segs)
	}
	if st := e.Stats(); st.SinkAppends != 0 || st.SinkErrors == 0 {
		t.Fatalf("stats after failing sink: %+v", st)
	}
}

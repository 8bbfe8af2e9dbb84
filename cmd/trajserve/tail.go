package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"trajsim/internal/traj"
)

// The live tail: GET /devices/{device}/tail streams finalized segments
// as server-sent events. The feed is the engine's post-sink hook, so a
// tail announces a batch only after the segment store accepted it — a
// client that sees an event and then calls /segments?from= is guaranteed
// to find the segments there. In-memory encoder state is invisible here,
// exactly as it is to Replay: a tail shows the durable truth, not the
// speculative one.

// defaultTailBuffer is the per-subscriber buffered batch count when
// -tail-buffer is zero.
const defaultTailBuffer = 64

// tailSub is one SSE subscriber: a buffered channel of batch copies and
// a lagged flag set when the buffer overflows. Overflow never blocks the
// sink writers — the subscriber is told it lagged and the stream ends,
// leaving the client to reconnect (and backfill via /segments?from=).
type tailSub struct {
	ch     chan []traj.Segment
	lagged bool // guarded by the hub mutex
}

// tailHub fans persisted segment batches out to the device's tail
// subscribers. publish is wired to stream.Config.OnSink.
type tailHub struct {
	buf  int
	mu   sync.Mutex
	subs map[string]map[*tailSub]struct{}
}

func newTailHub(buf int) *tailHub {
	if buf <= 0 {
		buf = defaultTailBuffer
	}
	return &tailHub{buf: buf, subs: make(map[string]map[*tailSub]struct{})}
}

// publish delivers one persisted batch to device's subscribers. Runs on
// a sink-writer goroutine; segs is the engine's reusable buffer, so one
// copy is made for all subscribers. Never blocks: a subscriber whose
// buffer is full is marked lagged instead.
func (h *tailHub) publish(device string, segs []traj.Segment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := h.subs[device]
	if len(subs) == 0 {
		return
	}
	cp := make([]traj.Segment, len(segs))
	copy(cp, segs)
	for sub := range subs {
		select {
		case sub.ch <- cp:
		default:
			sub.lagged = true
		}
	}
}

// subscribe registers a new tail on device; the caller must unsubscribe.
func (h *tailHub) subscribe(device string) *tailSub {
	sub := &tailSub{ch: make(chan []traj.Segment, h.buf)}
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.subs[device]
	if m == nil {
		m = make(map[*tailSub]struct{})
		h.subs[device] = m
	}
	m[sub] = struct{}{}
	return sub
}

func (h *tailHub) unsubscribe(device string, sub *tailSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.subs[device]
	delete(m, sub)
	if len(m) == 0 {
		delete(h.subs, device)
	}
}

// hasLagged reports (and observes under the hub lock) whether sub
// overflowed since the last check.
func (h *tailHub) hasLagged(sub *tailSub) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return sub.lagged
}

// tailHeartbeat is how often an idle tail emits an SSE comment so
// proxies and clients can tell a quiet device from a dead connection.
// Shortened in tests.
var tailHeartbeat = 15 * time.Second

// handleDeviceTail is GET /devices/{device}/tail: a long-poll SSE stream
// of the device's finalized segment batches, one "segments" event per
// persisted batch (data: a JSON array of the same records /segments
// emits). The stream ends with a "lagged" event if the client fell
// behind the ingest rate; clients resume any time with
// /segments?from=<last seen t2_ms>.
func (s *server) handleDeviceTail(w http.ResponseWriter, r *http.Request) {
	if s.tails == nil {
		http.Error(w, "persistence disabled: start trajserve with -data-dir", http.StatusNotFound)
		return
	}
	device := r.PathValue("device")
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // nginx: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := s.tails.subscribe(device)
	defer s.tails.unsubscribe(device, sub)
	beat := time.NewTicker(tailHeartbeat)
	defer beat.Stop()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-beat.C:
			// A subscriber that overflowed and then went quiet would never
			// reach the post-delivery check below — it would idle on a
			// silently gapped stream forever. The heartbeat is the moment an
			// idle connection is touched anyway, so surface the gap here too.
			if s.tails.hasLagged(sub) {
				sendLagged(w, fl)
				return
			}
			// SSE comment line: ignored by clients, keeps intermediaries from
			// timing the connection out.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case segs := <-sub.ch:
			recs := make([]segmentRecord, len(segs))
			for i, sg := range segs {
				recs[i] = newSegmentRecord(device, sg)
			}
			if _, err := fmt.Fprint(w, "event: segments\ndata: "); err != nil {
				return
			}
			if err := enc.Encode(recs); err != nil { // Encode ends the data line
				log.Printf("devices/tail: write: %v", err)
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			fl.Flush()
			if s.tails.hasLagged(sub) {
				sendLagged(w, fl)
				return
			}
		}
	}
}

// sendLagged tells a subscriber that fell behind that its stream is
// gapped, as the final event before disconnect. The write error is
// checked — a dead connection must not pretend the client was told.
func sendLagged(w http.ResponseWriter, fl http.Flusher) {
	if _, err := fmt.Fprint(w, "event: lagged\ndata: {}\n\n"); err != nil {
		log.Printf("devices/tail: lagged notify: %v", err)
		return
	}
	fl.Flush()
}

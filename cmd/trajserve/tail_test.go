package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
)

// TestTailLaggedOnHeartbeat: a subscriber that overflowed and then went
// idle — no further batches arrive — must still be told it lagged. The
// heartbeat tick is the only moment such a connection is touched, so the
// lagged check has to run there; before the fix the client idled forever
// on a silently gapped stream.
func TestTailLaggedOnHeartbeat(t *testing.T) {
	old := tailHeartbeat
	tailHeartbeat = 20 * time.Millisecond
	defer func() { tailHeartbeat = old }()

	store, err := segstore.Open(segstore.Config{Dir: t.TempDir(), Sync: segstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tails := newTailHub(1)
	eng, err := stream.NewEngine(stream.Config{Zeta: 40, Sink: store, OnSink: tails.publish})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, store, tails, testMaxBody))
	defer srv.Close()
	defer store.Close()
	defer eng.Close()

	const dev = "quiet"
	resp, err := http.Get(srv.URL + "/devices/" + dev + "/tail")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail: status %d", resp.StatusCode)
	}

	// Wait for the handler to register its subscription, then mark it
	// lagged directly — the deterministic stand-in for a publish burst
	// overflowing the size-1 buffer while the client was slow.
	var sub *tailSub
	deadline := time.Now().Add(10 * time.Second)
	for sub == nil && time.Now().Before(deadline) {
		tails.mu.Lock()
		for s := range tails.subs[dev] {
			sub = s
		}
		tails.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if sub == nil {
		t.Fatal("tail handler never subscribed")
	}
	tails.mu.Lock()
	sub.lagged = true
	tails.mu.Unlock()

	// The device stays silent from here on: only the heartbeat can
	// surface the gap. Expect a lagged event, then end of stream.
	type outcome struct {
		lagged bool
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		o.err = readSSE(resp.Body, func(ev sseEvent) bool {
			if ev.name == "segments" {
				o.err = fmt.Errorf("idle device delivered a segments event: %q", ev.data)
				return false
			}
			if ev.name == "lagged" {
				o.lagged = true
				return false
			}
			return true
		})
		done <- o
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !o.lagged {
			t.Fatal("stream ended without a lagged event")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle lagged subscriber was never notified — the heartbeat path lost the check")
	}
}

// TestDeviceSegmentsInvertedRange: from > to is a client error — a 400
// naming the bounds, not an empty 200 a poller would happily treat as
// "no data".
func TestDeviceSegmentsInvertedRange(t *testing.T) {
	srv, _ := persistentServer(t, t.TempDir())
	const dev = "backwards"
	ingestFlushed(t, srv, dev, gen.One(gen.Taxi, 300, 95))
	status, all := fetchRecords(t, segmentsURL(srv, dev))
	if status != http.StatusOK || len(all) == 0 {
		t.Fatalf("full replay: status %d, %d records", status, len(all))
	}
	from, to := all[len(all)-1].T2, all[0].T1
	if from <= to {
		t.Fatalf("trajectory spans [%d,%d]; cannot build an inverted window", to, from)
	}
	for _, out := range []string{"", "&out=sgb1"} {
		u := fmt.Sprintf("%s?from=%d&to=%d%s", segmentsURL(srv, dev), from, to, out)
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("inverted range%s: status %d, want 400", out, resp.StatusCode)
		}
		if !strings.Contains(string(b), "inverted") {
			t.Errorf("inverted range%s: body %q does not name the problem", out, b)
		}
	}
	// A degenerate-but-valid window (from == to) stays a 200.
	u := fmt.Sprintf("%s?from=%d&to=%d", segmentsURL(srv, dev), all[0].T1, all[0].T1)
	if status, _ := fetchRecords(t, u); status != http.StatusOK {
		t.Fatalf("from == to: status %d, want 200", status)
	}
}

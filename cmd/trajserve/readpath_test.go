package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

// Integration tests for the time-indexed read path: ranged /segments,
// /at, the SGB1 output format, and the SSE live tail.

// ingestFlushed uploads pts for dev and flushes the session so every
// segment is in the store.
func ingestFlushed(t *testing.T, srv *httptest.Server, dev string, pts []traj.Point) {
	t.Helper()
	body := deviceCSV(map[string][]traj.Point{dev: pts})
	resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if resp, err = http.Post(srv.URL+"/flush?device="+url.QueryEscape(dev), "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", resp.StatusCode)
	}
}

// fetchRecords decodes an NDJSON /segments response body.
func fetchRecords(t *testing.T, u string) (int, []segmentRecord) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []segmentRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var rec segmentRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		recs = append(recs, rec)
	}
	return resp.StatusCode, recs
}

func TestDeviceSegmentsRange(t *testing.T) {
	srv, _ := persistentServer(t, t.TempDir())
	const dev = "ranger"
	tr := gen.One(gen.Taxi, 600, 91)
	ingestFlushed(t, srv, dev, tr)

	status, all := fetchRecords(t, segmentsURL(srv, dev))
	if status != http.StatusOK || len(all) == 0 {
		t.Fatalf("full replay: status %d, %d records", status, len(all))
	}

	// A window over the middle third returns exactly the overlapping
	// records, in order.
	from := all[len(all)/3].T1
	to := all[2*len(all)/3].T2
	u := fmt.Sprintf("%s?from=%d&to=%d", segmentsURL(srv, dev), from, to)
	status, got := fetchRecords(t, u)
	if status != http.StatusOK {
		t.Fatalf("ranged replay: status %d", status)
	}
	var want []segmentRecord
	for _, r := range all {
		if r.T2 >= from && r.T1 <= to {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ranged replay has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Half-open forms: from-only and to-only partition the log.
	_, tail := fetchRecords(t, fmt.Sprintf("%s?from=%d", segmentsURL(srv, dev), from))
	_, head := fetchRecords(t, fmt.Sprintf("%s?to=%d", segmentsURL(srv, dev), from-1))
	if len(tail)+len(head) < len(all) {
		t.Errorf("from-only (%d) + to-only (%d) < full (%d)", len(tail), len(head), len(all))
	}

	// A window matching nothing is an empty 200, not a 404.
	status, none := fetchRecords(t, fmt.Sprintf("%s?from=%d&to=%d", segmentsURL(srv, dev), to+1e9, to+2e9))
	if status != http.StatusOK || len(none) != 0 {
		t.Errorf("empty window: status %d, %d records, want 200 and none", status, len(none))
	}

	// Unparseable bounds are a 400.
	resp, err := http.Get(segmentsURL(srv, dev) + "?from=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad from: status %d, want 400", resp.StatusCode)
	}
}

func TestDeviceSegmentsSGB1(t *testing.T) {
	srv, _ := persistentServer(t, t.TempDir())
	const dev = "sgb"
	tr := gen.One(gen.SerCar, 400, 17)
	ingestFlushed(t, srv, dev, tr)

	status, all := fetchRecords(t, segmentsURL(srv, dev))
	if status != http.StatusOK || len(all) < 3 {
		t.Fatalf("full replay: status %d, %d records", status, len(all))
	}

	// out=sgb1 round-trips the full log.
	resp, err := http.Get(segmentsURL(srv, dev) + "?out=sgb1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("out=sgb1: status %d: %s", resp.StatusCode, raw)
	}
	segs, err := trajio.DecodeSegments(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(all) {
		t.Fatalf("sgb1 has %d segments, NDJSON had %d", len(segs), len(all))
	}
	for i, sg := range segs {
		if sg.Start.T != all[i].T1 || sg.End.T != all[i].T2 {
			t.Fatalf("segment %d spans [%d,%d], NDJSON said [%d,%d]",
				i, sg.Start.T, sg.End.T, all[i].T1, all[i].T2)
		}
	}

	// A ranged result need not be continuous — sgb1 carries it anyway.
	mid := all[len(all)/2]
	u := fmt.Sprintf("%s?from=%d&to=%d&out=sgb1", segmentsURL(srv, dev), mid.T1, mid.T2)
	if resp, err = http.Get(u); err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ranged sgb1: status %d", resp.StatusCode)
	}
	if ranged, err := trajio.DecodeSegments(raw); err != nil || len(ranged) == 0 {
		t.Fatalf("ranged sgb1 decode: %d segments, err %v", len(ranged), err)
	}
}

func TestDeviceAt(t *testing.T) {
	srv, _ := persistentServer(t, t.TempDir())
	const dev = "probe"
	tr := gen.One(gen.Taxi, 500, 33)
	ingestFlushed(t, srv, dev, tr)

	status, all := fetchRecords(t, segmentsURL(srv, dev))
	if status != http.StatusOK || len(all) == 0 {
		t.Fatalf("full replay: status %d, %d records", status, len(all))
	}

	var at struct {
		Device string  `json:"device"`
		T      int64   `json:"t_ms"`
		X      float64 `json:"x_m"`
		Y      float64 `json:"y_m"`
	}
	query := func(tms int64) int {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/at?t=%d", strings.TrimSuffix(segmentsURL(srv, dev), "/segments"), tms))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&at); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	// A segment endpoint must answer with (nearly) the endpoint itself.
	rec := all[len(all)/2]
	if status := query(rec.T1); status != http.StatusOK {
		t.Fatalf("at t=%d: status %d", rec.T1, status)
	}
	if at.Device != dev || at.T != rec.T1 {
		t.Fatalf("at = %+v, want device %q t %d", at, dev, rec.T1)
	}
	if dx, dy := at.X-rec.X1, at.Y-rec.Y1; dx*dx+dy*dy > 1 {
		t.Errorf("at(%d) = (%g,%g), segment starts at (%g,%g)", rec.T1, at.X, at.Y, rec.X1, rec.Y1)
	}

	// A mid-segment time interpolates strictly between the endpoints.
	if rec.T2 > rec.T1+1 {
		mid := (rec.T1 + rec.T2) / 2
		if status := query(mid); status != http.StatusOK {
			t.Fatalf("at t=%d: status %d", mid, status)
		}
		minX, maxX := min(rec.X1, rec.X2)-1, max(rec.X1, rec.X2)+1
		if at.X < minX || at.X > maxX {
			t.Errorf("interpolated x=%g outside segment [%g,%g]", at.X, minX, maxX)
		}
	}

	// Before the first fix, after the last fix, missing t, no store.
	if status := query(all[0].T1 - 1e6); status != http.StatusNotFound {
		t.Errorf("before history: status %d, want 404", status)
	}
	if status := query(all[len(all)-1].T2 + 1e6); status != http.StatusNotFound {
		t.Errorf("after history: status %d, want 404", status)
	}
	resp, err := http.Get(strings.TrimSuffix(segmentsURL(srv, dev), "/segments") + "/at")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing t: status %d, want 400", resp.StatusCode)
	}

	plain := testServer(t, testMaxBody)
	if resp, err = http.Get(plain.URL + "/devices/x/at?t=0"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no store: status %d, want 404", resp.StatusCode)
	}
}

// TestDeviceAtBodyMatchesMapEncoding: a /at answer is encoded from a
// struct, and its bytes are exactly what encoding a map of the same keys
// and values gives, for positions west and south of the origin, far
// from it, and at and between segment ends.
func TestDeviceAtBodyMatchesMapEncoding(t *testing.T) {
	store, err := segstore.Open(segstore.Config{Dir: t.TempDir(), Sync: segstore.SyncNever, ReadCacheBytes: segstore.DefaultReadCacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(stream.Config{Zeta: 40, Sink: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, store, newTailHub(0), testMaxBody))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		store.Close()
	})
	const dev = "far-1"
	segs := []traj.Segment{
		{Start: traj.At(-123456.78, -0.01, 1_000), End: traj.At(-98765.43, 2.5, 5_000), StartIdx: 0, EndIdx: 9},
		{Start: traj.At(-98765.43, 2.5, 5_000), End: traj.At(1.5e7, -9.99e6, 9_000), StartIdx: 9, EndIdx: 40},
		{Start: traj.At(1.5e7, -9.99e6, 9_000), End: traj.At(0.07, 3e6, 1_700_000_012_345), StartIdx: 38, EndIdx: 1 << 40},
	}
	if err := store.Append(dev, segs); err != nil {
		t.Fatal(err)
	}
	for _, tms := range []int64{1_000, 3_001, 5_000, 7_777, 9_000, 850_000_006_000, 1_700_000_012_345} {
		seg, err := store.SegmentAt(dev, tms)
		if err != nil {
			t.Fatal(err)
		}
		p := seg.At(tms)
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{
			"device":  dev,
			"t_ms":    tms,
			"x_m":     p.X,
			"y_m":     p.Y,
			"segment": newSegmentRecord(dev, seg),
		})
		resp, err := http.Get(fmt.Sprintf("%s/devices/%s/at?t=%d", srv.URL, dev, tms))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("at t=%d: status %d, %v", tms, resp.StatusCode, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("at t=%d:\n got %s\nwant %s", tms, got, want.Bytes())
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off an SSE stream until fn says stop or the
// stream ends.
func readSSE(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
		// Comment lines (heartbeats) are skipped.
	}
	return sc.Err()
}

func TestDeviceTailSSE(t *testing.T) {
	srv, _ := persistentServer(t, t.TempDir())
	const dev = "tailed"

	// Subscribe first, then ingest: the tail must see the batch.
	req, err := http.NewRequest("GET", strings.TrimSuffix(segmentsURL(srv, dev), "/segments")+"/tail", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("tail Content-Type %q", ct)
	}

	done := make(chan []segmentRecord, 1)
	go func() {
		var got []segmentRecord
		readSSE(resp.Body, func(ev sseEvent) bool {
			if ev.name != "segments" {
				return true
			}
			var recs []segmentRecord
			if err := json.Unmarshal([]byte(ev.data), &recs); err != nil {
				t.Errorf("tail event: %v", err)
				return false
			}
			got = append(got, recs...)
			return false // one batch is enough
		})
		done <- got
	}()

	// Give the subscription a moment to register before ingesting.
	time.Sleep(50 * time.Millisecond)
	ingestFlushed(t, srv, dev, gen.One(gen.SerCar, 300, 5))

	select {
	case got := <-done:
		if len(got) == 0 {
			t.Fatal("tail delivered no segment records")
		}
		for _, rec := range got {
			if rec.Device != dev {
				t.Fatalf("tail record for %q, want %q", rec.Device, dev)
			}
		}
		// Everything a tail announced must already be replayable. The
		// store quantizes coordinates to a centimeter on persist, so match
		// on the time span and allow quantization error in the positions.
		status, all := fetchRecords(t, segmentsURL(srv, dev))
		if status != http.StatusOK {
			t.Fatalf("replay after tail: status %d", status)
		}
		persisted := make(map[[2]int64]segmentRecord, len(all))
		for _, rec := range all {
			persisted[[2]int64{rec.T1, rec.T2}] = rec
		}
		for _, rec := range got {
			p, ok := persisted[[2]int64{rec.T1, rec.T2}]
			if !ok {
				t.Fatalf("tail announced %+v which replay does not serve", rec)
			}
			for _, d := range []float64{p.X1 - rec.X1, p.Y1 - rec.Y1, p.X2 - rec.X2, p.Y2 - rec.Y2} {
				if d > 0.01 || d < -0.01 {
					t.Fatalf("tail announced %+v, replay serves %+v (beyond quantization)", rec, p)
				}
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tail never delivered the ingested batch")
	}
}

// TestTailWhileIngesting hammers one device with concurrent ingest while
// several tails stream it — the -race exercise for the hub, the OnSink
// hook, and the sink writers.
func TestTailWhileIngesting(t *testing.T) {
	srv, _ := persistentServer(t, t.TempDir())
	const dev = "busy"
	const tails = 4

	var wg sync.WaitGroup
	bodies := make([]io.ReadCloser, 0, tails)
	for i := 0; i < tails; i++ {
		req, err := http.NewRequest("GET", strings.TrimSuffix(segmentsURL(srv, dev), "/segments")+"/tail", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tail %d: status %d", i, resp.StatusCode)
		}
		bodies = append(bodies, resp.Body)
		wg.Add(1)
		go func(body io.ReadCloser) {
			defer wg.Done()
			readSSE(body, func(sseEvent) bool { return true })
		}(resp.Body)
	}

	// Overlapping ingest batches: continuation of one long trajectory so
	// the store keeps appending, flushed every round to force sink writes.
	tr := gen.One(gen.Taxi, 2000, 77)
	const rounds = 8
	chunk := len(tr) / rounds
	for r := 0; r < rounds; r++ {
		ingestFlushed(t, srv, dev, tr[r*chunk:(r+1)*chunk])
	}

	// Closing the response bodies unblocks the readers and lets the
	// server-side handlers return (the SSE handler exits when the client
	// disconnects) — without this, httptest.Server.Close would wait on
	// the never-ending tail requests.
	for _, b := range bodies {
		b.Close()
	}
	wg.Wait()

	status, all := fetchRecords(t, segmentsURL(srv, dev))
	if status != http.StatusOK || len(all) == 0 {
		t.Fatalf("replay after concurrent tailing: status %d, %d records", status, len(all))
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/metrics"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

func sampleCSV(t *testing.T, n int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	tr := gen.One(gen.SerCar, n, 5)
	if err := trajio.WriteCSV(&buf, tr, trajio.CSVOptions{Format: trajio.Planar, Header: true}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// testServer starts the full service around a fresh streaming engine,
// with no persistence.
func testServer(t *testing.T, maxBody int64) *httptest.Server {
	t.Helper()
	eng, err := stream.NewEngine(stream.Config{Zeta: 40, Aggressive: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(newHandler(eng, nil, nil, maxBody))
	t.Cleanup(srv.Close)
	return srv
}

// persistentServer starts the service with a segment store under dir —
// the -data-dir configuration. The returned shutdown func mimics the
// SIGTERM path: drain the server, flush the engine into the store, close
// the store.
func persistentServer(t *testing.T, dir string) (*httptest.Server, func()) {
	t.Helper()
	return persistentServerCfg(t, segstore.Config{Dir: dir, Sync: segstore.SyncAlways})
}

// persistentServerCfg is persistentServer with full control of the
// storage knobs — the -max-open-files/-retention-* configurations.
func persistentServerCfg(t *testing.T, cfg segstore.Config) (*httptest.Server, func()) {
	t.Helper()
	store, err := segstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tails := newTailHub(0)
	eng, err := stream.NewEngine(stream.Config{
		Zeta: 40, Aggressive: true, Shards: 4, Sink: store, OnSink: tails.publish,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, store, tails, testMaxBody))
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			srv.Close()
			eng.Close()
			if err := store.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(shutdown)
	return srv, shutdown
}

const testMaxBody = 64 << 20

func TestHealthz(t *testing.T) {
	srv := testServer(t, testMaxBody)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestAlgorithms(t *testing.T) {
	srv := testServer(t, testMaxBody)
	resp, err := http.Get(srv.URL + "/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"OPERB", "OPERB-A", "FBQS", "DP"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("missing %s in %s", want, b)
		}
	}
}

func TestCompressCSV(t *testing.T) {
	srv := testServer(t, testMaxBody)
	resp, err := http.Post(srv.URL+"/compress?algo=OPERB-A&zeta=30", "text/csv", sampleCSV(t, 400))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	points, _ := strconv.Atoi(resp.Header.Get("X-Points"))
	segments, _ := strconv.Atoi(resp.Header.Get("X-Segments"))
	if points != 400 || segments <= 0 || segments >= points {
		t.Fatalf("X-Points=%d X-Segments=%d", points, segments)
	}
	maxErr, _ := strconv.ParseFloat(resp.Header.Get("X-Max-Error"), 64)
	if maxErr > 30*1.000001 {
		t.Errorf("X-Max-Error=%v exceeds ζ", maxErr)
	}
	// The body is a decodable simplified CSV with segments+1 points.
	out, _, err := trajio.ReadCSV(resp.Body, trajio.CSVOptions{Format: trajio.Planar, Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != segments+1 {
		t.Errorf("body has %d points, want %d", len(out), segments+1)
	}
}

func TestCompressBinary(t *testing.T) {
	srv := testServer(t, testMaxBody)
	resp, err := http.Post(srv.URL+"/compress?algo=FBQS&zeta=25&out=binary", "text/csv", sampleCSV(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := trajio.DecodePiecewise(b)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := strconv.Atoi(resp.Header.Get("X-Segments")); len(pw) != want {
		t.Errorf("decoded %d segments, header says %s", len(pw), resp.Header.Get("X-Segments"))
	}
}

func TestCompressDirtyStreamNeedsClean(t *testing.T) {
	srv := testServer(t, testMaxBody)
	// A stream with a duplicated timestamp fails validation without clean=.
	dirty := "t_ms,x_m,y_m\n0,0,0\n1000,5,0\n1000,5,0\n2000,10,0\n"
	resp, err := http.Post(srv.URL+"/compress", "text/csv", strings.NewReader(dirty))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("dirty upload: status %d, want 422", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/compress?clean=4", "text/csv", strings.NewReader(dirty))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("cleaned upload: status %d: %s", resp.StatusCode, b)
	}
}

func TestCompressErrors(t *testing.T) {
	srv := testServer(t, testMaxBody)
	cases := []struct {
		url  string
		body string
		want int
	}{
		{"/compress?algo=bogus", "t_ms,x_m,y_m\n0,0,0\n1000,1,1\n", http.StatusBadRequest},
		{"/compress?zeta=abc", "t_ms,x_m,y_m\n0,0,0\n1000,1,1\n", http.StatusBadRequest},
		{"/compress?zeta=-5", "t_ms,x_m,y_m\n0,0,0\n1000,1,1\n", http.StatusBadRequest},
		{"/compress?clean=-1", "t_ms,x_m,y_m\n0,0,0\n1000,1,1\n", http.StatusBadRequest},
		{"/compress?out=weird", "t_ms,x_m,y_m\n0,0,0\n1000,1,1\n", http.StatusBadRequest},
		{"/compress", "not,a,trajectory\nx,y,z\n", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.url, "text/csv", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
	// GET on /compress is rejected by the method-scoped route.
	resp, err := http.Get(srv.URL + "/compress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /compress should not succeed")
	}
}

// End-to-end: the round trip through the service preserves the error
// bound against the original upload.
func TestEndToEndBound(t *testing.T) {
	srv := testServer(t, testMaxBody)
	tr := gen.One(gen.Taxi, 300, 11)
	var buf bytes.Buffer
	if err := trajio.WriteCSV(&buf, tr, trajio.CSVOptions{Format: trajio.Planar, Header: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/compress?algo=OPERB&zeta=40&out=binary", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	pw, err := trajio.DecodePiecewise(b)
	if err != nil {
		t.Fatal(err)
	}
	// Binary quantizes to 1 cm; allow that on top of ζ.
	if err := metrics.VerifyBound(tr, pw, 40.03); err != nil {
		t.Error(err)
	}
}

// deviceCSV renders per-device batches in /ingest CSV form.
func deviceCSV(devs map[string][]traj.Point) string {
	var sb strings.Builder
	sb.WriteString("device,t_ms,x_m,y_m\n")
	for dev, pts := range devs {
		for _, p := range pts {
			fmt.Fprintf(&sb, "%s,%d,%f,%f\n", dev, p.T, p.X, p.Y)
		}
	}
	return sb.String()
}

func TestIngestCSVAndStats(t *testing.T) {
	srv := testServer(t, testMaxBody)
	tra := gen.One(gen.Taxi, 300, 21)
	trb := gen.One(gen.Truck, 300, 22)

	// Two batches per device, then flush each and check the reassembled
	// piecewise output against ζ.
	var segs = map[string][]traj.Segment{}
	for _, half := range []int{0, 150} {
		body := deviceCSV(map[string][]traj.Point{
			"taxi-a":  tra[half : half+150],
			"truck-b": trb[half : half+150],
		})
		resp, err := http.Post(srv.URL+"/ingest?out=segments", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("ingest: status %d: %s", resp.StatusCode, b)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var rec struct {
				Device string  `json:"device"`
				T1     int64   `json:"t1_ms"`
				X1     float64 `json:"x1_m"`
				Y1     float64 `json:"y1_m"`
				T2     int64   `json:"t2_ms"`
				X2     float64 `json:"x2_m"`
				Y2     float64 `json:"y2_m"`
			}
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			segs[rec.Device] = append(segs[rec.Device], traj.Segment{
				Start: traj.At(rec.X1, rec.Y1, rec.T1),
				End:   traj.At(rec.X2, rec.Y2, rec.T2),
			})
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Sessions != 2 || st.Points != 600 {
		t.Fatalf("stats after ingest: %+v", st)
	}

	for dev, tr := range map[string]traj.Trajectory{"taxi-a": tra, "truck-b": trb} {
		resp, err := http.Post(srv.URL+"/flush?device="+dev+"&out=segments", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flush %s: status %d", dev, resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var rec struct {
				T1 int64   `json:"t1_ms"`
				X1 float64 `json:"x1_m"`
				Y1 float64 `json:"y1_m"`
				T2 int64   `json:"t2_ms"`
				X2 float64 `json:"x2_m"`
				Y2 float64 `json:"y2_m"`
			}
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			segs[dev] = append(segs[dev], traj.Segment{
				Start: traj.At(rec.X1, rec.Y1, rec.T1),
				End:   traj.At(rec.X2, rec.Y2, rec.T2),
			})
		}
		resp.Body.Close()
		// Segment indices are not carried over the wire, so check the
		// spatial bound directly: every source point within ζ of some
		// segment's line — the paper's error measure, which its covering
		// segment is guaranteed to satisfy.
		for _, p := range tr {
			best := 1e18
			for _, s := range segs[dev] {
				if d := s.LineDistance(p); d < best {
					best = d
				}
			}
			if best > 40*1.000001 {
				t.Fatalf("%s: point %v is %.2f m from the output, ζ=40", dev, p, best)
				break
			}
		}
	}

	// Duplicate flush → 404.
	resp, err = http.Post(srv.URL+"/flush?device=taxi-a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("duplicate flush: status %d, want 404", resp.StatusCode)
	}
}

func TestIngestNDJSON(t *testing.T) {
	srv := testServer(t, testMaxBody)
	var sb strings.Builder
	for i, p := range gen.One(gen.SerCar, 200, 23) {
		fmt.Fprintf(&sb, `{"device":"car-%d","t_ms":%d,"x_m":%f,"y_m":%f}`+"\n", i%4, p.T, p.X, p.Y)
	}
	resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sum struct{ Devices, Points, Segments int }
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Devices != 4 || sum.Points != 200 {
		t.Fatalf("summary: %+v", sum)
	}
	// Flush everything at once.
	resp2, err := http.Post(srv.URL+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var fsum struct{ Devices, Segments int }
	if err := json.NewDecoder(resp2.Body).Decode(&fsum); err != nil {
		t.Fatal(err)
	}
	if fsum.Devices != 4 {
		t.Fatalf("flush-all summary: %+v", fsum)
	}
}

func TestIngestErrors(t *testing.T) {
	srv := testServer(t, testMaxBody)
	cases := []struct {
		name, ct, body string
		want           int
	}{
		{"missing header", "text/csv", "t_ms,x_m,y_m\n0,0,0\n", http.StatusBadRequest},
		{"empty device field", "text/csv", "device,t_ms,x_m,y_m\n,0,1.0,2.0\n", http.StatusBadRequest},
		{"empty json device", "application/json", `{"device":"","t_ms":0,"x_m":1,"y_m":2}` + "\n", http.StatusBadRequest},
		{"bad number", "text/csv", "device,t_ms,x_m,y_m\nd1,zero,0,0\n", http.StatusBadRequest},
		{"missing device", "application/json", `{"t_ms":0,"x_m":1,"y_m":2}` + "\n", http.StatusBadRequest},
		{"bad json", "application/json", `{"device":`, http.StatusBadRequest},
		{"unordered points", "text/csv", "device,t_ms,x_m,y_m\nd9,1000,0,0\nd9,500,1,1\n", http.StatusUnprocessableEntity},
		{"header only", "text/csv", "device,t_ms,x_m,y_m\n", http.StatusOK},
		{"empty ndjson", "application/json", "", http.StatusOK},
		{"swapped header", "text/csv", "device,x_m,y_m,t_ms\nd1,5,0,1000\n", http.StatusBadRequest},
		{"misnamed json keys", "application/json", `{"device":"d1","t":100,"x":1.5,"y":2.5}` + "\n", http.StatusBadRequest},
		{"missing json coords", "application/json", `{"device":"d1","t_ms":100}` + "\n", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/ingest", c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestIngestPartialFailure: bulk semantics — a device with a bad batch is
// reported in "failed" while the other devices' points commit, so a
// client can drop the bad device and not lose the rest.
func TestIngestPartialFailure(t *testing.T) {
	srv := testServer(t, testMaxBody)
	body := "device,t_ms,x_m,y_m\n" +
		"good,0,0,0\ngood,1000,5,5\n" +
		"bad,1000,0,0\nbad,500,1,1\n" // unordered
	resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: status %d, want 200", resp.StatusCode)
	}
	var sum struct {
		Devices, Points int
		Failed          map[string]string
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Devices != 1 || sum.Points != 2 {
		t.Errorf("summary: %+v", sum)
	}
	if _, ok := sum.Failed["bad"]; !ok || len(sum.Failed) != 1 {
		t.Errorf("failed map: %+v, want only \"bad\"", sum.Failed)
	}
	// The good device's session is live; the bad device opened none.
	resp2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st stream.Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Points != 2 {
		t.Errorf("stats: %+v, want 1 session with 2 points", st)
	}
}

// TestBodyCap: uploads beyond -max-body get 413 on both POST endpoints.
func TestBodyCap(t *testing.T) {
	srv := testServer(t, 512)
	big := sampleCSV(t, 2000) // far beyond 512 bytes
	resp, err := http.Post(srv.URL+"/compress", "text/csv", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("compress: status %d, want 413", resp.StatusCode)
	}

	var sb strings.Builder
	sb.WriteString("device,t_ms,x_m,y_m\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "d1,%d,%d,%d\n", i*1000, i, i)
	}
	resp, err = http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("ingest: status %d, want 413", resp.StatusCode)
	}
	// Under the cap still works.
	small := "device,t_ms,x_m,y_m\nd1,0,0,0\nd1,1000,5,5\n"
	resp, err = http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small ingest: status %d, want 200", resp.StatusCode)
	}

	// Binary bodies stream through the chunked decoder; the cap must
	// still surface as 413, not as a 400 decode failure.
	bin := trajio.AppendIngestHeader(nil)
	bin = trajio.AppendIngestBatch(bin, "d1", gen.One(gen.Taxi, 400, 53)) // ≫ 512 bytes
	resp, err = http.Post(srv.URL+"/ingest", trajio.IngestContentType, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("binary ingest over cap: status %d, want 413", resp.StatusCode)
	}
}

// binaryIngestBody renders device batches in the binary wire format.
func binaryIngestBody(devs []string, batches []traj.Trajectory) *bytes.Reader {
	b := trajio.AppendIngestHeader(nil)
	for i, dev := range devs {
		b = trajio.AppendIngestBatch(b, dev, batches[i])
	}
	return bytes.NewReader(b)
}

func TestIngestBinary(t *testing.T) {
	srv := testServer(t, testMaxBody)
	tra := gen.One(gen.Taxi, 300, 51)
	trb := gen.One(gen.Truck, 200, 52)
	// Summary mode: counts only, on throwaway devices.
	body := binaryIngestBody([]string{"sum-a", "sum-b"}, []traj.Trajectory{tra[:50], trb[:50]})
	resp, err := http.Post(srv.URL+"/ingest", trajio.IngestContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sum struct{ Devices, Points, Segments int }
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Devices != 2 || sum.Points != 100 {
		t.Fatalf("summary: %+v", sum)
	}

	// The bound-checked devices upload everything with out=segments, so
	// every finalized segment is captured.
	segs := map[string][]traj.Segment{}
	collect := func(r io.Reader) {
		t.Helper()
		dec := json.NewDecoder(r)
		for {
			var rec segmentRecord
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			segs[rec.Device] = append(segs[rec.Device], traj.Segment{
				Start: traj.At(rec.X1, rec.Y1, rec.T1),
				End:   traj.At(rec.X2, rec.Y2, rec.T2),
			})
		}
	}
	body = binaryIngestBody([]string{"bin-a", "bin-b"}, []traj.Trajectory{tra, trb})
	resp2, err := http.Post(srv.URL+"/ingest?out=segments", trajio.IngestContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: status %d", resp2.StatusCode)
	}
	collect(resp2.Body)
	resp2.Body.Close()

	// The flushed output still honors ζ against the (quantized) upload.
	for dev, tr := range map[string]traj.Trajectory{"bin-a": tra, "bin-b": trb} {
		resp, err := http.Post(srv.URL+"/flush?device="+dev+"&out=segments", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		collect(resp.Body)
		resp.Body.Close()
		for _, p := range tr {
			best := 1e18
			for _, s := range segs[dev] {
				if d := s.LineDistance(p); d < best {
					best = d
				}
			}
			if best > 40.02 { // ζ plus 1 cm ingest quantization
				t.Fatalf("%s: point %v is %.2f m out", dev, p, best)
			}
		}
	}
}

func TestIngestBinaryMalformed(t *testing.T) {
	srv := testServer(t, testMaxBody)
	valid := trajio.AppendIngestBatch(trajio.AppendIngestHeader(nil), "d1", gen.One(gen.Taxi, 20, 53))
	for name, body := range map[string][]byte{
		"garbage": []byte("not binary at all"),
		"torn":    valid[:len(valid)-2],
	} {
		resp, err := http.Post(srv.URL+"/ingest", trajio.IngestContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// An empty binary stream (header only) is a no-op like empty CSV.
	resp, err := http.Post(srv.URL+"/ingest", trajio.IngestContentType,
		bytes.NewReader(trajio.AppendIngestHeader(nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty stream: status %d, want 200", resp.StatusCode)
	}
}

// segmentsURL builds the replay endpoint path for a device ID.
func segmentsURL(srv *httptest.Server, dev string) string {
	return srv.URL + "/devices/" + url.PathEscape(dev) + "/segments"
}

func TestDeviceSegmentsEndpoint(t *testing.T) {
	srv, _ := persistentServerCfg(t, segstore.Config{
		Dir: t.TempDir(), Sync: segstore.SyncAlways, ReadCacheBytes: segstore.DefaultReadCacheBytes,
	})
	const dev = "cab 7" // exercises path escaping end to end
	tr := gen.One(gen.Taxi, 300, 54)
	body := deviceCSV(map[string][]traj.Point{dev: tr})
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

	// A bad out → 400, decided before the log is read. The piecewise
	// encoding (out=binary) is /compress-only: a stored log may span
	// several encoder sessions, which it cannot represent.
	before := storeStats(t, srv)
	for _, out := range []string{"weird", "binary"} {
		if resp, err = http.Get(segmentsURL(srv, dev) + "?out=" + out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("out=%s: status %d, want 400", out, resp.StatusCode)
		}
	}
	if after := storeStats(t, srv); after.ReadBytes != before.ReadBytes || after.ReadCacheMiss != before.ReadCacheMiss {
		t.Errorf("a rejected out read the log: read_bytes %d -> %d, read_cache_misses %d -> %d",
			before.ReadBytes, after.ReadBytes, before.ReadCacheMiss, after.ReadCacheMiss)
	}

	// NDJSON replay covers the whole upload within ζ.
	resp, err = http.Get(segmentsURL(srv, dev))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var count int
	dec := json.NewDecoder(resp.Body)
	for {
		var rec segmentRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if rec.Device != dev {
			t.Fatalf("record for %q, want %q", rec.Device, dev)
		}
		count++
	}
	if count == 0 || count >= len(tr) {
		t.Fatalf("replayed %d segments for %d points", count, len(tr))
	}

	// Binary (SGB1) replay decodes to the same number of segments.
	resp2, err := http.Get(segmentsURL(srv, dev) + "?out=sgb1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	segs, err := trajio.DecodeSegments(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != count {
		t.Fatalf("binary replay has %d segments, NDJSON had %d", len(segs), count)
	}
	if err := metrics.VerifyBound(tr, traj.Piecewise(segs), 40.03); err != nil {
		t.Error(err)
	}

	// Unknown device → 404.
	if resp, err = http.Get(segmentsURL(srv, "nobody")); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown device: status %d, want 404", resp.StatusCode)
	}
}

func TestDeviceSegmentsWithoutStore(t *testing.T) {
	srv := testServer(t, testMaxBody)
	resp, err := http.Get(segmentsURL(srv, "any"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404 when -data-dir is unset", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "-data-dir") {
		t.Errorf("response %q should point at -data-dir", b)
	}
}

// TestRestartServesIdenticalSegments is the acceptance test for the
// persistence tier: a server restarted mid-stream (graceful drain, new
// process over the same -data-dir) must serve byte-identical
// GET /devices/{id}/segments output to a server that stayed up, given
// the same uploads and flush points.
func TestRestartServesIdenticalSegments(t *testing.T) {
	const dev = "truck-17"
	tr := gen.One(gen.Truck, 600, 55)
	half := len(tr) / 2

	upload := func(srv *httptest.Server, pts traj.Trajectory) {
		t.Helper()
		body := binaryIngestBody([]string{dev}, []traj.Trajectory{pts})
		resp, err := http.Post(srv.URL+"/ingest", trajio.IngestContentType, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		if resp, err = http.Post(srv.URL+"/flush?device="+dev, "", nil); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	fetch := func(srv *httptest.Server, out string) []byte {
		t.Helper()
		resp, err := http.Get(segmentsURL(srv, dev) + out)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segments%s: status %d", out, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Run A: one server the whole way through.
	srvA, _ := persistentServer(t, t.TempDir())
	upload(srvA, tr[:half])
	upload(srvA, tr[half:])
	wantNDJSON := fetch(srvA, "")
	// Both halves were separate encoder sessions, so the log is not one
	// continuous polyline; SGB1 carries it as is, and must too after a
	// restart.
	wantSGB1 := fetch(srvA, "?out=sgb1")

	// Run B: same uploads, but the server restarts between them.
	dirB := t.TempDir()
	srvB1, shutdownB1 := persistentServer(t, dirB)
	upload(srvB1, tr[:half])
	shutdownB1()
	srvB2, _ := persistentServer(t, dirB)
	upload(srvB2, tr[half:])

	if got := fetch(srvB2, ""); !bytes.Equal(got, wantNDJSON) {
		t.Errorf("NDJSON replay differs after restart:\n got %d bytes\nwant %d bytes", len(got), len(wantNDJSON))
	}
	if got := fetch(srvB2, "?out=sgb1"); !bytes.Equal(got, wantSGB1) {
		t.Errorf("SGB1 replay differs after restart:\n got %d bytes\nwant %d bytes", len(got), len(wantSGB1))
	}
	if len(wantNDJSON) == 0 {
		t.Fatal("empty replay — test proved nothing")
	}
}

// TestEvictionPersists: with a store attached, an evicted session's
// trailing segments are in the log, not dropped.
func TestEvictionPersists(t *testing.T) {
	dir := t.TempDir()
	store, err := segstore.Open(segstore.Config{Dir: dir, Sync: segstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	clock := func() time.Time { return now }
	eng, err := stream.NewEngine(stream.Config{
		Zeta: 40, Sink: store, IdleAfter: time.Minute, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, store, nil, testMaxBody))
	defer srv.Close()
	defer store.Close()
	defer eng.Close()

	body := deviceCSV(map[string][]traj.Point{"idler": gen.One(gen.SerCar, 200, 56)})
	resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	now = now.Add(2 * time.Minute)
	if n := len(eng.EvictIdle()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	resp, err = http.Get(segmentsURL(srv, "idler"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay after eviction: status %d", resp.StatusCode)
	}
}

// TestIngestDeviceTooLong: a device ID beyond the stack-wide cap is a
// per-device 400, keeping the "accepted means persistable" invariant.
func TestIngestDeviceTooLong(t *testing.T) {
	srv := testServer(t, testMaxBody)
	long := strings.Repeat("x", stream.MaxDevice+1)
	body := "device,t_ms,x_m,y_m\n" + long + ",0,0,0\n"
	resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var out struct{ Failed map[string]string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Failed[long]; !ok {
		t.Fatalf("failed map %v missing the long device", out.Failed)
	}
}

// TestStatsReportsStoreCounters is the end-to-end acceptance test for
// the bounded storage tier: with a tiny handle cap and a tight per-device
// retention budget, real ingest traffic must surface nonzero
// handle-eviction and retention counters in GET /stats — and the replay
// endpoint must keep serving intact records from what retention left.
func TestStatsReportsStoreCounters(t *testing.T) {
	srv, _ := persistentServerCfg(t, segstore.Config{
		Dir:          t.TempDir(),
		Sync:         segstore.SyncNever,
		MaxOpenFiles: 1,   // 4 devices below → constant evict/reopen churn
		MaxFileSize:  256, // rotate early…
		MaxLogBytes:  512, // …and delete rotated files almost immediately
	})

	devs := []string{"fleet-a", "fleet-b", "fleet-c", "fleet-d"}
	presets := []gen.Preset{gen.Taxi, gen.Truck, gen.SerCar, gen.GeoLife}
	for i, dev := range devs {
		tr := gen.One(presets[i], 2000, uint64(70+i))
		// Several batches per device so appends interleave across devices
		// and the residency walk actually churns handles.
		for off := 0; off < len(tr); off += 500 {
			body := deviceCSV(map[string][]traj.Point{dev: tr[off : off+500]})
			resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %s: status %d", dev, resp.StatusCode)
			}
		}
	}
	resp, err := http.Post(srv.URL+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("GET /stats has no store block with -data-dir set")
	}
	if st.Store.Appends == 0 || st.Store.Segments == 0 || st.Store.Bytes == 0 {
		t.Fatalf("store counters empty: %+v", *st.Store)
	}
	if st.Store.HandleEvictions == 0 || st.Store.HandleMisses == 0 {
		t.Fatalf("no handle churn under MaxOpenFiles=1: %+v", *st.Store)
	}
	if st.Store.OpenHandles > 1 {
		t.Fatalf("%d open handles, cap 1: %+v", st.Store.OpenHandles, *st.Store)
	}
	if st.Store.DeletedFiles == 0 || st.Store.ReclaimedBytes == 0 {
		t.Fatalf("no retention activity under MaxLogBytes=512: %+v", *st.Store)
	}

	// Replay still serves clean NDJSON records from the retained suffix.
	for _, dev := range devs {
		resp, err := http.Get(segmentsURL(srv, dev))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("replay %s after retention: status %d", dev, resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		var count int
		for {
			var rec segmentRecord
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("replay %s: %v", dev, err)
			}
			count++
		}
		resp.Body.Close()
		if count == 0 {
			t.Fatalf("replay %s: no segments survived retention", dev)
		}
	}
}

// storeStats fetches GET /stats and returns the storage-tier block.
func storeStats(t *testing.T, srv *httptest.Server) segstore.Stats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("GET /stats has no store block with -data-dir set")
	}
	return *st.Store
}

// TestStatsReportsReadCache is the end-to-end acceptance test for the
// cached read path: with -read-cache-bytes set, repeating a window query
// and probing /at inside it are served from the decoded-read cache —
// nonzero hit counters in GET /stats, and not one more byte read from
// disk than the cold pass already paid for.
func TestStatsReportsReadCache(t *testing.T) {
	srv, _ := persistentServerCfg(t, segstore.Config{
		Dir:            t.TempDir(),
		Sync:           segstore.SyncNever,
		MaxFileSize:    4 << 10,
		ReadCacheBytes: 1 << 20,
	})
	const dev = "cached"
	tr := gen.One(gen.Taxi, 800, 55)
	ingestFlushed(t, srv, dev, tr)

	from, to := tr[len(tr)/3].T, tr[2*len(tr)/3].T
	u := fmt.Sprintf("%s?from=%d&to=%d", segmentsURL(srv, dev), from, to)
	status, cold := fetchRecords(t, u)
	if status != http.StatusOK || len(cold) == 0 {
		t.Fatalf("cold window query: status %d, %d records", status, len(cold))
	}
	st1 := storeStats(t, srv)
	if st1.ReadCacheMiss == 0 || st1.ReadBytes == 0 || st1.ReadCacheBytes == 0 {
		t.Fatalf("cold query left no cache state: %+v", st1)
	}

	status, warm := fetchRecords(t, u)
	if status != http.StatusOK || len(warm) != len(cold) {
		t.Fatalf("warm window query: status %d, %d records (cold %d)", status, len(warm), len(cold))
	}
	resp, err := http.Get(fmt.Sprintf("%s/devices/%s/at?t=%d", srv.URL, dev, (from+to)/2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/at inside the cached window: status %d", resp.StatusCode)
	}

	st2 := storeStats(t, srv)
	if st2.ReadCacheHits == 0 {
		t.Fatalf("repeat query never hit the cache: %+v", st2)
	}
	if st2.ReadBytes != st1.ReadBytes {
		t.Fatalf("repeat query read from disk: ReadBytes %d -> %d", st1.ReadBytes, st2.ReadBytes)
	}
	if st2.ReadCacheMiss != st1.ReadCacheMiss {
		t.Fatalf("repeat query missed: %d -> %d", st1.ReadCacheMiss, st2.ReadCacheMiss)
	}
}

// TestPprofSeparateMux: the -pprof listener serves net/http/pprof from
// the default mux, which the service mux never exposes — profiling and
// production traffic stay separable.
func TestPprofSeparateMux(t *testing.T) {
	pprofSrv := httptest.NewServer(http.DefaultServeMux)
	defer pprofSrv.Close()
	resp, err := http.Get(pprofSrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}

	srv := testServer(t, testMaxBody)
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("service mux exposes /debug/pprof; it must stay on the -pprof listener")
	}
}

// TestCompactLoop: the -compact-every sweep reaches cold devices — logs
// written by an earlier process that the background retention pass never
// visits because nothing touches them in this one.
func TestCompactLoop(t *testing.T) {
	dir := t.TempDir()
	writer, err := segstore.Open(segstore.Config{Dir: dir, Sync: segstore.SyncNever, MaxFileSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]traj.Segment, 64)
	tr := gen.One(gen.Taxi, 128, 91)
	for i := range segs {
		segs[i] = traj.Segment{Start: tr[i], End: tr[i+1], StartIdx: i, EndIdx: i + 1}
	}
	for i := 0; i < 8; i++ { // force several rotated files
		if err := writer.Append("cold-truck", segs); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	// New process: the device is never touched, only the sweep can see it.
	store, err := segstore.Open(segstore.Config{
		Dir: dir, Sync: segstore.SyncNever, MaxFileSize: 256, MaxLogBytes: 512,
		SyncEvery: time.Hour, // keep the store's own pass out of the picture
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); compactLoop(ctx, store, 5*time.Millisecond) }()
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().DeletedFiles == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if st := store.Stats(); st.DeletedFiles == 0 || st.ReclaimedBytes == 0 {
		t.Fatalf("compact loop reclaimed nothing from a cold over-budget device: %+v", st)
	}
	if segs, err := store.Replay("cold-truck"); err != nil || len(segs) == 0 {
		t.Fatalf("replay after sweep: %d segments, err %v", len(segs), err)
	}
}

// TestStatsReportsSinkQueue: the async pipeline's counters appear in
// GET /stats so operators can see backpressure building.
func TestStatsReportsSinkQueue(t *testing.T) {
	srv, shutdown := persistentServer(t, t.TempDir())
	body := deviceCSV(map[string][]traj.Point{"q-dev": gen.One(gen.Taxi, 500, 93)})
	resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sink_queued", "sink_blocked", "sink_sweeps", "sink_sweep_batches"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("GET /stats missing %q", key)
		}
	}
	shutdown()
}

// TestIngestBinaryEmptyFrame: a frame with point count 0 registers no
// device — same as the whole-buffer decoder's per-point path — so an
// all-empty body takes the no-op branch.
func TestIngestBinaryEmptyFrame(t *testing.T) {
	srv := testServer(t, testMaxBody)
	b := trajio.AppendIngestHeader(nil)
	b = trajio.AppendIngestBatch(b, "ghost", nil)
	resp, err := http.Post(srv.URL+"/ingest", trajio.IngestContentType, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["devices"] != float64(0) || got["points"] != float64(0) {
		t.Fatalf("empty frame registered a device: %v", got)
	}
}

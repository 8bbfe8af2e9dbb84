// Command trajserve is the cloud side of the paper's motivating
// deployment: an HTTP ingestion service that compresses trajectories with
// any registered algorithm — one-shot via /compress, or live via /ingest,
// which multiplexes thousands of concurrent per-device encoder sessions
// over a sharded streaming engine.
//
// Usage:
//
//	trajserve -addr :8080 -zeta 40 -aggressive -shards 16 -idle 5m \
//	          -data-dir /var/lib/trajsim -fsync interval \
//	          -max-open-files 1024 -retention-bytes 268435456 -retention-age 720h \
//	          -read-cache-bytes 67108864 \
//	          -sink-writers 4 -sink-queue 256 \
//	          -max-sessions 100000 -device-rate 100 -queue-watermark 0.9 \
//	          -shutdown-timeout 10s -compact-every 1h -pprof localhost:6060
//
// Endpoints:
//
//	GET  /healthz                  JSON readiness: status ok/degraded/
//	     draining plus poisoned_logs and sink_queued. 503 while
//	     draining (stop routing here); degraded — quarantined device
//	     logs or a sink queue past its watermark — stays 200
//	GET  /algorithms               registered algorithm names (text)
//	GET  /stats                    streaming-engine counters (JSON)
//	POST /compress?algo=OPERB-A&zeta=40&format=csv&clean=4&out=binary
//	     body: trajectory CSV (t_ms,x_m,y_m with header)
//	     out=csv    → simplified trajectory CSV (default)
//	     out=binary → compact binary piecewise encoding
//	     response headers carry X-Segments, X-Points, X-Ratio, X-Max-Error
//	POST /ingest?out=segments
//	     body: point batches for any number of devices — CSV
//	     (device,t_ms,x_m,y_m with header), NDJSON
//	     ({"device":"d1","t_ms":0,"x_m":1.5,"y_m":2.5} per line, selected
//	     by a JSON Content-Type), or the compact binary wire format
//	     (Content-Type: application/x-trajsim-binary, built with
//	     trajsim.AppendIngestHeader/AppendIngestBatch). Device batches
//	     commit independently: per-device failures (e.g. unordered
//	     timestamps) are reported in a "failed" map while the rest
//	     ingest; the request only fails wholesale when every device
//	     does. Default response is a JSON summary; out=segments returns
//	     finalized segments as NDJSON.
//	POST /flush?device=ID&out=segments
//	     finalize one device session (404 if unknown) or, without
//	     device=, every live session.
//	GET  /devices/{device}/segments?from=&to=&out=sgb1
//	     replay the device's persisted segment log (requires -data-dir)
//	     as NDJSON, or as the gap-safe binary segment-batch encoding
//	     with out=sgb1 (the piecewise encoding of /compress?out=binary
//	     welds every Start to the previous End, so it cannot carry a log
//	     spanning several encoder sessions and is not offered here;
//	     out=binary is a 400). from/to (unix ms, inclusive) restrict
//	     the reply to segments overlapping the range, answered via the
//	     store's time index — seeks, not a log scan; a ranged query with
//	     no matches is an empty 200, not a 404, and an inverted range
//	     (from > to) is a 400.
//	GET  /devices/{device}/at?t=
//	     position-at-time: binary-searches the time index for the
//	     persisted segment covering t and interpolates along it — the
//	     paper's where-was-it-at-t query. 404 when t falls before,
//	     after, or in a gap of the device's history.
//	GET  /devices/{device}/tail
//	     server-sent-events long poll: one "segments" event per
//	     finalized batch, emitted only after the segment store accepted
//	     it. A slow client gets a "lagged" event and the stream ends
//	     (resume via /segments?from=). -tail-buffer sizes the
//	     per-subscriber buffer.
//
// With -data-dir every finalized segment — from ingest, flush, idle
// eviction and shutdown alike — is also appended to a crash-recoverable
// per-device log (internal/segstore); -fsync picks the durability/latency
// trade-off (interval, always, never). Disk writes happen on an async
// per-device-ordered sink pipeline, outside the ingest critical section:
// -sink-writers and -sink-queue size it, and a full queue blocks ingest
// until the disk catches up (blocked enqueues are counted in /stats).
// Each writer drains its backlog in sweeps — everything immediately
// queued, across devices, capped at -sink-sweep segments — writing one
// merged append per device and settling the whole sweep with one commit,
// at most one fsync per dirty file, so under -fsync=always a backlog of
// K devices × M batches costs at most K fsyncs. -compact-every runs
// a periodic full-disk retention sweep that also reaches cold devices;
// -pprof serves net/http/pprof on a separate listener for live
// profiling. The store is resource-bounded:
// -max-open-files caps how many device logs hold an open file descriptor
// (cold logs are transparently closed and reopened), and -retention-bytes /
// -retention-age bound each device's log on disk by deleting whole
// rotated files oldest-first. Reads (/segments, /at, /tail resume)
// run concurrently with ingest — queries snapshot the log and decode
// outside its lock — and are served from a byte-budgeted segment cache
// (24 bytes a cached segment) sized by -read-cache-bytes (0 disables
// it): a repeated window or position probe does no disk I/O at all.
// GET /stats reports the storage tier's counters (appends, bytes,
// handle hits/misses/evictions, read-cache hits/misses/resident bytes,
// bytes reclaimed, files deleted) under "store" alongside the engine's.
// Request bodies are capped at -max-body bytes; larger uploads get 413.
//
// Overload behavior: -device-rate/-device-burst enforce a per-device
// token-bucket rate limit, -max-sessions caps live sessions (with
// -shed, the default, the coldest session is flushed durably to admit a
// new device instead of rejecting it), and -queue-watermark rejects NEW
// devices while the sink queue is past that fraction of its capacity.
// Every admission rejection is a 429 whose Retry-After header says when
// retrying can succeed — the token-refill time, or the queue backlog
// over its measured drain rate.
//
// SIGINT/SIGTERM drain in-flight requests and flush all live sessions
// into the store; during the drain new ingest gets 503 + Retry-After
// and /healthz turns 503/draining. -shutdown-timeout bounds each
// shutdown phase so a wedged disk cannot hang the process forever —
// on timeout the crash-recoverable log replays the acknowledged prefix
// at next start.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // -pprof: profiling endpoints on their own listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trajsim/internal/algo"
	"trajsim/internal/metrics"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxBody    = flag.Int64("max-body", 64<<20, "request body cap in bytes (413 beyond)")
		zeta       = flag.Float64("zeta", 40, "error bound ζ in meters for /ingest sessions")
		aggressive = flag.Bool("aggressive", true, "use OPERB-A (vs OPERB) for /ingest sessions")
		shards     = flag.Int("shards", stream.DefaultShards, "session-map shards for /ingest")
		clean      = flag.Int("ingest-clean", 0, "per-session cleaner reorder window (0 = off)")
		idle       = flag.Duration("idle", 5*time.Minute, "evict /ingest sessions idle this long; without -data-dir their trailing segments are logged and DROPPED (0 = never evict)")
		dataDir    = flag.String("data-dir", "", "persist finalized segments to per-device logs under this directory (empty = in-memory only)")
		fsync      = flag.String("fsync", "interval", "segment-log fsync policy: interval, always, or never")
		maxOpen    = flag.Int("max-open-files", 0, "cap on simultaneously open segment-log file handles; cold device logs are transparently closed and reopened (0 = store default)")
		retBytes   = flag.Int64("retention-bytes", 0, "per-device segment-log disk budget; rotated files are deleted oldest-first beyond it (0 = keep everything)")
		retAge     = flag.Duration("retention-age", 0, "delete rotated segment-log files whose last append is older than this (0 = keep everything)")
		readCache  = flag.Int64("read-cache-bytes", segstore.DefaultReadCacheBytes, "byte budget for the segment-read cache serving /segments and /at, which holds a cached segment in 24 bytes (0 = no caching)")

		sinkWriters = flag.Int("sink-writers", 0, "goroutines draining the async segment-sink queue (0 = engine default)")
		sinkQueue   = flag.Int("sink-queue", 0, "per-writer sink queue depth in batches (0 = engine default)")
		sinkSweep   = flag.Int("sink-sweep", 0, "max segments one sink-writer sweep folds into a single cross-device group commit (0 = engine default)")

		tailBuffer = flag.Int("tail-buffer", 0, "per-subscriber /devices/{id}/tail buffer in batches; a client that falls further behind is disconnected with a lagged event (0 = default)")

		maxSessions    = flag.Int("max-sessions", 0, "cap on live ingest sessions (0 = unlimited)")
		shed           = flag.Bool("shed", true, "at -max-sessions, shed the coldest session (flushed durably into the store) to admit the new device instead of rejecting it")
		deviceRate     = flag.Float64("device-rate", 0, "per-device ingest rate limit in points/sec; over-rate batches get 429 with Retry-After (0 = unlimited)")
		deviceBurst    = flag.Float64("device-burst", 0, "token-bucket burst in points for -device-rate (0 = one second of rate)")
		queueWatermark = flag.Float64("queue-watermark", 0.9, "sink-queue pressure fraction beyond which new devices get 429 with Retry-After while existing sessions keep flowing (0 = disabled)")

		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "bound on each graceful-shutdown phase (HTTP drain, then session flush + sink-queue drain); on timeout the process exits and the crash-recoverable log replays the acknowledged prefix on restart")

		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
		compactEvery = flag.Duration("compact-every", 0, "run a full-disk retention sweep (Store.CompactNow) on this period, covering cold devices the background pass never visits (0 = disabled)")
	)
	flag.Parse()

	var store *segstore.Store
	if *dataDir != "" {
		policy, err := segstore.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trajserve:", err)
			os.Exit(1)
		}
		var err2 error
		store, err2 = segstore.Open(segstore.Config{
			Dir:            *dataDir,
			Sync:           policy,
			MaxOpenFiles:   *maxOpen,
			MaxLogBytes:    *retBytes,
			MaxLogAge:      *retAge,
			ReadCacheBytes: *readCache,
		})
		if err2 != nil {
			fmt.Fprintln(os.Stderr, "trajserve:", err2)
			os.Exit(1)
		}
	}

	evictEvery := *idle / 4
	if evictEvery < time.Second {
		evictEvery = time.Second
	}
	cfg := stream.Config{
		Zeta:           *zeta,
		Aggressive:     *aggressive,
		Shards:         *shards,
		CleanWindow:    *clean,
		IdleAfter:      *idle,
		EvictEvery:     evictEvery,
		SinkWriters:    *sinkWriters,
		SinkQueue:      *sinkQueue,
		SinkSweep:      *sinkSweep,
		MaxSessions:    *maxSessions,
		ShedSessions:   *shed,
		DeviceRate:     *deviceRate,
		DeviceBurst:    *deviceBurst,
		QueueWatermark: *queueWatermark,
		OnEvict: func(dev string, segs []traj.Segment) {
			log.Printf("evicted idle session %s (%d trailing segments)", dev, len(segs))
		},
	}
	var tails *tailHub
	if store != nil {
		cfg.Sink = store
		tails = newTailHub(*tailBuffer)
		cfg.OnSink = tails.publish
	}
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajserve:", err)
		os.Exit(1)
	}

	h := newHandler(eng, store, tails, *maxBody)
	srv := &http.Server{Addr: *addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// The service mux never exposes /debug/pprof; the profiler lives on
		// its own listener (typically bound to localhost) so production
		// traffic and diagnostics can be firewalled apart.
		go func() {
			log.Printf("trajserve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("trajserve: pprof: %v", err)
			}
		}()
	}
	if *compactEvery > 0 && store != nil {
		go compactLoop(ctx, store, *compactEvery)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	persistence := "no persistence"
	if store != nil {
		persistence = fmt.Sprintf("segment logs in %s, fsync=%s", *dataDir, *fsync)
		if *retBytes > 0 || *retAge > 0 {
			persistence += fmt.Sprintf(", retention %dB/%s per device", *retBytes, *retAge)
		}
	}
	log.Printf("trajserve listening on %s (ζ=%g m, %d shards, %s)", *addr, *zeta, *shards, persistence)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "trajserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Printf("trajserve: shutting down")
	// New ingest gets an immediate 503 + Retry-After instead of racing
	// the closing listener; in-flight requests drain below.
	h.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("trajserve: shutdown: %v", err)
	}
	// Bound the session flush + sink-queue drain too: a wedged disk must
	// not hang shutdown forever. On timeout the store is left unclosed on
	// purpose — closing it would race the still-draining writers, and the
	// segment log recovers the acknowledged prefix on restart regardless.
	done := make(chan int, 1)
	go func() { done <- len(eng.Close()) }()
	select {
	case n := <-done:
		log.Printf("trajserve: flushed %d live sessions", n)
		if store != nil {
			// After eng.Close, so every trailing segment is in the log.
			if err := store.Close(); err != nil {
				log.Printf("trajserve: segment store: %v", err)
			}
		}
	case <-time.After(*shutdownTimeout):
		log.Printf("trajserve: shutdown timeout (%s) with the sink queue still draining; exiting — the log replays the acknowledged prefix on restart", *shutdownTimeout)
	}
}

// compactLoop runs a full-disk retention sweep on every tick until ctx
// is done — the -compact-every flag. The store's own background pass
// only visits logs touched in this process; the sweep also reaches cold
// devices from earlier runs.
func compactLoop(ctx context.Context, store *segstore.Store, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := store.CompactNow(); err != nil && !errors.Is(err, segstore.ErrClosed) {
				log.Printf("trajserve: compact: %v", err)
			}
		}
	}
}

// server carries the shared state of the HTTP handlers.
type server struct {
	eng     *stream.Engine
	store   *segstore.Store // nil without -data-dir
	tails   *tailHub        // nil without -data-dir
	maxBody int64
	mux     *http.ServeMux

	// draining is set when graceful shutdown begins: new ingest gets
	// 503 + Retry-After instead of racing the closing listener, and
	// /healthz flips to draining so load balancers stop routing here.
	draining atomic.Bool
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// newHandler builds the service mux; separated from main for testing.
func newHandler(eng *stream.Engine, store *segstore.Store, tails *tailHub, maxBody int64) *server {
	s := &server{eng: eng, store: store, tails: tails, maxBody: maxBody}
	mux := http.NewServeMux()
	s.mux = mux
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /algorithms", func(w http.ResponseWriter, _ *http.Request) {
		for _, a := range algo.All() {
			fmt.Fprintln(w, a.Name)
		}
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /compress", s.handleCompress)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /flush", s.handleFlush)
	mux.HandleFunc("GET /devices/{device}/segments", s.handleDeviceSegments)
	mux.HandleFunc("GET /devices/{device}/at", s.handleDeviceAt)
	mux.HandleFunc("GET /devices/{device}/tail", s.handleDeviceTail)
	return s
}

// handleHealthz is the readiness probe: a JSON status plus the signals
// an operator needs when it is not "ok". Draining is a 503 — stop
// routing here, the process is going away — while degraded (quarantined
// device logs, or a sink queue past its pressure watermark) stays 200:
// the service still serves, the flag is the advance warning before
// clients start seeing 429s.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var poisoned int64
	if s.store != nil {
		poisoned = s.store.Stats().PoisonedLogs
	}
	status, code := "ok", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case poisoned > 0 || s.eng.Overloaded():
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":        status,
		"poisoned_logs": poisoned,
		"sink_queued":   s.eng.Stats().SinkQueued,
	})
}

// bodyErr maps a request-body read failure to its HTTP status: 413 when
// the MaxBytesReader cap was hit, 400 otherwise.
func bodyErr(w http.ResponseWriter, err error, context string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, context+": "+err.Error(), http.StatusBadRequest)
}

func (s *server) handleCompress(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	algoName := q.Get("algo")
	if algoName == "" {
		algoName = "OPERB"
	}
	a, err := algo.Get(algoName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	zeta := 40.0
	if s := q.Get("zeta"); s != "" {
		if zeta, err = strconv.ParseFloat(s, 64); err != nil {
			http.Error(w, "bad zeta: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	clean := 0
	if s := q.Get("clean"); s != "" {
		if clean, err = strconv.Atoi(s); err != nil || clean < 0 {
			http.Error(w, "bad clean window", http.StatusBadRequest)
			return
		}
	}

	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	t, _, err := trajio.ReadCSV(body, trajio.CSVOptions{Format: trajio.Planar, Header: true})
	if err != nil {
		bodyErr(w, err, "bad trajectory")
		return
	}
	if clean > 0 {
		t = traj.Clean(t, clean)
	}
	if err := t.Validate(); err != nil {
		http.Error(w, err.Error()+" (pass clean=N to repair)", http.StatusUnprocessableEntity)
		return
	}
	pw, err := a.Fn(t, zeta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	sum := metrics.Summarize(t, pw)
	w.Header().Set("X-Algorithm", a.Name)
	w.Header().Set("X-Points", strconv.Itoa(sum.Points))
	w.Header().Set("X-Segments", strconv.Itoa(sum.Segments))
	w.Header().Set("X-Ratio", strconv.FormatFloat(sum.Ratio, 'f', 6, 64))
	w.Header().Set("X-Max-Error", strconv.FormatFloat(sum.MaxError, 'f', 3, 64))

	switch q.Get("out") {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := trajio.WriteCSV(w, pw.Decode(), trajio.CSVOptions{Format: trajio.Planar, Header: true}); err != nil {
			log.Printf("compress: write: %v", err)
		}
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(trajio.AppendPiecewise(nil, pw)); err != nil {
			log.Printf("compress: write: %v", err)
		}
	default:
		http.Error(w, "unknown out format (csv, binary)", http.StatusBadRequest)
	}
}

// batch is the parsed upload of one /ingest request: per-device point
// batches in arrival order. Batches are pooled — getBatch/release reuse
// the order slice, the device map, and the point slices across requests,
// so the steady-state parse path allocates only what the request's shape
// forces (new devices, growth past any previous request).
type batch struct {
	order  []string
	points map[string][]traj.Point
	spare  [][]traj.Point // emptied point slices awaiting reuse
}

var batchPool = sync.Pool{New: func() any {
	return &batch{points: make(map[string][]traj.Point)}
}}

func getBatch() *batch { return batchPool.Get().(*batch) }

// release returns the batch's buffers to the pool. The caller must be
// done with every point slice handed out via points.
func (b *batch) release() {
	for dev, pts := range b.points {
		b.spare = append(b.spare, pts[:0])
		delete(b.points, dev)
	}
	b.order = b.order[:0]
	batchPool.Put(b)
}

func (b *batch) add(device string, p traj.Point) {
	pts, seen := b.points[device]
	if !seen {
		b.order = append(b.order, device)
		if n := len(b.spare); n > 0 {
			pts, b.spare = b.spare[n-1], b.spare[:n-1]
		}
	}
	b.points[device] = append(pts, p)
}

// addAll merges one decoded point chunk — the streaming binary decoder's
// callback, which reuses its slice, so the points are copied in. An
// empty chunk registers nothing: a frame with point count 0 must not
// create a device entry, matching the per-point whole-buffer path.
func (b *batch) addAll(device string, pts []traj.Point) error {
	if len(pts) == 0 {
		return nil
	}
	cur, seen := b.points[device]
	if !seen {
		b.order = append(b.order, device)
		if n := len(b.spare); n > 0 {
			cur, b.spare = b.spare[n-1], b.spare[:n-1]
		}
	}
	b.points[device] = append(cur, pts...)
	return nil
}

// ingestPoint is one NDJSON line of an /ingest body. Coordinate fields
// are pointers so a missing (or, with DisallowUnknownFields, misnamed)
// key is a 400, not a silent zero-filled point.
type ingestPoint struct {
	Device string   `json:"device"`
	T      *int64   `json:"t_ms"`
	X      *float64 `json:"x_m"`
	Y      *float64 `json:"y_m"`
}

func parseNDJSON(r io.Reader) (*batch, error) {
	b := getBatch()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for line := 1; ; line++ {
		var p ingestPoint
		if err := dec.Decode(&p); err == io.EOF {
			return b, nil
		} else if err != nil {
			b.release()
			return nil, fmt.Errorf("record %d: %w", line, err)
		}
		if p.Device == "" {
			b.release()
			return nil, fmt.Errorf("record %d: missing device", line)
		}
		if p.T == nil || p.X == nil || p.Y == nil {
			b.release()
			return nil, fmt.Errorf("record %d: missing t_ms/x_m/y_m", line)
		}
		b.add(p.Device, traj.At(*p.X, *p.Y, *p.T))
	}
}

func parseDeviceCSV(r io.Reader) (*batch, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if header[0] != "device" || header[1] != "t_ms" || header[2] != "x_m" || header[3] != "y_m" {
		return nil, fmt.Errorf("header %q: want device,t_ms,x_m,y_m", strings.Join(header, ","))
	}
	b := getBatch()
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return b, nil
		} else if err != nil {
			b.release()
			return nil, err
		}
		if rec[0] == "" {
			b.release()
			return nil, fmt.Errorf("line %d: missing device", line)
		}
		t, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			b.release()
			return nil, fmt.Errorf("line %d: t_ms: %w", line, err)
		}
		x, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			b.release()
			return nil, fmt.Errorf("line %d: x_m: %w", line, err)
		}
		y, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			b.release()
			return nil, fmt.Errorf("line %d: y_m: %w", line, err)
		}
		b.add(rec[0], traj.At(x, y, t))
	}
}

// segmentRecord is one NDJSON line of an out=segments response.
type segmentRecord struct {
	Device string  `json:"device"`
	T1     int64   `json:"t1_ms"`
	X1     float64 `json:"x1_m"`
	Y1     float64 `json:"y1_m"`
	T2     int64   `json:"t2_ms"`
	X2     float64 `json:"x2_m"`
	Y2     float64 `json:"y2_m"`
	Points int     `json:"points"`
}

func newSegmentRecord(device string, s traj.Segment) segmentRecord {
	return segmentRecord{
		Device: device,
		T1:     s.Start.T, X1: s.Start.X, Y1: s.Start.Y,
		T2: s.End.T, X2: s.End.X, Y2: s.End.Y,
		Points: s.PointCount(),
	}
}

func writeSegments(w io.Writer, device string, segs []traj.Segment) error {
	enc := json.NewEncoder(w)
	for _, s := range segs {
		if err := enc.Encode(newSegmentRecord(device, s)); err != nil {
			return err
		}
	}
	return nil
}

// parseBinary decodes the compact binary ingest wire format, streaming:
// the body is consumed chunk by chunk through the decoder's fixed pooled
// buffer, never materialized whole — a large upload costs the memory of
// its parsed points, not of its bytes too.
func parseBinary(r io.Reader) (*batch, error) {
	b := getBatch()
	if err := trajio.DecodeIngestStream(r, b.addAll); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shutting down; retry against another instance", http.StatusServiceUnavailable)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	var (
		b   *batch
		err error
	)
	switch ct := r.Header.Get("Content-Type"); {
	case strings.Contains(ct, trajio.IngestContentType):
		b, err = parseBinary(body)
	case strings.Contains(ct, "json"):
		b, err = parseNDJSON(body)
	default:
		b, err = parseDeviceCSV(body)
	}
	if err != nil {
		bodyErr(w, err, "bad ingest body")
		return
	}
	defer b.release()

	// An empty (but well-formed) body is a no-op, not a failure — and it
	// must not reach the all-failed branch below, whose status would be
	// unset.
	if len(b.order) == 0 {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"devices": 0, "points": 0, "segments": 0})
		return
	}

	wantSegments := r.URL.Query().Get("out") == "segments"
	// Device batches commit independently (bulk semantics): one device's
	// rejection must not block the others — and must not poison a client
	// retry of the whole body, since the accepted devices are reported.
	// All ingests run before anything is written so a whole-batch failure
	// can still set the response status.
	var points, segments int
	var results map[string][]traj.Segment
	if wantSegments {
		results = make(map[string][]traj.Segment, len(b.order))
	}
	failed := make(map[string]string)
	worst := 0
	var retryAfter time.Duration // largest advice among overloaded devices
	for _, dev := range b.order {
		pts := b.points[dev]
		var (
			segs []traj.Segment
			err  error
		)
		if wantSegments {
			// IngestAppend copies under the engine's shard lock: a private
			// snapshot a concurrent request for the same device cannot
			// overwrite while we hold it for the response.
			segs, err = s.eng.IngestAppend(dev, pts, nil)
		} else {
			// Only len(segs) is read below, which is safe on the engine's
			// reusable out-buffer.
			segs, err = s.eng.Ingest(dev, pts)
		}
		if err != nil {
			status := http.StatusInternalServerError
			var oe *stream.OverloadError
			switch {
			case errors.As(err, &oe):
				// Rate-limited or queue-pressure rejection: the engine
				// says exactly when retrying can succeed.
				status = http.StatusTooManyRequests
				if oe.RetryAfter > retryAfter {
					retryAfter = oe.RetryAfter
				}
			case errors.Is(err, stream.ErrSessionLimit):
				status = http.StatusTooManyRequests
			case errors.Is(err, stream.ErrClosed):
				status = http.StatusServiceUnavailable
			case errors.Is(err, stream.ErrNoDevice), errors.Is(err, stream.ErrDeviceTooLong):
				status = http.StatusBadRequest
			case errors.Is(err, stream.ErrTimeOrder):
				// Mirrors /compress rejecting unordered uploads with 422.
				status = http.StatusUnprocessableEntity
				err = fmt.Errorf("%w (start the server with -ingest-clean=N to repair)", err)
			}
			failed[dev] = err.Error()
			if status > worst {
				worst = status
			}
			continue
		}
		points += len(pts)
		segments += len(segs)
		if wantSegments {
			results[dev] = segs // already a private copy (IngestAppend)
		}
	}
	// Only when every device failed does the request itself fail.
	if len(failed) == len(b.order) {
		if worst == http.StatusTooManyRequests && retryAfter > 0 {
			// Retry-After is whole seconds; round up so the client never
			// retries before the engine said it could succeed.
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(worst)
		json.NewEncoder(w).Encode(map[string]any{"failed": failed})
		return
	}
	if wantSegments {
		// Failed devices appear in the NDJSON stream as error records.
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, dev := range b.order {
			if msg, ok := failed[dev]; ok {
				if err := enc.Encode(map[string]string{"device": dev, "error": msg}); err != nil {
					log.Printf("ingest: write: %v", err)
					return
				}
				continue
			}
			if err := writeSegments(w, dev, results[dev]); err != nil {
				log.Printf("ingest: write: %v", err)
				return
			}
		}
		return
	}
	resp := map[string]any{
		"devices":  len(b.order) - len(failed),
		"points":   points,
		"segments": segments,
	}
	if len(failed) > 0 {
		resp["failed"] = failed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleFlush finalizes one device's session, or every live session,
// and answers once their tails are committed. A tail the sink lost
// answers 500, naming the devices.
func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	wantSegments := r.URL.Query().Get("out") == "segments"
	if dev := r.URL.Query().Get("device"); dev != "" {
		segs, err := s.eng.Flush(dev)
		if errors.Is(err, stream.ErrNoSession) {
			http.Error(w, "no live session for device "+dev, http.StatusNotFound)
			return
		}
		if err != nil {
			writeFlushError(w, err)
			return
		}
		if wantSegments {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := writeSegments(w, dev, segs); err != nil {
				log.Printf("flush: write: %v", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"devices": 1, "segments": len(segs)})
		return
	}
	tails, err := s.eng.FlushAll()
	if err != nil {
		writeFlushError(w, err)
		return
	}
	if wantSegments {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for dev, segs := range tails {
			if err := writeSegments(w, dev, segs); err != nil {
				log.Printf("flush: write: %v", err)
				return
			}
		}
		return
	}
	var segments int
	for _, segs := range tails {
		segments += len(segs)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"devices": len(tails), "segments": segments})
}

// writeFlushError answers a flush whose tails the sink lost: 500 with
// the error and the devices whose segments are not durable. The sink
// pipeline has already logged the loss, once per burst.
func writeFlushError(w http.ResponseWriter, err error) {
	resp := map[string]any{"error": err.Error()}
	var fe *stream.FlushError
	if errors.As(err, &fe) {
		resp["lost_devices"] = fe.Devices
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	json.NewEncoder(w).Encode(resp)
}

// queryMs parses an optional unix-ms query parameter, reporting whether
// it was present.
func queryMs(r *http.Request, key string) (int64, bool, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s: %w", key, err)
	}
	return v, true, nil
}

// handleDeviceSegments replays a device's persisted segment log — the
// read side of -data-dir. It serves only what the store holds: segments
// still inside a live encoder appear after the session flushes or is
// evicted. With from/to it becomes a range query over the store's time
// index: only the covering records are read, not the whole log.
func (s *server) handleDeviceSegments(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "persistence disabled: start trajserve with -data-dir", http.StatusNotFound)
		return
	}
	device := r.PathValue("device")
	from, haveFrom, err := queryMs(r, "from")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	to, haveTo, err := queryMs(r, "to")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// An inverted range is a caller bug (swapped parameters, bad clock
	// arithmetic): reject it instead of returning an empty 200 a client
	// cannot tell apart from "no data there".
	if haveFrom && haveTo && from > to {
		http.Error(w, fmt.Sprintf("inverted range: from=%d > to=%d", from, to), http.StatusBadRequest)
		return
	}
	// Reject a bad format before the log is read.
	out := r.URL.Query().Get("out")
	if out != "" && out != "segments" && out != "sgb1" {
		http.Error(w, "unknown out format (segments, sgb1)", http.StatusBadRequest)
		return
	}
	if !haveFrom {
		from = math.MinInt64
	}
	if !haveTo {
		to = math.MaxInt64
	}
	segs, err := s.store.ReplayRange(device, from, to)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, segstore.ErrDeviceID) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	// A full replay of an absent log is a 404; a ranged query that merely
	// matched nothing is an ordinary empty result.
	if len(segs) == 0 && !haveFrom && !haveTo {
		http.Error(w, "no persisted segments for device "+device, http.StatusNotFound)
		return
	}
	if out == "sgb1" {
		// The segment-batch encoding carries Start and End explicitly, so
		// it is closed under range filtering and holds a log spanning
		// several encoder sessions — what the welded piecewise encoding
		// of /compress cannot.
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(trajio.AppendSegments(nil, segs)); err != nil {
			log.Printf("devices/segments: write: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := writeSegments(w, device, segs); err != nil {
		log.Printf("devices/segments: write: %v", err)
	}
}

// handleDeviceAt is GET /devices/{device}/at?t=: the paper's
// where-was-it-at-t query, answered from the persisted piecewise
// representation by binary search over the time index plus interpolation
// along the covering segment.
func (s *server) handleDeviceAt(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "persistence disabled: start trajserve with -data-dir", http.StatusNotFound)
		return
	}
	device := r.PathValue("device")
	tms, have, err := queryMs(r, "t")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !have {
		http.Error(w, "missing t (unix ms)", http.StatusBadRequest)
		return
	}
	seg, err := s.store.SegmentAt(device, tms)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, segstore.ErrNoPosition):
			status = http.StatusNotFound
		case errors.Is(err, segstore.ErrDeviceID):
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	p := seg.At(tms)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(atAnswer{
		Device:  device,
		Segment: newSegmentRecord(device, seg),
		T:       tms,
		X:       p.X,
		Y:       p.Y,
	})
}

// atAnswer is the body of a /at answer. Its fields follow the sorted key
// order encoding/json gives a map, the form the answer first took, so
// the bytes are the same without a map to sort and values to box.
type atAnswer struct {
	Device  string        `json:"device"`
	Segment segmentRecord `json:"segment"`
	T       int64         `json:"t_ms"`
	X       float64       `json:"x_m"`
	Y       float64       `json:"y_m"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.eng.Stats())
}

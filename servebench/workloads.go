package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"trajsim/internal/gen"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

// zeta is trajserve's default error bound, used unchanged.
const zeta = 40.0

// spec is one workload's make-up. README.md gives the reasons for the
// numbers; BENCHMARK.json says why each workload exists.
type spec struct {
	name       string
	devices    int
	tilePoints int      // generated points per device before the stream repeats
	history    int      // points per device written before trajserve starts
	batch      int      // points per device batch
	perBody    int      // device batches per /ingest body (ingest-fleet)
	flags      []string // trajserve flags besides -addr and -data-dir
	// Open-loop rates: rounds of bodies per second (ingest-fleet), and
	// requests per second (mixed-live).
	roundRate, ingestRate, rangeRate, atRate float64
}

var specs = []spec{
	{
		name:       "ingest-fleet",
		devices:    2048,
		tilePoints: 256,
		batch:      16,
		perBody:    16,
		roundRate:  1,
		flags:      []string{"-fsync", "always"},
	},
	{
		name:       "query-hot",
		devices:    256,
		tilePoints: 512,
		history:    2048,
	},
	{
		name:       "mixed-live",
		devices:    256,
		tilePoints: 512,
		history:    4096,
		batch:      8,
		flags:      []string{"-read-cache-bytes", "1048576"},
		ingestRate: 150,
		rangeRate:  120,
		atRate:     120,
	},
}

// setupsPerRun is how many times an untraced run sets up; setup_s is
// the median. One set-up of these workloads takes 0.1–0.5 s and varies
// by ±20% from one to the next on a shared VM, and the first one or two
// of a run are often slower; the median of 15 costs 5–15 s a run.
const setupsPerRun = 15

func specNamed(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Operation types, counted per device batch (ingest) or per query.
const (
	opIngest = "ingest"
	opRange  = "range"
	opAt     = "at"
)

// lane is what one connection's goroutine records; lanes merge after
// the timed phase, so recording takes no lock.
type lane struct {
	attempted, failed map[string]int
	lat               map[string][]float64 // request latency, ms; from when it was due in the open loop
	svc               map[string][]float64 // request latency from when it was sent, ms
	late              []float64            // open loop: ms a request started after it was due
	ackPoints         int64
	answers           []answer
	arena             []byte // answer bodies, back to back
	errs              []string
}

func newLane() *lane {
	return &lane{attempted: map[string]int{}, failed: map[string]int{}, lat: map[string][]float64{}, svc: map[string][]float64{}}
}

// answer is one query and where its response body sits in the arena.
type answer struct {
	kind     string
	dev      int
	from, to int64 // range window; to is unused by /at, whose t is from
	lo, hi   int
}

func (l *lane) fail(op string, n int, format string, args ...any) {
	l.failed[op] += n
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// result is one run's measurements across both lanes.
type result struct {
	attempted, failed map[string]int
	lat               map[string][]float64
	svc               map[string][]float64
	late              []float64
	ackPoints         int64
	timed             float64   // seconds of the timed phase
	cpu               float64   // trajserve CPU seconds (user + system) in the timed phase
	steal             float64   // share of the machine's CPU time stolen by the hypervisor in the timed phase
	setupSteal        float64   // the same over the set-ups
	setups            []float64 // seconds, one per set-up
	readies           []float64 // seconds from each set-up's start until trajserve answered
	rss               float64   // trajserve VmHWM, MiB
	bytes             int64     // .seg and .idx bytes in the data dir at the end
	persisted         int64     // points ingested into the data dir, history included
	q                 quality
	checked           map[string]int
	errs              []string
	flags             []string
	rounds            int // ingest-fleet: timed rounds
}

func merge(lanes []*lane) *result {
	r := &result{attempted: map[string]int{}, failed: map[string]int{}, lat: map[string][]float64{}, svc: map[string][]float64{}, checked: map[string]int{}}
	for _, l := range lanes {
		for k, v := range l.attempted {
			r.attempted[k] += v
		}
		for k, v := range l.failed {
			r.failed[k] += v
		}
		for k, v := range l.lat {
			r.lat[k] = append(r.lat[k], v...)
		}
		for k, v := range l.svc {
			r.svc[k] = append(r.svc[k], v...)
		}
		r.late = append(r.late, l.late...)
		r.ackPoints += l.ackPoints
		r.errs = append(r.errs, l.errs...)
	}
	return r
}

// bench is one run of one workload.
type bench struct {
	spec
	seed    uint64
	dur     time.Duration
	bin     string // trajserve binary
	dir     string // this run's scratch directory
	setups  int    // set-ups to time; the last one carries the timed phase
	devs    []*device
	histEnd []int64 // per device: End time of its last history segment
	lanes   [2]*lane
	srv     *server
	dataDir string
}

// each runs fn once per connection, concurrently, and joins the errors.
func each(fn func(c int) error) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// dirBytes sums the sizes of the segment logs and index sidecars under
// dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".seg") || strings.HasSuffix(path, ".idx")) {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// serveStore and serveEngine configure the in-process store and engine
// as trajserve configures them for the workload's flags (its defaults
// plus -fsync and -read-cache-bytes, the only flags the workloads set).
func (b *bench) serveStore(dir string) (*segstore.Store, error) {
	cfg := segstore.Config{Dir: dir, ReadCacheBytes: segstore.DefaultReadCacheBytes}
	for i := 0; i+1 < len(b.flags); i += 2 {
		switch b.flags[i] {
		case "-fsync":
			p, err := segstore.ParseSyncPolicy(b.flags[i+1])
			if err != nil {
				return nil, err
			}
			cfg.Sync = p
		case "-read-cache-bytes":
			n, err := strconv.ParseInt(b.flags[i+1], 10, 64)
			if err != nil {
				return nil, err
			}
			cfg.ReadCacheBytes = n
		}
	}
	return segstore.Open(cfg)
}

func serveEngine(sink stream.Sink, onSink func(string, []traj.Segment)) (*stream.Engine, error) {
	return stream.NewEngine(stream.Config{
		Zeta:           zeta,
		Aggressive:     true,
		IdleAfter:      5 * time.Minute,
		EvictEvery:     5 * time.Minute / 4,
		QueueWatermark: 0.9,
		Sink:           sink,
		OnSink:         onSink,
	})
}

// writeHistory writes every device's first b.history points into a
// fresh data directory with the engine and store under test, before
// trajserve starts. It is set-up, not measured. It records where each
// device's persisted history ends: the encoder may fold the last few
// points into the final segment's line without moving its End, and /at
// answers 404 past End.
func (b *bench) writeHistory(dir string) error {
	store, err := b.serveStore(dir)
	if err != nil {
		return err
	}
	eng, err := serveEngine(store, nil)
	if err != nil {
		store.Close()
		return err
	}
	b.histEnd = make([]int64, len(b.devs))
	const chunk = 256
	buf := make([]traj.Point, 0, chunk)
	for i, d := range b.devs {
		for lo := 0; lo < b.history; lo += chunk {
			buf = d.points(buf[:0], lo, min(lo+chunk, b.history))
			segs, err := eng.Ingest(d.id, buf)
			if err != nil {
				eng.Close()
				store.Close()
				return fmt.Errorf("history %s: %w", d.id, err)
			}
			if n := len(segs); n > 0 {
				b.histEnd[i] = segs[n-1].End.T
			}
		}
		if segs, _ := eng.Flush(d.id); len(segs) > 0 {
			b.histEnd[i] = segs[len(segs)-1].End.T
		}
	}
	eng.Close()
	if n := eng.Stats().SinkErrors; n > 0 {
		store.Close()
		return fmt.Errorf("history: %d sink errors", n)
	}
	return store.Close()
}

// ingestReply is trajserve's JSON summary of one /ingest request.
type ingestReply struct {
	Points int               `json:"points"`
	Failed map[string]string `json:"failed"`
}

// firstContact sends batch 0 of every device in devs until trajserve has
// accepted all of them, honouring Retry-After: the queue watermark
// rejects only new devices, so doing this in set-up keeps it out of the
// timed phase. Bodies carry b.perBody devices (one per body for text).
func (b *bench) firstContact(c *conn, devs []*device, body func([]*device) ([]byte, string)) error {
	pending := devs
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt == 200 {
			return fmt.Errorf("first contact: %d devices still refused after %d attempts", len(pending), attempt)
		}
		payload, ctype := body(pending)
		status, hdr, resp, err := c.do("POST", "/ingest", ctype, payload)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			var rep ingestReply
			if err := json.Unmarshal(resp, &rep); err != nil {
				return fmt.Errorf("first contact: %w", err)
			}
			var refused []*device
			for _, d := range pending {
				if _, ok := rep.Failed[d.id]; ok {
					refused = append(refused, d)
				}
			}
			pending = refused
			if len(pending) > 0 {
				time.Sleep(100 * time.Millisecond)
			}
		case http.StatusTooManyRequests:
			secs, err := strconv.Atoi(hdr.Get("Retry-After"))
			if err != nil || secs < 1 {
				secs = 1
			}
			time.Sleep(time.Duration(secs) * time.Second)
		default:
			return fmt.Errorf("first contact: status %d: %s", status, resp)
		}
	}
	return nil
}

// binaryBody encodes batch k of each device as one TSB1 body.
func (b *bench) binaryBody(dst []byte, devs []*device, k int, pts []traj.Point) ([]byte, []traj.Point) {
	dst = trajio.AppendIngestHeader(dst[:0])
	for _, d := range devs {
		pts = d.points(pts[:0], k*b.batch, (k+1)*b.batch)
		dst = trajio.AppendIngestBatch(dst, d.id, pts)
	}
	return dst, pts
}

// textBody renders one device's points as a CSV or NDJSON /ingest body.
func textBody(dst []byte, ndjson bool, id string, pts []traj.Point) ([]byte, string) {
	dst = dst[:0]
	if !ndjson {
		dst = append(dst, "device,t_ms,x_m,y_m\n"...)
	}
	for _, p := range pts {
		if ndjson {
			dst = append(dst, `{"device":"`...)
			dst = append(dst, id...)
			dst = append(dst, `","t_ms":`...)
			dst = strconv.AppendInt(dst, p.T, 10)
			dst = append(dst, `,"x_m":`...)
			dst = strconv.AppendFloat(dst, p.X, 'f', -1, 64)
			dst = append(dst, `,"y_m":`...)
			dst = strconv.AppendFloat(dst, p.Y, 'f', -1, 64)
			dst = append(dst, "}\n"...)
			continue
		}
		dst = append(dst, id...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, p.T, 10)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, p.X, 'f', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, p.Y, 'f', -1, 64)
		dst = append(dst, '\n')
	}
	if ndjson {
		return dst, "application/x-ndjson"
	}
	return dst, "text/csv"
}

// groups splits the fleet into ingest bodies of b.perBody devices. Group
// g travels on connection g%2, so every device's batches stay in order
// on one connection.
func (b *bench) groups() [][]*device {
	var gs [][]*device
	for lo := 0; lo < len(b.devs); lo += b.perBody {
		gs = append(gs, b.devs[lo:min(lo+b.perBody, len(b.devs))])
	}
	return gs
}

// warmRounds is how many rounds of batches ingest-fleet's set-up sends:
// one, every device's first contact.
const warmRounds = 1

// ingestFleetSetup makes every device's first contact on a fresh
// trajserve, pacing bodies so that the sink queue stays below
// trajserve's new-device watermark, then waits for the queue to drain.
func (b *bench) ingestFleetSetup(conns [2]*conn) error {
	gs := b.groups()
	err := each(func(c int) error {
		var body []byte
		var pts []traj.Point
		for round := 0; round < warmRounds; round++ {
			for g := c; g < len(gs); g += 2 {
				if err := waitQueue(conns[c], 256); err != nil {
					return err
				}
				err := b.firstContact(conns[c], gs[g], func(devs []*device) ([]byte, string) {
					body, pts = b.binaryBody(body, devs, round, pts)
					return body, trajio.IngestContentType
				})
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return waitQueue(conns[0], 0)
}

// waitQueue polls /healthz until trajserve's sink queue holds at most
// limit batches.
func waitQueue(c *conn, limit int64) error {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		status, _, resp, err := c.do("GET", "/healthz", "", nil)
		if err != nil {
			return err
		}
		var h struct {
			Queued int64 `json:"sink_queued"`
		}
		if status != http.StatusOK || json.Unmarshal(resp, &h) != nil {
			return fmt.Errorf("healthz: status %d: %.200s", status, resp)
		}
		if h.Queued <= limit {
			return nil
		}
	}
	return errors.New("sink queue did not drain within 60 s")
}

// ingestFleetTimed is ingest-fleet's timed phase: b.roundRate rounds a
// second, each round one body per group, bodies evenly spaced and each
// timed from when it was due, for whole rounds filling the run length.
// A closing POST /flush, whose return makes every batch durable, ends
// the phase.
func (b *bench) ingestFleetTimed(conns [2]*conn) (float64, int, error) {
	gs := b.groups()
	rounds := int(b.roundRate * b.dur.Seconds())
	spacing := time.Duration(float64(time.Second) / (b.roundRate * float64(len(gs))))
	start := time.Now()
	err := each(func(c int) error {
		l := b.lanes[c]
		var body []byte
		var pts []traj.Point
		for r := 0; r < rounds; r++ {
			for g := c; g < len(gs); g += 2 {
				due := start.Add(time.Duration(r*len(gs)+g) * spacing)
				waitUntil(due)
				body, pts = b.binaryBody(body, gs[g], warmRounds+r, pts)
				n := len(gs[g])
				l.attempted[opIngest] += n
				sent := time.Now()
				l.late = append(l.late, float64(sent.Sub(due).Nanoseconds())/1e6)
				status, _, resp, err := conns[c].do("POST", "/ingest", trajio.IngestContentType, body)
				if err != nil {
					return err
				}
				l.lat[opIngest] = append(l.lat[opIngest], since(due))
				l.svc[opIngest] = append(l.svc[opIngest], since(sent))
				if status != http.StatusOK {
					l.fail(opIngest, n, "ingest: status %d: %.200s", status, resp)
					continue
				}
				var rep ingestReply
				if err := json.Unmarshal(resp, &rep); err != nil {
					return err
				}
				if len(rep.Failed) > 0 {
					l.fail(opIngest, len(rep.Failed), "ingest: %v", rep.Failed)
				}
				l.ackPoints += int64(rep.Points)
			}
		}
		return nil
	})
	if err != nil {
		return 0, rounds, err
	}
	status, _, resp, err := conns[0].do("POST", "/flush", "", nil)
	if err != nil {
		return 0, rounds, err
	}
	if status != http.StatusOK {
		return 0, rounds, fmt.Errorf("closing flush: status %d: %s", status, resp)
	}
	return time.Since(start).Seconds(), rounds, nil
}

// fleetPoints returns how many points each device receives in
// ingest-fleet: the set-up's rounds plus one batch per timed round.
func (b *bench) fleetPoints(rounds int) int {
	return b.batch * (warmRounds + rounds)
}

// replay fetches a device's whole persisted log as SGB1.
func replay(c *conn, id string) ([]traj.Segment, error) {
	status, _, resp, err := c.do("GET", "/devices/"+id+"/segments?out=sgb1", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("replay %s: status %d: %.200s", id, status, resp)
	}
	return trajio.DecodeSegments(resp)
}

// replays fetches every device's final replay over both connections.
func (b *bench) replays(conns [2]*conn) ([][]traj.Segment, error) {
	out := make([][]traj.Segment, len(b.devs))
	err := each(func(c int) error {
		for i := c; i < len(b.devs); i += 2 {
			segs, err := replay(conns[c], b.devs[i].id)
			if err != nil {
				return err
			}
			out[i] = segs
		}
		return nil
	})
	return out, err
}

// checkSessions checks every device's replay against the points it was
// sent: sessions[i] lists the point count of each encoder session of
// device i in log order.
func (b *bench) checkSessions(finals [][]traj.Segment, sessions func(i int) []int, r *result) error {
	var pts []traj.Point
	for i, d := range b.devs {
		got := splitSessions(finals[i])
		want := sessions(i)
		if len(got) != len(want) {
			return fmt.Errorf("device %s: %d sessions in the log, want %d", d.id, len(got), len(want))
		}
		lo := 0
		for k, n := range want {
			pts = d.points(pts[:0], lo, lo+n)
			if err := checkSession(pts, got[k], zeta, &r.q); err != nil {
				return fmt.Errorf("device %s session %d: %w", d.id, k, err)
			}
			lo += n
		}
	}
	r.checked["sessions"] = len(b.devs)
	return nil
}

// queryLane draws one connection's query stream: a seeded sequence of
// range windows and /at probes inside every device's history. Devices
// are Zipf-skewed (s = 1.1) over a seeded permutation when zipf is set,
// uniform otherwise. The permutation keeps each device's preset at its
// popularity rank (rank r is a device of preset r mod 4), so every seed
// queries the same preset mix at every level of heat.
type queryLane struct {
	r    *rand.Rand
	z    *rand.Zipf
	perm []int
	b    *bench
}

func (b *bench) newQueryLane(c int, zipf bool) *queryLane {
	r := rand.New(rand.NewPCG(b.seed, uint64(c)+0x51ed))
	q := &queryLane{r: r, b: b, perm: make([]int, len(b.devs))}
	// Devices are assigned presets round-robin (makeFleet), so shuffling
	// the indices within each residue class mod 4 keeps rank r's preset.
	np := len(gen.Presets)
	for p := 0; p < np; p++ {
		var idx []int
		for i := p; i < len(b.devs); i += np {
			idx = append(idx, i)
		}
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for k, i := range idx {
			q.perm[p+k*np] = i
		}
	}
	if zipf {
		q.z = rand.NewZipf(r, 1.1, 1, uint64(len(b.devs)-1))
	}
	return q
}

// next returns the next query: a range window of 8..127 points of
// history, or an /at probe at a time inside the persisted history.
func (q *queryLane) next() answer {
	var dev int
	if q.z != nil {
		dev = q.perm[q.z.Uint64()]
	} else {
		dev = q.r.IntN(len(q.b.devs))
	}
	d := q.b.devs[dev]
	if q.r.IntN(2) == 0 {
		n := 8 + q.r.IntN(120)
		i := q.r.IntN(q.b.history - n)
		return answer{kind: opRange, dev: dev, from: d.at(i).T, to: d.at(i + n).T}
	}
	t0, t1 := d.at(0).T, q.b.histEnd[dev]
	return answer{kind: opAt, dev: dev, from: t0 + q.r.Int64N(t1-t0+1)}
}

// path renders a query as its trajserve request path.
func (a answer) path(b *bench, sgb1 bool) string {
	id := b.devs[a.dev].id
	if a.kind == opAt {
		return "/devices/" + id + "/at?t=" + strconv.FormatInt(a.from, 10)
	}
	p := "/devices/" + id + "/segments?from=" + strconv.FormatInt(a.from, 10) + "&to=" + strconv.FormatInt(a.to, 10)
	if sgb1 {
		p += "&out=sgb1"
	}
	return p
}

// query sends one query on c and records it in l.
func (l *lane) query(c *conn, b *bench, a answer, sgb1 bool, due time.Time) error {
	l.attempted[a.kind]++
	sent := time.Now()
	from := sent
	if !due.IsZero() {
		l.late = append(l.late, float64(sent.Sub(due).Nanoseconds())/1e6)
		from = due
	}
	status, _, resp, err := c.do("GET", a.path(b, sgb1), "", nil)
	ms := since(from)
	if err != nil {
		return err
	}
	l.lat[a.kind] = append(l.lat[a.kind], ms)
	l.svc[a.kind] = append(l.svc[a.kind], since(sent))
	if status != http.StatusOK {
		l.fail(a.kind, 1, "%s: status %d: %.200s", a.kind, status, resp)
		return nil
	}
	a.lo = len(l.arena)
	l.arena = append(l.arena, resp...)
	a.hi = len(l.arena)
	l.answers = append(l.answers, a)
	return nil
}

// histMid is the middle of device i's persisted history in time. The
// middle point of the history can lie past it: on a straight road the
// encoder may fold thousands of trailing points into the last segment's
// line without moving its End.
func (b *bench) histMid(i int) int64 {
	t0 := b.devs[i].at(0).T
	return t0 + (b.histEnd[i]-t0)/2
}

// queryWarm is the query workloads' set-up after trajserve starts: one
// /at probe per device, the first touch that pays for lazy recovery and
// index load; with fill, also a whole replay per device so that every
// granule is cached before timing.
func (b *bench) queryWarm(conns [2]*conn, fill bool) error {
	return each(func(c int) error {
		for i := c; i < len(b.devs); i += 2 {
			d := b.devs[i]
			mid := b.histMid(i)
			status, _, resp, err := conns[c].do("GET", "/devices/"+d.id+"/at?t="+strconv.FormatInt(mid, 10), "", nil)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %s", d.id, status, resp)
			}
			if fill {
				if _, err := replay(conns[c], d.id); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// queryHotTimed is the closed loop of query-hot: each connection sends
// its next query after the previous reply, until the run length.
func (b *bench) queryHotTimed(conns [2]*conn) (float64, error) {
	start := time.Now()
	err := each(func(c int) error {
		q := b.newQueryLane(c, true)
		for time.Since(start) < b.dur {
			if err := b.lanes[c].query(conns[c], b, q.next(), true, time.Time{}); err != nil {
				return err
			}
		}
		return nil
	})
	return time.Since(start).Seconds(), err
}

// atReply is trajserve's JSON answer to /at.
type atReply struct {
	T   int64     `json:"t_ms"`
	X   float64   `json:"x_m"`
	Y   float64   `json:"y_m"`
	Seg segRecord `json:"segment"`
}

// segRecord is one NDJSON segment line of trajserve's replies.
type segRecord struct {
	T1     int64   `json:"t1_ms"`
	X1     float64 `json:"x1_m"`
	Y1     float64 `json:"y1_m"`
	T2     int64   `json:"t2_ms"`
	X2     float64 `json:"x2_m"`
	Y2     float64 `json:"y2_m"`
	Points int     `json:"points"`
}

func (s segRecord) segment() traj.Segment {
	return traj.Segment{Start: traj.At(s.X1, s.Y1, s.T1), End: traj.At(s.X2, s.Y2, s.T2), EndIdx: s.Points - 1}
}

// ndjsonForm reduces a segment to what an NDJSON reply carries.
func ndjsonForm(s traj.Segment) traj.Segment {
	return traj.Segment{Start: s.Start, End: s.End, EndIdx: s.PointCount() - 1}
}

func decodeNDJSON(b []byte) ([]traj.Segment, error) {
	var out []traj.Segment
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var rec segRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec.segment())
	}
	return out, nil
}

// checkAnswers checks every recorded query answer against the devices'
// final replays.
func (b *bench) checkAnswers(finals [][]traj.Segment, sgb1 bool, r *result) error {
	norm := finals
	if !sgb1 {
		norm = make([][]traj.Segment, len(finals))
		for i, f := range finals {
			norm[i] = make([]traj.Segment, len(f))
			for k, s := range f {
				norm[i][k] = ndjsonForm(s)
			}
		}
	}
	for _, l := range b.lanes {
		for _, a := range l.answers {
			body := l.arena[a.lo:a.hi]
			final := norm[a.dev]
			if a.kind == opAt {
				var rep atReply
				if err := json.Unmarshal(body, &rep); err != nil {
					return fmt.Errorf("at answer: %w", err)
				}
				if rep.T != a.from {
					return fmt.Errorf("at answer for t=%d names t=%d", a.from, rep.T)
				}
				if err := checkAt(final, a.from, rep.Seg.segment(), rep.X, rep.Y); err != nil {
					return fmt.Errorf("device %s: %w", b.devs[a.dev].id, err)
				}
				r.checked[opAt]++
				continue
			}
			var got []traj.Segment
			var err error
			if sgb1 {
				got, err = trajio.DecodeSegments(body)
			} else {
				got, err = decodeNDJSON(body)
			}
			if err != nil {
				return fmt.Errorf("range answer: %w", err)
			}
			if err := checkRange(overlapping(final, a.from, a.to), got); err != nil {
				return fmt.Errorf("device %s window [%d, %d]: %w", b.devs[a.dev].id, a.from, a.to, err)
			}
			r.checked[opRange]++
		}
	}
	return nil
}

// event is one open-loop request: due is its offset from the start of
// the timed phase.
type event struct {
	due   time.Duration
	q     answer // range or /at; kind is "" for ingest
	dev   int
	batch int // ingest: index of the device's live batch
	json  bool
}

// schedule lays out mixed-live's open loop for one connection: ingest,
// range and /at requests at fixed, evenly spaced rates, each device's
// requests on the connection dev%2. Ingest event k continues device
// k mod n with its next live batch.
func (b *bench) schedule(c int) []event {
	var evs []event
	n := len(b.devs)
	secs := b.dur.Seconds()
	for k := 0; k < int(b.ingestRate*secs); k++ {
		dev := k % n
		if dev%2 == c {
			evs = append(evs, event{due: time.Duration(float64(k) / b.ingestRate * 1e9), dev: dev, batch: 1 + k/n, json: k%2 == 1})
		}
	}
	q := b.newQueryLane(c, false)
	add := func(kind string, rate, phase float64) {
		for k := 0; k < int(rate*secs); k++ {
			a := q.next()
			for a.kind != kind || a.dev%2 != c {
				a = q.next()
			}
			evs = append(evs, event{due: time.Duration((float64(k) + phase) / rate * 1e9), q: a, dev: a.dev})
		}
	}
	add(opRange, b.rangeRate/2, 1.0/3)
	add(opAt, b.atRate/2, 2.0/3)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// liveBatches returns how many live batches device i receives in
// mixed-live, the set-up's first contact included.
func (b *bench) liveBatches(i int) int {
	n := len(b.devs)
	total := int(b.ingestRate * b.dur.Seconds())
	cnt := 1
	if total > i {
		cnt += (total - i + n - 1) / n
	}
	return cnt
}

// mixedSetup warms mixed-live: one /at probe per device (first touch),
// then each device's first live batch (first contact).
func (b *bench) mixedSetup(conns [2]*conn) error {
	if err := b.queryWarm(conns, false); err != nil {
		return err
	}
	return each(func(c int) error {
		var body []byte
		var pts []traj.Point
		for i := c; i < len(b.devs); i += 2 {
			d := b.devs[i]
			err := b.firstContact(conns[c], []*device{d}, func([]*device) ([]byte, string) {
				pts = d.points(pts[:0], b.history, b.history+b.batch)
				var ctype string
				body, ctype = textBody(body, false, d.id, pts)
				return body, ctype
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// waitUntil sleeps until t. Timers wake up to about a millisecond late
// on this host; the open loop charges that to the request, and the run
// reports it as lateness.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// mixedTimed runs mixed-live's open loop. Each request is timed from
// when it was due, so a stall also counts against the requests it
// delays; lateness records how far behind the generator ran.
func (b *bench) mixedTimed(conns [2]*conn) (float64, error) {
	scheds := [2][]event{b.schedule(0), b.schedule(1)}
	start := time.Now()
	var ends [2]time.Time
	err := each(func(c int) error {
		l := b.lanes[c]
		var body []byte
		var pts []traj.Point
		for _, ev := range scheds[c] {
			due := start.Add(ev.due)
			waitUntil(due)
			if ev.q.kind != "" {
				if err := l.query(conns[c], b, ev.q, false, due); err != nil {
					return err
				}
				continue
			}
			d := b.devs[ev.dev]
			lo := b.history + ev.batch*b.batch
			pts = d.points(pts[:0], lo, lo+b.batch)
			var ctype string
			body, ctype = textBody(body, ev.json, d.id, pts)
			l.attempted[opIngest]++
			sent := time.Now()
			l.late = append(l.late, float64(sent.Sub(due).Nanoseconds())/1e6)
			status, _, resp, err := conns[c].do("POST", "/ingest", ctype, body)
			ms := since(due)
			if err != nil {
				return err
			}
			l.lat[opIngest] = append(l.lat[opIngest], ms)
			l.svc[opIngest] = append(l.svc[opIngest], since(sent))
			if status != http.StatusOK {
				l.fail(opIngest, 1, "ingest: status %d: %.200s", status, resp)
				continue
			}
			var rep ingestReply
			if err := json.Unmarshal(resp, &rep); err != nil {
				return err
			}
			if len(rep.Failed) > 0 {
				l.fail(opIngest, 1, "ingest: %v", rep.Failed)
				continue
			}
			l.ackPoints += int64(rep.Points)
		}
		ends[c] = time.Now()
		return nil
	})
	end := ends[0]
	if ends[1].After(end) {
		end = ends[1]
	}
	return end.Sub(start).Seconds(), err
}

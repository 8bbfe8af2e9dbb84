package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"trajsim/internal/core"
	"trajsim/internal/segstore"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

// The traced run feeds the untraced HTTP run's inputs, at the same
// concurrency (two goroutines, each taking one connection's requests in
// order), through the public functions of the packages trajserve is made
// of, configured as trajserve configures them for the workload's flags.
// Every call is timed from here; nothing inside the program is
// instrumented. trajserve's own work — HTTP, CSV and NDJSON parsing,
// JSON encoding — is not called, and shows up only in the residuals.

// Span names.
const (
	spRequest    = "request"
	spDecode     = "trajio.DecodeIngestStream"
	spIngest     = "stream.Engine.Ingest"
	spFlush      = "stream.Engine.FlushAll"
	spAppend     = "segstore.Store.AppendNoSync"
	spCommit     = "segstore.Store.CommitDevices"
	spRange      = "segstore.Store.ReplayRange"
	spAt         = "segstore.Store.SegmentAt"
	spEncode     = "trajio.AppendSegments"
	spFirstTouch = "segstore.first_touch"
)

// span is one timed call. IDs are positions in the written span list;
// parent is -1 for a root, req is -1 outside a request.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory: one list per lane, written only by that
// lane's goroutine, and one shared list for the engine's sink writers,
// appended under mu during a pass and read once the engine has closed.
type tracer struct {
	on    bool
	t0    time.Time
	lanes [2][]span
	mu    sync.Mutex
	sink  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span on lane c and returns its lane-local index.
func (t *tracer) add(c int, name string, start, end int64, parent, req int) int {
	if !t.on {
		return -1
	}
	t.lanes[c] = append(t.lanes[c], span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return len(t.lanes[c]) - 1
}

// total sums the durations of every span called name, with their count.
func (t *tracer) total(name string) (ns float64, n int) {
	for _, l := range t.lanes {
		for _, s := range l {
			if s.Name == name {
				ns += float64(s.End - s.Start)
				n++
			}
		}
	}
	for _, s := range t.sink {
		if s.Name == name {
			ns += float64(s.End - s.Start)
			n++
		}
	}
	return ns, n
}

// durations lists the durations in µs of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, l := range t.lanes {
		for _, s := range l {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return out
}

// write stores every span as one JSON line, lane spans first with their
// parents renumbered and their request IDs made unique across lanes,
// then the sink writers'.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for c, l := range t.lanes {
		base := id
		for _, s := range l {
			s.ID = id
			if s.Parent >= 0 {
				s.Parent += base
			}
			if s.Req >= 0 {
				s.Req = 2*s.Req + c
			}
			id++
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, s := range t.sink {
		s.ID = id
		id++
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore is the real store behind the engine, with its write calls
// timed. It implements stream.DeferredSink and stream.StatsSink, so the
// engine keeps its group-commit path and its store counters.
type tracedStore struct {
	st *segstore.Store
	tr *tracer
}

var (
	_ stream.DeferredSink = (*tracedStore)(nil)
	_ stream.StatsSink    = (*tracedStore)(nil)
)

func (s *tracedStore) record(name string, start int64) {
	if !s.tr.on {
		return
	}
	end := s.tr.now()
	s.tr.mu.Lock()
	s.tr.sink = append(s.tr.sink, span{Name: name, Start: start, End: end, Parent: -1, Req: -1})
	s.tr.mu.Unlock()
}

func (s *tracedStore) Append(device string, segs []traj.Segment) error {
	return s.st.Append(device, segs)
}

func (s *tracedStore) AppendNoSync(device string, segs []traj.Segment) error {
	start := s.tr.now()
	err := s.st.AppendNoSync(device, segs)
	s.record(spAppend, start)
	return err
}

func (s *tracedStore) CommitDevices(devices []string) error {
	start := s.tr.now()
	err := s.st.CommitDevices(devices)
	s.record(spCommit, start)
	return err
}

func (s *tracedStore) Stats() segstore.Stats { return s.st.Stats() }

// announcer records when the engine announces persisted segments
// (stream.Config.OnSink; appended under mu by the sink writers, read once
// the engine has closed), and pending records when each ingest call that
// emitted segments returned; lags pairs them up afterwards.
type announcer struct {
	tr      *tracer
	mu      sync.Mutex
	byDev   map[string][]mark
	pending [2][]pendingBatch // per lane
}

// mark is a persisted End time and when it was announced.
type mark struct{ endT, at int64 }

type pendingBatch struct {
	dev string
	mark
}

func (a *announcer) onSink(device string, segs []traj.Segment) {
	if !a.tr.on || len(segs) == 0 {
		return
	}
	m := mark{segs[len(segs)-1].End.T, a.tr.now()}
	a.mu.Lock()
	a.byDev[device] = append(a.byDev[device], m)
	a.mu.Unlock()
}

// lags returns, in ms, how long after its Ingest returned each batch's
// last segment was announced as persisted. Announcements reach a device
// in persist order, so the first one at or past the batch's End time is
// the one that covered it; one that raced ahead of the return counts 0.
func (a *announcer) lags() []float64 {
	var out []float64
	for _, pend := range a.pending {
		next := map[string]int{}
		for _, p := range pend {
			anns := a.byDev[p.dev]
			k := next[p.dev]
			for k < len(anns) && anns[k].endT < p.endT {
				k++
			}
			next[p.dev] = k
			if k < len(anns) {
				out = append(out, float64(max(anns[k].at-p.at, 0))/1e6)
			}
		}
	}
	return out
}

// pass is one traced (or span-free) in-process pass over the workload.
type pass struct {
	b       *bench
	tr      *tracer
	ann     *announcer
	store   *segstore.Store
	eng     *stream.Engine // nil for query-hot
	before  stream.Stats
	after   stream.Stats
	flushNs float64
	// busyNs sums the durations of the timed requests and the closing
	// flush, measured whether or not spans are recorded: unlike the
	// pass's elapsed time, which an open loop's schedule sets, it grows
	// with the work and with the cost of recording spans.
	busyNs int64
	// work done in the timed phase
	ingestCalls, ingestPoints, decodePoints, encodedSegs, resultSegs int
}

func (b *bench) newPass(dir string, spans bool) (*pass, error) {
	p := &pass{b: b, tr: &tracer{on: spans}}
	p.ann = &announcer{tr: p.tr, byDev: map[string][]mark{}}
	if b.history > 0 {
		if err := b.writeHistory(dir); err != nil {
			return nil, err
		}
	}
	st, err := b.serveStore(dir)
	if err != nil {
		return nil, err
	}
	p.store = st
	if b.name != "query-hot" {
		p.eng, err = serveEngine(&tracedStore{st: st, tr: p.tr}, p.ann.onSink)
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *pass) close() error {
	if p.eng != nil {
		p.eng.Close()
		if n := p.eng.Stats().SinkErrors; n > 0 {
			p.store.Close()
			return fmt.Errorf("%d sink errors", n)
		}
	}
	return p.store.Close()
}

func (p *pass) stats() stream.Stats {
	if p.eng != nil {
		return p.eng.Stats()
	}
	st := p.store.Stats()
	return stream.Stats{Store: &st}
}

// ingest feeds one device batch to the engine on lane c, retrying after
// the engine's advice while set-up meets the new-device watermark.
func (p *pass) ingest(c int, dev string, pts []traj.Point, parent, req int, timed bool) error {
	for {
		start := p.tr.now()
		segs, err := p.eng.Ingest(dev, pts)
		end := p.tr.now()
		var oe *stream.OverloadError
		if !timed && errors.As(err, &oe) {
			time.Sleep(oe.RetryAfter)
			continue
		}
		if err != nil {
			return fmt.Errorf("ingest %s: %w", dev, err)
		}
		if !timed {
			return nil
		}
		p.tr.add(c, spIngest, start, end, parent, req)
		p.ingestCalls++
		p.ingestPoints += len(pts)
		if p.tr.on && len(segs) > 0 {
			p.ann.pending[c] = append(p.ann.pending[c], pendingBatch{dev, mark{segs[len(segs)-1].End.T, end}})
		}
		return nil
	}
}

// waitQueue is set-up's pacing, as in the HTTP run: wait until the sink
// queue holds at most limit batches.
func (p *pass) waitQueue(limit int64) {
	for p.eng.Stats().SinkQueued > limit {
		time.Sleep(time.Millisecond)
	}
}

// decodedBody is one TSB1 body decoded the way trajserve decodes it:
// each device's chunks merged, devices in first-seen order. Buffers are
// kept across bodies; an empty one marks a device not yet seen.
type decodedBody struct {
	order []string
	pts   map[string][]traj.Point
}

func (d *decodedBody) add(dev string, pts []traj.Point) error {
	if len(pts) == 0 {
		return nil
	}
	cur := d.pts[dev]
	if len(cur) == 0 {
		d.order = append(d.order, dev)
	}
	d.pts[dev] = append(cur, pts...)
	return nil
}

func (d *decodedBody) reset() {
	d.order = d.order[:0]
	for k, v := range d.pts {
		d.pts[k] = v[:0]
	}
}

// fleetBody sends one ingest-fleet body through decode and ingest on
// lane c; timed bodies are recorded as request req.
func (p *pass) fleetBody(c int, body []byte, db *decodedBody, req int, timed bool) error {
	start := p.tr.now()
	db.reset()
	if err := trajio.DecodeIngestStream(bytes.NewReader(body), db.add); err != nil {
		return err
	}
	decEnd := p.tr.now()
	parent := -1
	if timed {
		parent = p.tr.add(c, spRequest, start, 0, -1, req)
		p.tr.add(c, spDecode, start, decEnd, parent, req)
	}
	for _, dev := range db.order {
		if timed {
			p.decodePoints += len(db.pts[dev])
		}
		if err := p.ingest(c, dev, db.pts[dev], parent, req, timed); err != nil {
			return err
		}
	}
	if timed {
		p.endRequest(c, parent, start)
	}
	return nil
}

// endRequest closes a timed request that began at start: it adds the
// request's duration to the busy time and ends its span, if recorded
// (id ≥ 0).
func (p *pass) endRequest(c, id int, start int64) {
	end := p.tr.now()
	p.busyNs += end - start
	if id >= 0 {
		p.tr.lanes[c][id].End = end
	}
}

// lanePass runs fn once per lane concurrently, with per-lane counters
// merged into p afterwards.
func (p *pass) lanePass(fn func(c int, lp *pass) error) error {
	var lps [2]*pass
	err := each(func(c int) error {
		lps[c] = &pass{b: p.b, tr: p.tr, ann: p.ann, store: p.store, eng: p.eng}
		return fn(c, lps[c])
	})
	for _, lp := range lps {
		p.ingestCalls += lp.ingestCalls
		p.ingestPoints += lp.ingestPoints
		p.decodePoints += lp.decodePoints
		p.encodedSegs += lp.encodedSegs
		p.resultSegs += lp.resultSegs
		p.busyNs += lp.busyNs
	}
	return err
}

func (p *pass) runIngestFleet(res *result) error {
	b := p.b
	gs := b.groups()
	dbs := [2]*decodedBody{{pts: map[string][]traj.Point{}}, {pts: map[string][]traj.Point{}}}
	err := p.lanePass(func(c int, lp *pass) error {
		var body []byte
		var pts []traj.Point
		for round := 0; round < warmRounds; round++ {
			for g := c; g < len(gs); g += 2 {
				p.waitQueue(256)
				body, pts = b.binaryBody(body, gs[g], round, pts)
				if err := lp.fleetBody(c, body, dbs[c], -1, false); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.waitQueue(0)
	p.before = p.stats()
	spacing := time.Duration(float64(time.Second) / (b.roundRate * float64(len(gs))))
	start := time.Now()
	err = p.lanePass(func(c int, lp *pass) error {
		var body []byte
		var pts []traj.Point
		req := 0
		for r := 0; r < res.rounds; r++ {
			for g := c; g < len(gs); g += 2 {
				waitUntil(start.Add(time.Duration(r*len(gs)+g) * spacing))
				body, pts = b.binaryBody(body, gs[g], warmRounds+r, pts)
				if err := lp.fleetBody(c, body, dbs[c], req, true); err != nil {
					return err
				}
				req++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.flushAll()
	p.after = p.stats()
	return nil
}

// flushAll is the closing FlushAll, timed and counted as busy time.
func (p *pass) flushAll() {
	fs := p.tr.now()
	p.eng.FlushAll()
	fe := p.tr.now()
	p.flushNs = float64(fe - fs)
	p.busyNs += fe - fs
	p.tr.add(0, spFlush, fs, fe, -1, -1)
}

// firstTouch times each device's first query on the freshly opened
// store: an /at probe at mid-history, as the HTTP set-up sends.
func (p *pass) firstTouch() error {
	for i, d := range p.b.devs {
		start := p.tr.now()
		if _, err := p.store.SegmentAt(d.id, p.b.histMid(i)); err != nil {
			return fmt.Errorf("first touch %s: %w", d.id, err)
		}
		p.tr.add(i%2, spFirstTouch, start, p.tr.now(), -1, -1)
	}
	return nil
}

// query answers one query in-process on lane c as request req.
func (p *pass) query(c int, a answer, req int, sgb1 bool, buf []byte) ([]byte, error) {
	id := p.b.devs[a.dev].id
	start := p.tr.now()
	parent := p.tr.add(c, spRequest, start, 0, -1, req)
	if a.kind == opAt {
		seg, err := p.store.SegmentAt(id, a.from)
		if err != nil {
			return buf, fmt.Errorf("at %s t=%d: %w", id, a.from, err)
		}
		_ = seg.At(a.from)
		p.tr.add(c, spAt, start, p.tr.now(), parent, req)
		p.resultSegs++
	} else {
		segs, err := p.store.ReplayRange(id, a.from, a.to)
		if err != nil {
			return buf, fmt.Errorf("range %s: %w", id, err)
		}
		mid := p.tr.now()
		p.tr.add(c, spRange, start, mid, parent, req)
		p.resultSegs += len(segs)
		if sgb1 {
			buf = trajio.AppendSegments(buf[:0], segs)
			p.tr.add(c, spEncode, mid, p.tr.now(), parent, req)
			p.encodedSegs += len(segs)
		}
	}
	p.endRequest(c, parent, start)
	return buf, nil
}

func (p *pass) runQueryHot() error {
	if err := p.firstTouch(); err != nil {
		return err
	}
	for _, d := range p.b.devs {
		if _, err := p.store.Replay(d.id); err != nil {
			return err
		}
	}
	p.before = p.stats()
	err := p.lanePass(func(c int, lp *pass) error {
		var buf []byte
		var err error
		for req, a := range p.b.lanes[c].answers {
			if buf, err = lp.query(c, a, req, true, buf); err != nil {
				return err
			}
		}
		return nil
	})
	p.after = p.stats()
	return err
}

func (p *pass) runMixedLive() error {
	b := p.b
	if err := p.firstTouch(); err != nil {
		return err
	}
	var pts []traj.Point
	for i, d := range b.devs {
		pts = d.points(pts[:0], b.history, b.history+b.batch)
		if err := p.ingest(i%2, d.id, pts, -1, -1, false); err != nil {
			return err
		}
	}
	p.before = p.stats()
	scheds := [2][]event{b.schedule(0), b.schedule(1)}
	start := time.Now()
	err := p.lanePass(func(c int, lp *pass) error {
		var pts []traj.Point
		var buf []byte
		var err error
		for req, ev := range scheds[c] {
			waitUntil(start.Add(ev.due))
			if ev.q.kind != "" {
				if buf, err = lp.query(c, ev.q, req, false, buf); err != nil {
					return err
				}
				continue
			}
			d := b.devs[ev.dev]
			lo := b.history + ev.batch*b.batch
			pts = d.points(pts[:0], lo, lo+b.batch)
			rs := p.tr.now()
			parent := p.tr.add(c, spRequest, rs, 0, -1, req)
			if err := lp.ingest(c, d.id, pts, parent, req, true); err != nil {
				return err
			}
			lp.endRequest(c, parent, rs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.flushAll()
	p.after = p.stats()
	return nil
}

// requestMedian is the median duration in µs of the lane request spans
// whose first child is named one of names.
func (t *tracer) requestMedian(names ...string) float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var ds []float64
	for _, l := range t.lanes {
		for i, s := range l {
			if s.Name == spRequest && i+1 < len(l) && want[l[i+1].Name] {
				ds = append(ds, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return percentile(ds, 0.5)
}

// pushNsPerPoint times OPERB-A's Push over every point stream the run
// persisted, one session at a time on one goroutine.
func (b *bench) pushNsPerPoint(res *result) (float64, error) {
	var total time.Duration
	var n int
	var pts []traj.Point
	for i, d := range b.devs {
		lo := 0
		for _, cnt := range b.sessions(i, res) {
			pts = d.points(pts[:0], lo, lo+cnt)
			lo += cnt
			enc, err := core.NewAggressiveEncoder(zeta, core.DefaultOptions())
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for _, p := range pts {
				enc.Push(p)
			}
			enc.Flush()
			total += time.Since(start)
			n += len(pts)
		}
	}
	return float64(total.Nanoseconds()) / float64(n), nil
}

// traced runs the in-process passes — spans off, then on — and returns
// the per-layer metrics, writing the spans of the second pass.
func (b *bench) traced(res *result, spanDir string) (map[string]metric, string, error) {
	var passes [2]*pass
	for k, spans := range []bool{false, true} {
		p, err := b.newPass(filepath.Join(b.dir, fmt.Sprintf("trace%d", k)), spans)
		if err != nil {
			return nil, "", err
		}
		p.tr.t0 = time.Now()
		switch b.name {
		case "ingest-fleet":
			err = p.runIngestFleet(res)
		case "query-hot":
			err = p.runQueryHot()
		case "mixed-live":
			err = p.runMixedLive()
		}
		if cerr := p.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, "", err
		}
		passes[k] = p
	}
	p := passes[1]
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := p.tr.write(path); err != nil {
		return nil, "", err
	}
	push, err := b.pushNsPerPoint(res)
	if err != nil {
		return nil, "", err
	}
	return p.layerMetrics(res, push, passes[0].busyNs), path, nil
}

func (p *pass) layerMetrics(res *result, push float64, busyOffNs int64) map[string]metric {
	b, tr := p.b, p.tr
	d := func(f func(s *segstore.Stats) int64) float64 {
		return float64(f(p.after.Store) - f(p.before.Store))
	}
	svc := func(ops ...string) float64 {
		var xs []float64
		for _, op := range ops {
			xs = append(xs, res.svc[op]...)
		}
		return percentile(xs, 0.5)
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var ingestResidual, queryResidual float64
	if res.attempted[opIngest] > 0 {
		first := spIngest
		if b.name == "ingest-fleet" {
			first = spDecode
		}
		ingestResidual = 1e3*svc(opIngest) - tr.requestMedian(first)
	}
	if res.attempted[opRange]+res.attempted[opAt] > 0 {
		queryResidual = 1e3*svc(opRange, opAt) - tr.requestMedian(spRange, spAt)
	}
	set("trajserve.ingest_residual_us", ingestResidual, "us/request")
	set("trajserve.query_residual_us", queryResidual, "us/query")

	decNs, _ := tr.total(spDecode)
	set("trajio.decode_ns_per_point", ratio(decNs, float64(p.decodePoints)), "ns/point")
	encNs, _ := tr.total(spEncode)
	set("trajio.encode_ns_per_segment", ratio(encNs, float64(p.encodedSegs)), "ns/segment")

	set("core.push_ns_per_point", push, "ns/point")
	set("core.segments_per_point", ratio(float64(res.q.segments), float64(res.q.points)), "segments/point")
	set("core.avg_ped_m", ratio(res.q.sumPED, float64(res.q.points)), "m")
	set("core.max_ped_over_zeta", res.q.maxRatio, "ratio")

	ingNs, _ := tr.total(spIngest)
	ingPerPoint := ratio(ingNs, float64(p.ingestPoints))
	set("stream.ingest_ns_per_point", ingPerPoint, "ns/point")
	self := 0.0
	if p.ingestPoints > 0 {
		self = ingPerPoint - push
	}
	set("stream.ingest_self_ns_per_point", self, "ns/point")
	calls := float64(p.ingestCalls)
	set("stream.contended_per_batch", ratio(float64(p.after.Contended-p.before.Contended), calls), "ratio")
	set("stream.sink_blocked_per_batch", ratio(float64(p.after.SinkBlocked-p.before.SinkBlocked), calls), "ratio")
	lags := p.ann.lags()
	set("stream.persist_lag_p50_ms", percentile(lags, 0.5), "ms")
	set("stream.persist_lag_p99_ms", percentile(lags, 0.99), "ms")
	sweepBatches := float64(p.after.SinkSweepBatches - p.before.SinkSweepBatches)
	set("stream.batches_per_append", ratio(sweepBatches, float64(p.after.SinkAppends-p.before.SinkAppends)), "ratio")
	set("stream.flush_ms", p.flushNs/1e6, "ms")

	appNs, appN := tr.total(spAppend)
	set("segstore.append_us_per_call", ratio(appNs/1e3, float64(appN)), "us")
	comNs, comN := tr.total(spCommit)
	set("segstore.commit_us_per_call", ratio(comNs/1e3, float64(comN)), "us")
	set("segstore.fsyncs_per_batch", ratio(d(func(s *segstore.Stats) int64 { return s.Syncs }), sweepBatches), "ratio")
	hits := d(func(s *segstore.Stats) int64 { return s.HandleHits })
	misses := d(func(s *segstore.Stats) int64 { return s.HandleMisses })
	set("segstore.handle_miss_ratio", ratio(misses, hits+misses), "ratio")
	set("segstore.bytes_per_segment", ratio(d(func(s *segstore.Stats) int64 { return s.Bytes }), d(func(s *segstore.Stats) int64 { return s.Segments })), "B/segment")
	rangeNs, rangeN := tr.total(spRange)
	set("segstore.range_us_per_query", ratio(rangeNs/1e3, float64(rangeN)), "us")
	atNs, atN := tr.total(spAt)
	set("segstore.at_us_per_query", ratio(atNs/1e3, float64(atN)), "us")
	ch := d(func(s *segstore.Stats) int64 { return s.ReadCacheHits })
	cm := d(func(s *segstore.Stats) int64 { return s.ReadCacheMiss })
	set("segstore.cache_hit_ratio", ratio(ch, ch+cm), "ratio")
	set("segstore.read_bytes_per_result_segment", ratio(d(func(s *segstore.Stats) int64 { return s.ReadBytes }), float64(p.resultSegs)), "B/segment")
	set("segstore.cache_resident_mb", float64(p.after.Store.ReadCacheBytes)/(1<<20), "MiB")
	ft := tr.durations(spFirstTouch)
	set("segstore.first_touch_us", ratio(sum(ft), float64(len(ft))), "us/device")

	set("trace.busy_s_spans_on", float64(p.busyNs)/1e9, "s")
	set("trace.busy_s_spans_off", float64(busyOffNs)/1e9, "s")
	return m
}

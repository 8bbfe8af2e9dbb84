package stream

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"trajsim/internal/traj"
)

// The async sink pipeline: finalized segment batches are handed off
// under the shard lock to a bounded queue sharded by device hash, and N
// writer goroutines drain it, calling the Sink outside any ingest lock.
// The paper's encoder processes a point in nanoseconds (§4); a sink
// append is a disk write — potentially an fsync under SyncAlways — so
// calling it inside the ingest critical section gates every device on
// a shard by storage latency. With the queue, the critical section ends
// at a memcpy.
//
// Draining is sweep-level group commit: a worker takes everything
// immediately available on its channel (bounded by Config.SinkSweep
// segments) into one sweep, partitions it by device, writes each
// device's merged share with one AppendNoSync, and settles the whole
// sweep with one CommitDevices call: one fsync per dirty file per
// sweep, so under SyncAlways a backlog of K devices × M batches costs at
// most K fsyncs instead of K×M.
//
// Ordering: one device always maps to one writer (FNV-1a hash), and
// every enqueue for a device happens under that device's shard lock, so
// a device's ops sit in a single FIFO in emission order; the sweep
// partition preserves that arrival order inside each device's merged
// payload — the property the segment log's replay (and the
// restart-identity tests) depends on. Cross-device order is unspecified.
//
// Backpressure: a full queue blocks the producer — ingest slows to
// storage speed and nothing acknowledged is lost. Before that point,
// Config.QueueWatermark turns new devices away with a Retry-After.
// Session handoffs from Flush/FlushAll/EvictIdle/Close block the same
// way; callers rely on those segments reaching the sink before the call
// returns — their waits are signalled only after the sweep's commit.

const (
	// DefaultSinkWriters is the writer-goroutine count when
	// Config.SinkWriters is zero.
	DefaultSinkWriters = 4
	// DefaultSinkQueue is the per-writer queue depth (in batches) when
	// Config.SinkQueue is zero.
	DefaultSinkQueue = 256
	// DefaultSinkSweep is the sweep bound (in segments) when
	// Config.SinkSweep is zero: a storage stall can fold at most this
	// many segments into one sweep, so the merge buffer — and the latency
	// of the batch unlucky enough to be first in it — stays bounded no
	// matter how deep the backlog.
	DefaultSinkSweep = 4096
	// maxPooledSegs caps the capacity of batch buffers returned to the
	// sync.Pool: recycling an outlier would pin its peak allocation for
	// the life of the process.
	maxPooledSegs = 4096
)

// segBatch is a pooled copy of one emitted batch. The engine reuses the
// per-session out-buffer it hands to callers, so the queue must own its
// bytes; pooling the copies keeps the steady-state ingest path
// allocation-free.
type segBatch struct {
	segs []traj.Segment
}

// finishWait carries one session handoff's result back to the caller.
// The worker stores the finished tail, and the append or commit error
// that lost it, and signals wg after the sweep's commit, which is what
// gives Flush/FlushAll/EvictIdle/Close their persisted-before-return
// guarantee.
type finishWait struct {
	wg   *sync.WaitGroup
	segs []traj.Segment
	err  error
}

// sinkOp is one queue entry: exactly one of batch, sess, or barrier is
// set.
type sinkOp struct {
	device  string
	batch   *segBatch     // ingest-path batch, pooled
	sess    *session      // session handoff: worker runs finish() then appends
	res     *finishWait   // result slot for a session handoff
	barrier chan struct{} // closed once every earlier op on this worker is done
}

// sinkQueue is the bounded, device-ordered pipeline between the engine's
// shard locks and the Sink.
type sinkQueue struct {
	sink      Sink
	sweepSegs int
	watermark int64 // queued-op count that counts as overload; 0 disables
	now       func() time.Time
	workers   []chan sinkOp
	wg        sync.WaitGroup
	pool      sync.Pool // of *segBatch

	// Drain-rate tracking for OverloadError.RetryAfter: drained counts
	// ops the workers have taken, and retryAfter turns its growth since
	// the last sample into a smoothed ops/sec rate.
	drained atomic.Int64
	rateMu  sync.Mutex
	rateAt  time.Time //trajlint:guardedby rateMu -- last sample time; zero until the first call
	rateN   int64     //trajlint:guardedby rateMu -- drained count at the last sample
	rate    float64   //trajlint:guardedby rateMu -- EWMA drain rate, ops/sec
	sampled bool      //trajlint:guardedby rateMu -- rate holds a measurement

	// stopMu serializes enqueues against close: producers hold the read
	// side for the duration of a send, so close can wait out in-flight
	// sends before closing the channels. Post-stop enqueues are no-ops —
	// by then every session is flushed and the queue drained.
	stopMu  sync.RWMutex
	stopped bool //trajlint:guardedby stopMu

	depth   atomic.Int64 // ops queued right now, across workers
	blocked atomic.Int64 // enqueues that found the queue full and waited

	sweeps       atomic.Int64 // sweeps that appended at least one device
	sweepBatches atomic.Int64 // ingest batches folded into persisted sweep shares
	apps         atomic.Int64 // merged payloads the Sink accepted (Stats.SinkAppends)
	errs         atomic.Int64 // merged payloads lost to a failed append or commit
	errSegs      atomic.Int64 // segments inside those payloads

	onSink func(device string, segs []traj.Segment)
}

// newSinkQueue starts the pipeline for cfg.Sink, sized by cfg's Sink*
// fields (defaults already resolved) and cfg.QueueWatermark.
func newSinkQueue(cfg Config, now func() time.Time) *sinkQueue {
	q := &sinkQueue{
		sink:      cfg.Sink,
		sweepSegs: cfg.SinkSweep,
		now:       now,
		workers:   make([]chan sinkOp, cfg.SinkWriters),
		onSink:    cfg.OnSink,
	}
	if cfg.QueueWatermark > 0 {
		// At least 1: a positive watermark must be able to fire even on
		// a tiny queue.
		q.watermark = max(1, int64(cfg.QueueWatermark*float64(cfg.SinkWriters*cfg.SinkQueue)))
	}
	q.pool.New = func() any { return &segBatch{} }
	for i := range q.workers {
		q.workers[i] = make(chan sinkOp, cfg.SinkQueue)
		q.wg.Add(1)
		go q.run(q.workers[i])
	}
	return q
}

// recycle returns a drained batch to the pool, unless its buffer grew
// beyond maxPooledSegs — dropping the outlier lets its peak allocation
// be collected. Reports whether the batch was pooled.
func (q *sinkQueue) recycle(b *segBatch) bool {
	if cap(b.segs) > maxPooledSegs {
		return false
	}
	b.segs = b.segs[:0]
	q.pool.Put(b)
	return true
}

// worker returns the one channel device's ops travel through.
func (q *sinkQueue) worker(device string) chan sinkOp {
	return q.workers[fnv1a(device)%uint32(len(q.workers))]
}

func (q *sinkQueue) run(ch chan sinkOp) {
	defer q.wg.Done()
	sw := newSweep(q)
	for {
		op, ok := <-ch
		if !ok {
			return
		}
		q.depth.Add(-1)
		q.drained.Add(1)
		sw.add(op)
		// Sweep drain: fold everything immediately available into this
		// sweep, bounded by sweepSegs so a storage stall cannot grow the
		// merge buffers (or the first batch's commit latency) without
		// limit. A closed channel reads as not-ready here; the outer
		// receive observes the close after the final flush.
		for sw.segs < q.sweepSegs {
			var next sinkOp
			var got bool
			select {
			case next, got = <-ch:
			default:
			}
			if !got {
				break
			}
			q.depth.Add(-1)
			q.drained.Add(1)
			sw.add(next)
		}
		sw.flush()
	}
}

// devSweep is one device's share of a sweep: its segments merged in
// arrival order, the session-handoff waits to signal after the commit,
// and how many ingest batches folded in.
type devSweep struct {
	device  string
	segs    []traj.Segment
	waits   []*finishWait
	batches int
	err     error // append failure for the merged payload
}

// sweep is one worker's reusable drain state: the immediately available
// ops of one pass, partitioned by device. Workers never share a sweep,
// so none of this needs locking.
type sweep struct {
	q        *sinkQueue
	devs     []*devSweep // first-touch order
	byDev    map[string]*devSweep
	free     []*devSweep // recycled shares
	barriers []chan struct{}
	commit   []string
	segs     int             // total segments collected; bounds the drain
	inErr    map[string]bool // devices inside an error burst (for log dedup)
}

func newSweep(q *sinkQueue) *sweep {
	return &sweep{q: q, byDev: make(map[string]*devSweep), inErr: make(map[string]bool)}
}

func (sw *sweep) dev(device string) *devSweep {
	ds := sw.byDev[device]
	if ds == nil {
		if n := len(sw.free); n > 0 {
			ds, sw.free = sw.free[n-1], sw.free[:n-1]
		} else {
			ds = &devSweep{}
		}
		ds.device = device
		sw.byDev[device] = ds
		sw.devs = append(sw.devs, ds)
	}
	return ds
}

// add folds one op into the sweep. Session handoffs run finish() here,
// on the worker goroutine — as the per-op path did — but their waits are
// signalled only in flush, after the sweep's commit, which is what gives
// Flush/FlushAll/EvictIdle/Close their persisted-before-return
// guarantee.
func (sw *sweep) add(op sinkOp) {
	switch {
	case op.barrier != nil:
		sw.barriers = append(sw.barriers, op.barrier)
	case op.sess != nil:
		segs := op.sess.finish()
		op.res.segs = segs
		ds := sw.dev(op.device)
		ds.segs = append(ds.segs, segs...)
		ds.waits = append(ds.waits, op.res)
		sw.segs += len(segs)
	default:
		ds := sw.dev(op.device)
		ds.segs = append(ds.segs, op.batch.segs...)
		sw.segs += len(op.batch.segs)
		ds.batches++
		sw.q.recycle(op.batch)
	}
}

// flush writes the sweep — one merged AppendNoSync per device, then one
// CommitDevices settling every device's fsync — and only then signals
// handoff waits and barriers.
func (sw *sweep) flush() {
	q := sw.q
	sw.commit = sw.commit[:0]
	for _, ds := range sw.devs {
		if len(ds.segs) == 0 {
			continue
		}
		ds.err = q.sink.AppendNoSync(ds.device, ds.segs)
		sw.commit = append(sw.commit, ds.device)
	}
	var commitErr error
	if len(sw.commit) > 0 {
		commitErr = q.sink.CommitDevices(sw.commit)
		q.sweeps.Add(1)
	}
	for _, ds := range sw.devs {
		err := ds.err
		if err == nil {
			// A failed group commit may have left any device's deferred
			// bytes unsynced; attribute it to every device the commit
			// covered rather than guess which file the fsync failed on.
			err = commitErr
		}
		switch {
		case len(ds.segs) == 0:
			// Ops that merged to nothing (empty session tails): nothing
			// persisted, nothing to announce.
		case err != nil:
			q.errs.Add(1)
			q.errSegs.Add(int64(len(ds.segs)))
			if !sw.inErr[ds.device] {
				// One line per device per burst, not per lost payload: a
				// wedged disk under load must not flood the process log.
				sw.inErr[ds.device] = true
				step := "append"
				if ds.err == nil {
					step = "commit" // the write landed; the sweep's fsync failed
				}
				log.Printf("stream: sink %s %s: %v (%d segments lost; suppressing until recovery)",
					step, ds.device, err, len(ds.segs))
			}
		default:
			delete(sw.inErr, ds.device)
			q.apps.Add(1)
			q.sweepBatches.Add(int64(ds.batches))
			// Post-sink notification: announced only after the append and
			// the sweep's commit, so a tail listener never hears of
			// segments a concurrent replay could miss. The slice is reused
			// next sweep — listeners copy.
			if q.onSink != nil {
				q.onSink(ds.device, ds.segs)
			}
		}
		// After the commit, not the append: the caller behind each wait was
		// promised its tail is as durable as the sync policy allows, or
		// told why it is not.
		for _, w := range ds.waits {
			if len(ds.segs) > 0 {
				w.err = err
			}
			w.wg.Done()
		}
	}
	// A barrier promises every op enqueued before it is done; closing at
	// the end of the sweep keeps that promise (some later ops completed
	// too, which barriers never forbid).
	for _, b := range sw.barriers {
		close(b)
	}
	sw.reset()
}

// reset returns the sweep to empty, recycling device shares. Oversized
// merge buffers are dropped, not retained: the fold cap bounds a share
// to roughly sweepSegs plus one op, so anything far beyond that came
// from a single outlier payload.
func (sw *sweep) reset() {
	for _, ds := range sw.devs {
		delete(sw.byDev, ds.device)
		if cap(ds.segs) > 4*sw.q.sweepSegs {
			ds.segs = nil
		}
		ds.segs = ds.segs[:0]
		ds.waits = ds.waits[:0]
		ds.device, ds.batches, ds.err = "", 0, nil
		sw.free = append(sw.free, ds)
	}
	sw.devs = sw.devs[:0]
	sw.barriers = sw.barriers[:0]
	sw.segs = 0
}

// putBatch enqueues a copy of one ingest-path batch. Called under the
// device's shard lock, which is what keeps a device's queue order equal
// to its emission order.
func (q *sinkQueue) putBatch(device string, segs []traj.Segment) {
	if len(segs) == 0 {
		return
	}
	q.stopMu.RLock()
	defer q.stopMu.RUnlock()
	if q.stopped {
		return
	}
	b := q.pool.Get().(*segBatch)
	b.segs = append(b.segs[:0], segs...)
	q.send(sinkOp{device: device, batch: b})
}

// putFinish enqueues a session handoff: the worker finishes the session
// (draining its cleaner and flushing its encoder) and appends the tail
// to the sink, then fills res. Called under the device's shard lock —
// right after the session leaves the map — so the tail lands after every
// batch the session emitted and before anything a successor session
// emits.
func (q *sinkQueue) putFinish(device string, s *session, res *finishWait) {
	q.stopMu.RLock()
	defer q.stopMu.RUnlock()
	if q.stopped {
		// The queue is gone (racing Close already drained it); finish
		// inline so the caller still gets the tail.
		res.segs = s.finish()
		res.wg.Done()
		return
	}
	q.send(sinkOp{device: device, sess: s, res: res})
}

// send enqueues op on its device's worker, blocking — and counting the
// wait in blocked — while that queue is full. Caller holds stopMu's
// read side.
func (q *sinkQueue) send(op sinkOp) {
	ch := q.worker(op.device)
	q.depth.Add(1)
	select {
	case ch <- op:
	default:
		q.blocked.Add(1)
		ch <- op
	}
}

// drain blocks until every op enqueued before the call has been handed
// to the sink, across all workers.
func (q *sinkQueue) drain() {
	q.stopMu.RLock()
	if q.stopped {
		q.stopMu.RUnlock()
		return
	}
	barriers := make([]chan struct{}, len(q.workers))
	for i, ch := range q.workers {
		barriers[i] = make(chan struct{})
		q.depth.Add(1)
		ch <- sinkOp{barrier: barriers[i]}
	}
	q.stopMu.RUnlock()
	for _, b := range barriers {
		<-b
	}
}

// Bounds on the retry delay derived from queue state: short enough to
// be worth honoring when the drain rate is healthy, long enough to
// matter when the disk has wedged and the rate reads as zero.
const (
	minRetryAfter = 100 * time.Millisecond
	maxRetryAfter = 30 * time.Second
)

// overloaded reports whether the queue depth has crossed the pressure
// watermark. A single atomic load — cheap enough for the ingest path.
func (q *sinkQueue) overloaded() bool {
	return q.watermark > 0 && q.depth.Load() >= q.watermark
}

// retryAfter estimates how long until the current backlog has drained:
// depth over a smoothed drain rate, clamped to [minRetryAfter,
// maxRetryAfter]. The rate is sampled on demand — growth of the drained
// counter over at least 50 ms since the last sample, folded into an
// EWMA so one burst or lull between calls doesn't swing the advice.
// Until the first sample completes the rate is unknown, not zero, and
// the advice is the minimum: retry soon, by when the rate is measured.
// A measured rate of zero (a wedged sink) yields the maximum: the
// honest answer when the disk may not be coming back soon.
func (q *sinkQueue) retryAfter() time.Duration {
	depth := q.depth.Load()
	q.rateMu.Lock()
	now := q.now()
	n := q.drained.Load()
	if q.rateAt.IsZero() {
		q.rateAt, q.rateN = now, n
	} else if dt := now.Sub(q.rateAt); dt >= 50*time.Millisecond {
		inst := float64(n-q.rateN) / dt.Seconds()
		if !q.sampled {
			q.rate, q.sampled = inst, true
		} else {
			q.rate = 0.5*q.rate + 0.5*inst
		}
		q.rateAt, q.rateN = now, n
	}
	rate, sampled := q.rate, q.sampled
	q.rateMu.Unlock()
	if !sampled {
		return minRetryAfter
	}
	if rate <= 0 {
		return maxRetryAfter
	}
	d := time.Duration(float64(depth) / rate * float64(time.Second))
	return min(max(d, minRetryAfter), maxRetryAfter)
}

// close drains the queue and stops the workers. Enqueues after close are
// no-ops; the engine only closes the queue once every session is flushed
// and every shard rejects new ingest.
func (q *sinkQueue) close() {
	q.stopMu.Lock()
	if q.stopped {
		q.stopMu.Unlock()
		return
	}
	q.stopped = true
	q.stopMu.Unlock()
	for _, ch := range q.workers {
		close(ch)
	}
	q.wg.Wait()
}

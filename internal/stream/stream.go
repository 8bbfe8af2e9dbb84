// Package stream is the cloud side of the paper's motivating deployment
// (§1): a fleet of devices each running the O(1)-space OPERB encoder and
// uploading continuously. An Engine holds thousands of live per-device
// encoder sessions at once and ingests batched points for any of them,
// returning the segments each batch finalizes.
//
// Sessions live in N shard maps keyed by device ID (FNV-1a hash, one
// mutex per shard), so concurrent ingest for different devices rarely
// contends. Each session owns an optional stream Cleaner and one OPERB or
// OPERB-A encoder — exactly the state a device would hold, moved
// server-side. Idle sessions are evicted on a monotonic clock, either
// explicitly via EvictIdle or by the background janitor.
package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajsim/internal/core"
	"trajsim/internal/segstore"
	"trajsim/internal/traj"
)

// Errors reported by the Engine.
var (
	// ErrClosed is returned by Ingest after Close.
	ErrClosed = errors.New("stream: engine closed")
	// ErrNoDevice is returned by Ingest for an empty device ID.
	ErrNoDevice = errors.New("stream: empty device ID")
	// ErrDeviceTooLong is returned by Ingest for a device ID longer than
	// MaxDevice bytes. Enforced at ingest so the persistence tier — whose
	// escaped directory names carry the same cap — never silently drops a
	// device the engine accepted.
	ErrDeviceTooLong = errors.New("stream: device ID too long")
	// ErrSessionLimit is returned by Ingest when opening one more session
	// would exceed Config.MaxSessions.
	ErrSessionLimit = errors.New("stream: session limit reached")
	// ErrTimeOrder is returned by Ingest when a batch violates the
	// paper's strictly-increasing-timestamp invariant (§3.1) against
	// itself or the session's previous batches, and no CleanWindow is
	// configured to repair it. The session is left unchanged.
	ErrTimeOrder = errors.New("stream: points not in increasing time order")
	// ErrNoSession is returned by Flush for a device with no live
	// session — e.g. on a duplicate flush.
	ErrNoSession = errors.New("stream: no live session")
)

// FlushError is returned by Flush and FlushAll when the Sink lost the
// flushed tail of one or more devices: the sweep that carried it failed
// its append or its commit. The tails are still returned, but they are
// not durable. Losses from earlier sweeps, of batches ingested before
// the flush, show only in Stats.SinkErrors.
type FlushError struct {
	Devices []string // devices whose tails were lost, sorted
	Err     error    // the first device's failure
}

func (e *FlushError) Error() string {
	return fmt.Sprintf("stream: sink lost the flushed segments of %s: %v", strings.Join(e.Devices, ", "), e.Err)
}

func (e *FlushError) Unwrap() error { return e.Err }

// flushError collects the failures of FlushAll's finished handoffs into
// a FlushError, or nil when every tail reached the Sink.
func flushError(devices []string, waits []*finishWait) error {
	var fe *FlushError
	for i, w := range waits {
		if w.err == nil {
			continue
		}
		if fe == nil {
			fe = &FlushError{Err: w.err}
		}
		fe.Devices = append(fe.Devices, devices[i])
	}
	if fe == nil {
		return nil
	}
	sort.Strings(fe.Devices)
	return fe
}

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 16

// MaxDevice is the longest accepted device ID in bytes — one limit for
// the whole stack (engine, segstore directory names, HTTP ingest), so a
// device cannot be ingestable but unpersistable.
const MaxDevice = 80

// Sink receives every batch of finalized segments the engine emits — the
// durability tier under the in-memory sessions (segstore.Store implements
// it). The sink writers call it outside every ingest lock: each sweep
// makes one AppendNoSync per device with that device's merged payload,
// fsync withheld, then one CommitDevices for the devices it wrote, so K
// devices × M batches cost at most K fsyncs under segstore's SyncAlways.
// A device's calls arrive in emission order, never concurrently.
// CommitDevices must treat devices with nothing to settle (including
// ones whose AppendNoSync failed) as no-ops, and neither method may call
// back into the Engine. A failed append or commit counts in
// Stats.SinkErrors but does not fail the ingest: the segments were
// already returned to the caller, so the engine degrades to memory-only
// rather than dropping traffic.
type Sink interface {
	AppendNoSync(device string, segs []traj.Segment) error
	CommitDevices(devices []string) error
}

// DeferredSink is an alias of Sink, for code written against that name.
type DeferredSink = Sink

// Config parameterizes an Engine. The zero value is not usable: Zeta must
// be a positive error bound in meters.
type Config struct {
	// Zeta is the error bound ζ in meters applied to every session.
	Zeta float64
	// Aggressive selects OPERB-A (patched, better compression) instead of
	// OPERB for new sessions.
	Aggressive bool
	// Options configures the encoders; nil selects core.DefaultOptions.
	Options *core.Options
	// Shards is the number of session-map shards; 0 selects DefaultShards.
	Shards int
	// CleanWindow, when positive, gives every session a traj.Cleaner with
	// this reorder window, repairing duplicated or out-of-order fixes
	// before they reach the encoder.
	CleanWindow int
	// IdleAfter is how long a session may go without ingest before
	// EvictIdle (or the janitor) finalizes it. Zero disables eviction.
	IdleAfter time.Duration
	// EvictEvery, when positive, starts a background janitor goroutine
	// that calls EvictIdle on this period until Close.
	EvictEvery time.Duration
	// MaxSessions caps live sessions; 0 means unlimited. Ingest for a new
	// device beyond the cap fails with ErrSessionLimit — or, under
	// ShedSessions, flushes the coldest session to make room instead.
	MaxSessions int
	// ShedSessions selects coldest-first load shedding at the
	// MaxSessions cap: instead of rejecting a new device, the live
	// session idle the longest is flushed durably (through the sink
	// drain barrier, reported to OnEvict) and its slot reused. The new
	// device is demonstrably live; the coldest one is the best bet to
	// be gone for good. Ignored without MaxSessions.
	ShedSessions bool
	// DeviceRate, when positive, enforces a per-device token-bucket
	// rate limit of this many points per second. A batch needs one
	// token per point; an over-rate batch is rejected with an
	// *OverloadError (ErrOverloaded under errors.Is) whose RetryAfter
	// says when the bucket will have refilled, and the session is left
	// untouched. Zero disables rate limiting.
	DeviceRate float64
	// DeviceBurst is the token-bucket capacity in points — how large a
	// burst a device may ingest at once after idling. Zero selects
	// DeviceRate (one second of burst). Requires DeviceRate.
	DeviceBurst float64
	// QueueWatermark, when positive (a fraction in (0, 1]), rejects
	// ingest for NEW devices with an *OverloadError while the async
	// sink queue holds more than this fraction of its total capacity:
	// the disk is behind, and opening more sessions only deepens the
	// backlog. The RetryAfter is the backlog divided by the queue's
	// measured drain rate. Existing sessions keep flowing, blocking
	// only once the queue is full. Ignored without a Sink.
	QueueWatermark float64
	// OnEvict, when non-nil, receives the trailing segments of every
	// evicted session (EvictIdle and the janitor both report through it).
	OnEvict func(device string, segs []traj.Segment)
	// Sink, when non-nil, persists every emitted segment batch — from
	// Ingest, Flush, FlushAll, EvictIdle and Close alike. See Sink.
	Sink Sink
	// SinkWriters is the number of goroutines draining the async sink
	// queue; 0 selects DefaultSinkWriters. Ignored without a Sink.
	SinkWriters int
	// SinkQueue is each writer's queue depth in batches; 0 selects
	// DefaultSinkQueue. A deeper queue absorbs longer storage stalls
	// before a full queue blocks ingest.
	SinkQueue int
	// SinkSweep caps how many segments one sink-writer sweep folds
	// together before it commits — the bound on both the merge buffers
	// and how long the sweep's first batch waits for stragglers when the
	// queue is deep. 0 selects DefaultSinkSweep. Ignored without a Sink.
	SinkSweep int
	// OnSink, when non-nil, observes every segment batch the Sink
	// accepted (its AppendNoSync and the sweep's CommitDevices both
	// returned nil), after the commit — the feed for live tails over the
	// durable log: a batch is announced only once a replay would see it.
	// Runs on a sink-writer goroutine, so it must be fast and must not
	// call back into the Engine; the slice is reused after the call
	// returns — copy to retain. Batches for one device arrive in persist
	// order.
	OnSink func(device string, segs []traj.Segment)
	// Clock overrides the engine clock, for tests. Nil selects time.Now,
	// whose monotonic reading makes idle measurement immune to wall-clock
	// steps.
	Clock func() time.Time
}

// StatsSink is the optional second face of a Sink: one that exposes
// storage-tier counters for Engine.Stats to surface. *segstore.Store
// implements it; custom sinks may too.
type StatsSink interface {
	Sink
	Stats() segstore.Stats
}

// Stats are engine-wide counters, all cumulative except Sessions.
type Stats struct {
	Sessions   int   `json:"sessions"`    // live sessions right now
	Opened     int64 `json:"opened"`      // sessions ever opened
	Points     int64 `json:"points"`      // points ingested
	Segments   int64 `json:"segments"`    // segments emitted, incl. flush/evict tails
	Flushed    int64 `json:"flushed"`     // sessions finalized by Flush/FlushAll/Close
	Evicted    int64 `json:"evictions"`   // sessions finalized for idleness
	Contended  int64 `json:"contended"`   // ingests that blocked on a busy shard lock
	SinkErrors int64 `json:"sink_errors"` // merged payloads the Sink failed to persist

	Shed        int64 `json:"shed_sessions"`     // sessions flushed coldest-first to admit new devices
	RateLimited int64 `json:"rate_limited"`      // ingests rejected by the per-device rate limit
	Overloaded  int64 `json:"overload_rejected"` // new-device ingests rejected at the queue watermark

	SinkAppends      int64 `json:"sink_appends"`        // merged payloads the Sink accepted
	SinkErrorSegs    int64 `json:"sink_error_segments"` // segments lost inside failed payloads
	SinkQueued       int64 `json:"sink_queued"`         // sink-queue ops in flight right now
	SinkBlocked      int64 `json:"sink_blocked"`        // enqueues that found the queue full and waited
	SinkSweeps       int64 `json:"sink_sweeps"`         // writer sweeps that appended at least one device
	SinkSweepBatches int64 `json:"sink_sweep_batches"`  // ingest batches folded into persisted sweeps

	// Store carries the durability tier's counters when the configured
	// Sink exposes them (see StatsSink); nil otherwise. One Stats call
	// answers for the whole storage path: sessions in memory, segments on
	// disk, residency and retention activity underneath.
	Store *segstore.Stats `json:"store,omitempty"`
}

// Eviction is one idle session finalized by EvictIdle: its device ID and
// the trailing segments its encoder still held.
type Eviction struct {
	Device   string
	Segments []traj.Segment
}

// encoder is the common face of core.Encoder and core.AggressiveEncoder.
type encoder interface {
	Push(traj.Point) []traj.Segment
	Flush() []traj.Segment
}

// session is one live device stream: the cleaner+encoder state the paper
// puts on the device, plus bookkeeping for eviction.
type session struct {
	clean *traj.Cleaner
	enc   encoder
	last  time.Time      // engine-clock time of the latest ingest
	lastT int64          // timestamp of the latest accepted point (no cleaner)
	out   []traj.Segment // reusable Ingest out-buffer; valid until the next batch

	// Token bucket under Config.DeviceRate (see admitRate); untouched
	// otherwise. A zero tokAt means never charged: the first charge
	// starts the bucket full.
	tokens float64
	tokAt  time.Time
}

// shard is one of the Engine's session maps. Padding would buy little
// here: the mutex and map pointer are touched together under the lock.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session //trajlint:guardedby mu
}

// Engine holds many live per-device encoder sessions and routes batched
// ingest to them. All methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	opts   core.Options
	now    func() time.Time
	burst  float64 // resolved DeviceBurst (DeviceRate when unset)
	shards []shard
	q      *sinkQueue // async sink pipeline; nil without a Sink

	live        atomic.Int64
	opened      atomic.Int64
	points      atomic.Int64
	segments    atomic.Int64
	flushed     atomic.Int64
	evicted     atomic.Int64
	contended   atomic.Int64
	shed        atomic.Int64
	rateLimited atomic.Int64
	overloadRej atomic.Int64

	closed  atomic.Bool
	stop    chan struct{}
	janitor sync.WaitGroup
}

// NewEngine validates cfg and returns a running Engine. If
// cfg.EvictEvery > 0 a janitor goroutine runs until Close.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Zeta <= 0 {
		return nil, fmt.Errorf("stream: error bound ζ must be positive, got %g", cfg.Zeta)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("stream: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.SinkWriters < 0 {
		return nil, fmt.Errorf("stream: negative sink writer count %d", cfg.SinkWriters)
	}
	if cfg.SinkWriters == 0 {
		cfg.SinkWriters = DefaultSinkWriters
	}
	if cfg.SinkQueue < 0 {
		return nil, fmt.Errorf("stream: negative sink queue depth %d", cfg.SinkQueue)
	}
	if cfg.SinkQueue == 0 {
		cfg.SinkQueue = DefaultSinkQueue
	}
	if cfg.SinkSweep < 0 {
		return nil, fmt.Errorf("stream: negative sink sweep bound %d", cfg.SinkSweep)
	}
	if cfg.SinkSweep == 0 {
		cfg.SinkSweep = DefaultSinkSweep
	}
	if cfg.DeviceRate < 0 {
		return nil, fmt.Errorf("stream: negative device rate %g", cfg.DeviceRate)
	}
	if cfg.DeviceBurst < 0 {
		return nil, fmt.Errorf("stream: negative device burst %g", cfg.DeviceBurst)
	}
	if cfg.DeviceBurst > 0 && cfg.DeviceRate <= 0 {
		return nil, fmt.Errorf("stream: DeviceBurst %g without DeviceRate", cfg.DeviceBurst)
	}
	if cfg.QueueWatermark < 0 || cfg.QueueWatermark > 1 {
		return nil, fmt.Errorf("stream: queue watermark %g outside (0, 1]", cfg.QueueWatermark)
	}
	opts := core.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	// Fail now, not on the first ingest, if the configuration cannot
	// build an encoder.
	if _, err := newSessionEncoder(cfg.Zeta, cfg.Aggressive, opts); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		opts:   opts,
		now:    cfg.Clock,
		shards: make([]shard, cfg.Shards),
		stop:   make(chan struct{}),
	}
	if e.now == nil {
		//trajlint:ignore walltime this IS the clock seam: the one default the engine falls back to when Config.Clock is unset
		e.now = time.Now
	}
	e.burst = cfg.DeviceBurst
	if e.burst == 0 {
		e.burst = cfg.DeviceRate
	}
	for i := range e.shards {
		e.shards[i].sessions = make(map[string]*session)
	}
	if cfg.Sink != nil {
		e.q = newSinkQueue(cfg, e.now)
	}
	if cfg.EvictEvery > 0 && cfg.IdleAfter > 0 {
		e.janitor.Add(1)
		go e.runJanitor()
	}
	return e, nil
}

func newSessionEncoder(zeta float64, aggressive bool, opts core.Options) (encoder, error) {
	if aggressive {
		return core.NewAggressiveEncoder(zeta, opts)
	}
	return core.NewEncoder(zeta, opts)
}

// fnv1a is the 32-bit FNV-1a hash, inlined to hash device IDs without
// allocating.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (e *Engine) shard(device string) *shard {
	return &e.shards[fnv1a(device)%uint32(len(e.shards))]
}

// handoff finalizes a just-removed session and routes its tail to the
// Sink, returning a wait whose segs field is valid once wg is done.
// Caller holds the shard lock (so the tail is ordered after the
// session's batches and before any successor's) and must wg.Wait after
// releasing it. Without a Sink the session finishes inline.
func (e *Engine) handoff(device string, s *session, wg *sync.WaitGroup) *finishWait {
	res := &finishWait{wg: wg}
	wg.Add(1)
	if e.q != nil {
		e.q.putFinish(device, s, res)
		return res
	}
	res.segs = s.finish()
	wg.Done()
	return res
}

// Ingest feeds a batch of points to device's session, opening it on first
// contact, and returns the segments the batch finalized. Points must be in
// increasing time order per device across batches unless CleanWindow is
// set. The returned slice is the session's reusable out-buffer: it is
// valid until the next Ingest for the same device, so callers that keep
// segment values past that point — in particular past a moment when a
// concurrent caller might ingest the same device — must use IngestAppend
// instead (reading len() of the result is always safe).
func (e *Engine) Ingest(device string, pts []traj.Point) ([]traj.Segment, error) {
	return e.ingest(device, pts, nil)
}

// IngestAppend is Ingest for callers that retain segments: the batch's
// finalized segments are appended to dst — copied while the shard lock
// is still held, so the result can never be overwritten by a concurrent
// ingest for the same device — and the extended slice is returned. On
// error dst is returned unchanged.
func (e *Engine) IngestAppend(device string, pts []traj.Point, dst []traj.Segment) ([]traj.Segment, error) {
	out, err := e.ingest(device, pts, &dst)
	if err != nil {
		return dst, err
	}
	return out, nil
}

func (e *Engine) ingest(device string, pts []traj.Point, dst *[]traj.Segment) ([]traj.Segment, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if device == "" {
		return nil, ErrNoDevice
	}
	if len(device) > MaxDevice {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrDeviceTooLong, len(device), MaxDevice)
	}
	if len(pts) == 0 {
		if dst != nil {
			return *dst, nil
		}
		return nil, nil
	}
	sh := e.shard(device)
	shedTries := 0
acquire:
	// TryLock first so shard-lock contention — the quantity sharding
	// exists to eliminate — is observable in Stats.
	if !sh.mu.TryLock() {
		e.contended.Add(1)
		sh.mu.Lock()
	}
	// Re-check under the shard lock: Close sets the flag before draining
	// the shards, so an ingest that slips past the fast-path check above
	// while Close runs must not resurrect a session Close won't flush.
	if e.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	s := sh.sessions[device]
	// Without a cleaner the encoder trusts its input, so enforce the
	// time-order invariant up front — before the session is created or
	// touched, so a rejected batch changes nothing (not even the session
	// count) and the caller can retry repaired.
	batchLastT := int64(math.MinInt64)
	if e.cfg.CleanWindow <= 0 {
		prev := batchLastT
		if s != nil {
			prev = s.lastT
		}
		for _, p := range pts {
			if p.T <= prev {
				sh.mu.Unlock()
				return nil, fmt.Errorf("%w: device %s: t=%d after t=%d", ErrTimeOrder, device, p.T, prev)
			}
			prev = p.T
		}
		batchLastT = prev
	}
	if s == nil {
		// First contact while the sink queue is past its pressure
		// watermark: the disk is behind and a new session only deepens
		// the backlog. Reject with when-to-retry; existing sessions
		// (below) keep flowing until the queue is full.
		if e.q != nil && e.q.overloaded() {
			retry := e.q.retryAfter()
			sh.mu.Unlock()
			e.overloadRej.Add(1)
			return nil, &OverloadError{RetryAfter: retry, Reason: "sink queue past watermark"}
		}
		// Reserve the slot with the increment itself so concurrent
		// first-contact ingests on different shards cannot overshoot
		// MaxSessions between a read and an add.
		if n, max := e.live.Add(1), int64(e.cfg.MaxSessions); max > 0 && n > max {
			e.live.Add(-1)
			sh.mu.Unlock()
			// Shed the coldest session to make room — at most twice, so
			// a race-heavy moment degrades to the plain rejection rather
			// than an unbounded eviction storm.
			if e.cfg.ShedSessions && shedTries < 2 {
				shedTries++
				if e.shedColdest(device) {
					goto acquire
				}
			}
			return nil, fmt.Errorf("%w (%d live)", ErrSessionLimit, max)
		}
		enc, err := newSessionEncoder(e.cfg.Zeta, e.cfg.Aggressive, e.opts)
		if err != nil {
			e.live.Add(-1)
			sh.mu.Unlock()
			return nil, err
		}
		s = &session{enc: enc}
		if e.cfg.CleanWindow > 0 {
			s.clean = traj.NewCleaner(e.cfg.CleanWindow)
		}
		sh.sessions[device] = s
		e.opened.Add(1)
	}
	// Per-device rate limit: charge the bucket before any encoder or
	// ordering state changes, so a rejected batch is a clean no-op the
	// caller can retry after the error's RetryAfter. A session created
	// just above always admits its first batch (the bucket starts full).
	if e.cfg.DeviceRate > 0 {
		if err := e.admitRate(s, len(pts)); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	}
	s.lastT = batchLastT
	out := s.out[:0]
	for _, p := range pts {
		// Encoder Push returns a scratch slice reused by the next call;
		// append copies the segments out before that happens.
		if s.clean != nil {
			for _, q := range s.clean.Push(p) {
				out = append(out, s.enc.Push(q)...)
			}
		} else {
			out = append(out, s.enc.Push(p)...)
		}
	}
	s.out = out
	s.last = e.now()
	// The queue copies out before the lock drops (the session reuses the
	// buffer on its next batch): the only sink work in the critical
	// section is a memcpy, not I/O. Enqueuing under the shard lock is
	// what keeps one device's batches in emission order.
	if e.q != nil {
		e.q.putBatch(device, out)
	}
	result := out
	if dst != nil {
		// IngestAppend: the caller's copy is taken before the lock drops,
		// so no concurrent same-device ingest can overwrite it mid-read.
		*dst = append(*dst, out...)
		result = *dst
	}
	sh.mu.Unlock()
	e.points.Add(int64(len(pts)))
	e.segments.Add(int64(len(out)))
	return result, nil
}

// finish drains the cleaner into the encoder and flushes it, returning the
// session's trailing segments. Caller holds the shard lock.
func (s *session) finish() []traj.Segment {
	var out []traj.Segment
	if s.clean != nil {
		for _, q := range s.clean.Flush() {
			out = append(out, s.enc.Push(q)...)
		}
	}
	return append(out, s.enc.Flush()...)
}

// Flush finalizes and removes device's session, returning its trailing
// segments. It returns ErrNoSession if no session exists — e.g. on a
// duplicate flush. Flush returns only after the tail (and every batch
// the session emitted before it) has been handed to the Sink and
// committed; a *FlushError reports that the Sink lost the tail.
func (e *Engine) Flush(device string) ([]traj.Segment, error) {
	sh := e.shard(device)
	sh.mu.Lock()
	s := sh.sessions[device]
	if s == nil {
		sh.mu.Unlock()
		return nil, ErrNoSession
	}
	delete(sh.sessions, device)
	var wg sync.WaitGroup
	res := e.handoff(device, s, &wg)
	// Release the session slot before dropping the lock so a concurrent
	// first-contact ingest at MaxSessions sees the freed capacity.
	e.live.Add(-1)
	sh.mu.Unlock()
	wg.Wait()
	e.flushed.Add(1)
	e.segments.Add(int64(len(res.segs)))
	if res.err != nil {
		return res.segs, &FlushError{Devices: []string{device}, Err: res.err}
	}
	return res.segs, nil
}

// FlushAll finalizes every live session and returns their trailing
// segments by device. Each shard lock covers only session removal and
// queue handoff; the encoder flushes and sink appends run on the sink
// writers, in parallel across devices. FlushAll returns only after every
// segment emitted before the call — tails and queued ingest batches
// alike — has been handed to the Sink; a *FlushError names the devices
// whose tails the Sink lost.
func (e *Engine) FlushAll() (map[string][]traj.Segment, error) {
	var (
		wg    sync.WaitGroup
		devs  []string
		waits []*finishWait
	)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for dev, s := range sh.sessions {
			delete(sh.sessions, dev)
			devs = append(devs, dev)
			waits = append(waits, e.handoff(dev, s, &wg))
			e.live.Add(-1)
			e.flushed.Add(1)
		}
		sh.mu.Unlock()
	}
	wg.Wait()
	out := make(map[string][]traj.Segment, len(devs))
	for i, dev := range devs {
		out[dev] = waits[i].segs
		e.segments.Add(int64(len(waits[i].segs)))
	}
	if e.q != nil {
		e.q.drain()
	}
	return out, flushError(devs, waits)
}

// EvictIdle finalizes every session idle for at least Config.IdleAfter on
// the engine clock and returns the evictions, each persisted before the
// call returns. OnEvict, if set, observes each one. A zero IdleAfter
// makes this a no-op.
func (e *Engine) EvictIdle() []Eviction {
	if e.cfg.IdleAfter <= 0 {
		return nil
	}
	now := e.now()
	var (
		wg    sync.WaitGroup
		evs   []Eviction
		waits []*finishWait
	)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for dev, s := range sh.sessions {
			if now.Sub(s.last) < e.cfg.IdleAfter {
				continue
			}
			delete(sh.sessions, dev)
			evs = append(evs, Eviction{Device: dev})
			waits = append(waits, e.handoff(dev, s, &wg))
			e.live.Add(-1)
			e.evicted.Add(1)
		}
		sh.mu.Unlock()
	}
	wg.Wait()
	for i := range evs {
		evs[i].Segments = waits[i].segs
		e.segments.Add(int64(len(waits[i].segs)))
	}
	if e.cfg.OnEvict != nil {
		for _, ev := range evs {
			e.cfg.OnEvict(ev.Device, ev.Segments)
		}
	}
	return evs
}

func (e *Engine) runJanitor() {
	defer e.janitor.Done()
	//trajlint:ignore walltime eviction cadence is real elapsed time by design; tests call EvictIdle directly instead of waiting on this ticker
	tick := time.NewTicker(e.cfg.EvictEvery)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
			e.EvictIdle()
		}
	}
}

// Sessions returns the number of live sessions.
func (e *Engine) Sessions() int { return int(e.live.Load()) }

// Stats returns a snapshot of the engine-wide counters, including the
// sink's storage counters when the Sink exposes them.
func (e *Engine) Stats() Stats {
	st := Stats{
		Sessions:    int(e.live.Load()),
		Opened:      e.opened.Load(),
		Points:      e.points.Load(),
		Segments:    e.segments.Load(),
		Flushed:     e.flushed.Load(),
		Evicted:     e.evicted.Load(),
		Contended:   e.contended.Load(),
		Shed:        e.shed.Load(),
		RateLimited: e.rateLimited.Load(),
		Overloaded:  e.overloadRej.Load(),
	}
	if e.q != nil {
		st.SinkErrors = e.q.errs.Load()
		st.SinkErrorSegs = e.q.errSegs.Load()
		st.SinkAppends = e.q.apps.Load()
		st.SinkQueued = e.q.depth.Load()
		st.SinkBlocked = e.q.blocked.Load()
		st.SinkSweeps = e.q.sweeps.Load()
		st.SinkSweepBatches = e.q.sweepBatches.Load()
	}
	if ss, ok := e.cfg.Sink.(StatsSink); ok {
		sst := ss.Stats()
		st.Store = &sst
	}
	return st
}

// Close stops the janitor, rejects further ingest, finalizes every live
// session, and drains and stops the sink pipeline, returning the
// sessions' trailing segments by device. When Close returns, everything
// the engine ever emitted has been handed to the Sink; what the Sink
// lost shows in Stats.SinkErrors. Subsequent calls return nil.
func (e *Engine) Close() map[string][]traj.Segment {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.stop)
	e.janitor.Wait()
	out, _ := e.FlushAll()
	if e.q != nil {
		e.q.close()
	}
	return out
}

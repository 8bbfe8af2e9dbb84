package stream

import (
	"errors"
	"sync"
	"testing"
	"time"

	"trajsim/internal/traj"
)

// Tests for the admission-control layer (admission.go): per-device
// token-bucket rate limits, coldest-first load shedding at MaxSessions,
// and new-device rejection at the sink-queue pressure watermark.

// zig returns n points walking x forward with y alternating 0/9 —
// under a small ζ every point pair finalizes a segment, so each batch
// reaches the sink queue. t0 is the first timestamp in ms; points are
// 1 s apart.
func zig(t0 int64, n int) []traj.Point {
	pts := make([]traj.Point, n)
	for i := range pts {
		pts[i] = traj.At(float64(i)*7, float64(i%2)*9, t0+int64(i)*1000)
	}
	return pts
}

func TestOverloadErrorIs(t *testing.T) {
	err := error(&OverloadError{RetryAfter: time.Second, Reason: "test"})
	if !errors.Is(err, ErrOverloaded) {
		t.Error("errors.Is(&OverloadError{}, ErrOverloaded) = false")
	}
	if errors.Is(err, ErrSessionLimit) {
		t.Error("OverloadError matched ErrSessionLimit")
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != time.Second {
		t.Errorf("errors.As lost the retry delay: %+v", oe)
	}
}

// TestDeviceRateLimit: the token bucket admits up to the burst, rejects
// the overflow with a RetryAfter that is exactly the refill time, and
// admits again once the clock has advanced that far. A rejected batch
// leaves the session untouched.
func TestDeviceRateLimit(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	e, err := NewEngine(Config{Zeta: 40, DeviceRate: 10, DeviceBurst: 5, Clock: now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	pts := zig(0, 10)
	// The full burst admits at once.
	if _, err := e.Ingest("dev", pts[0:5]); err != nil {
		t.Fatalf("burst-sized batch: %v", err)
	}
	// The bucket is empty: one more point is over rate.
	_, err = e.Ingest("dev", pts[5:6])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-rate batch: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("over-rate error is %T, not *OverloadError", err)
	}
	// One token at 10 tokens/sec: 100 ms.
	if oe.RetryAfter != 100*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 100ms", oe.RetryAfter)
	}
	if got := e.Stats().RateLimited; got != 1 {
		t.Errorf("Stats.RateLimited = %d, want 1", got)
	}

	// Honoring the advice works: the bucket has exactly one token.
	advance(oe.RetryAfter)
	if _, err := e.Ingest("dev", pts[5:6]); err != nil {
		t.Fatalf("retry after the advertised delay: %v", err)
	}

	// A batch larger than the whole burst is admitted when the bucket
	// is full (no batch size may be permanently unserviceable) and
	// debits it below zero, stretching the next refill.
	advance(time.Hour)
	if _, err := e.Ingest("dev", zig(1_000_000, 8)); err != nil {
		t.Fatalf("oversized batch on a full bucket: %v", err)
	}
	_, err = e.Ingest("dev", zig(2_000_000, 1))
	if !errors.As(err, &oe) {
		t.Fatalf("batch after oversized debit: %v, want *OverloadError", err)
	}
	// Deficit: bucket at 5-8 = -3 tokens, need 1 → 4 tokens at 10/s.
	if oe.RetryAfter != 400*time.Millisecond {
		t.Errorf("post-oversized RetryAfter = %v, want 400ms", oe.RetryAfter)
	}
}

// TestShedColdest: at MaxSessions with ShedSessions, a new device
// displaces the session idle the longest — flushed durably (its tail is
// in the Sink before Ingest returns) and reported to OnEvict — rather
// than being rejected.
func TestShedColdest(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	sink := &memSink{}
	var evicted []string
	e, err := NewEngine(Config{
		Zeta: 5, MaxSessions: 2, ShedSessions: true, Sink: sink, Clock: now,
		OnEvict: func(dev string, _ []traj.Segment) { evicted = append(evicted, dev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Ingest("cold", zig(0, 4)); err != nil {
		t.Fatal(err)
	}
	advance(time.Minute)
	if _, err := e.Ingest("warm", zig(0, 4)); err != nil {
		t.Fatal(err)
	}
	advance(time.Minute)
	// Third device at MaxSessions=2: "cold" must make way.
	if _, err := e.Ingest("new", zig(0, 4)); err != nil {
		t.Fatalf("ingest at the cap with shedding on: %v", err)
	}
	if got := e.Sessions(); got != 2 {
		t.Errorf("Sessions = %d after shed, want 2", got)
	}
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Errorf("OnEvict saw %v, want [cold]", evicted)
	}
	if got := e.Stats().Shed; got != 1 {
		t.Errorf("Stats.Shed = %d, want 1", got)
	}
	// Durable flush: the shed session's segments (including its tail)
	// were in the Sink before the displacing Ingest returned.
	sink.mu.Lock()
	coldSegs := len(sink.segs["cold"])
	sink.mu.Unlock()
	if coldSegs == 0 {
		t.Error("shed session left no segments in the sink")
	}
	// The warmer sessions survived.
	if _, err := e.Flush("warm"); err != nil {
		t.Errorf("warm session was shed instead of the coldest: %v", err)
	}
	if _, err := e.Flush("new"); err != nil {
		t.Errorf("the admitted new session is missing: %v", err)
	}
}

// TestShedDisabledKeepsSessionLimit: without ShedSessions the cap still
// rejects with ErrSessionLimit — the pre-existing contract.
func TestShedDisabledKeepsSessionLimit(t *testing.T) {
	e, err := NewEngine(Config{Zeta: 40, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Ingest("a", zig(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest("b", zig(0, 2)); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second device: %v, want ErrSessionLimit", err)
	}
}

// stallSink blocks every AppendNoSync until release is closed,
// signalling each entry — a disk that has stopped answering, visible to
// the test.
type stallSink struct {
	entered chan struct{}
	release chan struct{}
}

func (s *stallSink) AppendNoSync(device string, segs []traj.Segment) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

func (s *stallSink) CommitDevices([]string) error { return nil }

// TestQueueWatermarkRejectsNewDevices: with the sink wedged and the
// queue past its watermark, a new device is rejected with ErrOverloaded
// and a positive RetryAfter while an existing session still enqueues;
// once the queue drains, new devices are admitted again.
func TestQueueWatermarkRejectsNewDevices(t *testing.T) {
	sink := &stallSink{entered: make(chan struct{}, 64), release: make(chan struct{})}
	e, err := NewEngine(Config{
		Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 8, QueueWatermark: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Wedge the single worker: first batch reaches Append and stalls.
	if _, err := e.Ingest("live", zig(0, 4)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered
	// Build a backlog past the watermark (0.25 × 1×8 = 2 ops). The
	// worker is inside Append, so these stay queued.
	for i := int64(1); e.q.depth.Load() < 4; i++ {
		if _, err := e.Ingest("live", zig(i*100_000, 4)); err != nil {
			t.Fatalf("existing device past watermark: %v", err)
		}
	}

	_, err = e.Ingest("newcomer", zig(0, 4))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("new device past watermark: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload rejection carries no positive RetryAfter: %+v", err)
	}
	if got := e.Stats().Overloaded; got != 1 {
		t.Errorf("Stats.Overloaded = %d, want 1", got)
	}
	if e.Sessions() != 1 {
		t.Errorf("Sessions = %d, want 1 (newcomer rejected)", e.Sessions())
	}
	if !e.Overloaded() {
		t.Error("Engine.Overloaded() = false while past the watermark")
	}

	// The disk recovers: the backlog drains and new devices admit.
	// (entered is buffered far beyond the queue, so no drain needed.)
	close(sink.release)
	deadline := time.Now().Add(5 * time.Second)
	for e.q.depth.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("sink queue never drained after release")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Ingest("newcomer", zig(0, 4)); err != nil {
		t.Fatalf("new device after drain: %v", err)
	}
	if e.Overloaded() {
		t.Error("Engine.Overloaded() = true after the queue drained")
	}
}

// TestRetryAfterBeforeFirstSample: until a drain-rate sample of at
// least 50 ms completes the rate is unknown, not zero, so the first
// watermark rejection advises the minimum delay; once a sample has
// measured a wedged sink (nothing drained), the advice is the maximum.
func TestRetryAfterBeforeFirstSample(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	sink := &stallSink{entered: make(chan struct{}, 64), release: make(chan struct{})}
	e, err := NewEngine(Config{
		Zeta: 5, Sink: sink, SinkWriters: 1, SinkQueue: 8, QueueWatermark: 0.25, Clock: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer close(sink.release)

	// Wedge the single worker, then queue past the watermark.
	if _, err := e.Ingest("live", zig(0, 4)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered
	for i := int64(1); e.q.depth.Load() < 4; i++ {
		if _, err := e.Ingest("live", zig(i*100_000, 4)); err != nil {
			t.Fatalf("existing device past watermark: %v", err)
		}
	}
	retryAfter := func() time.Duration {
		t.Helper()
		_, err := e.Ingest("newcomer", zig(0, 4))
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("new device past watermark: %v, want *OverloadError", err)
		}
		return oe.RetryAfter
	}
	if got := retryAfter(); got != minRetryAfter {
		t.Errorf("first rejection advises %v, want %v (no drain-rate sample yet)", got, minRetryAfter)
	}
	advance(60 * time.Millisecond)
	if got := retryAfter(); got != maxRetryAfter {
		t.Errorf("after 60 ms with nothing drained the advice is %v, want %v", got, maxRetryAfter)
	}
}

// TestAdmissionConfigValidation: malformed admission knobs fail
// NewEngine, not the first ingest.
func TestAdmissionConfigValidation(t *testing.T) {
	bad := []Config{
		{Zeta: 40, DeviceRate: -1},
		{Zeta: 40, DeviceBurst: -1},
		{Zeta: 40, DeviceBurst: 10}, // burst without rate
		{Zeta: 40, QueueWatermark: -0.1},
		{Zeta: 40, QueueWatermark: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

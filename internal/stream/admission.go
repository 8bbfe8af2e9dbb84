package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Admission control: what the engine does when demand exceeds capacity.
// Three mechanisms, all opt-in via Config:
//
//   - Per-device token buckets (DeviceRate/DeviceBurst): one device
//     cannot monopolize the service. A batch needs one token per point;
//     an over-rate batch is rejected with an OverloadError whose
//     RetryAfter says exactly when the bucket will have refilled.
//   - Coldest-first load shedding (ShedSessions): at MaxSessions, the
//     session idle the longest is flushed durably — through the same
//     drain barrier Flush uses, so its tail reaches the Sink before the
//     slot is reused — instead of the new device being turned away. The
//     coldest session is the one most likely idle for good; the new
//     device is demonstrably live.
//   - Queue-pressure backoff (QueueWatermark): when the async sink
//     queue is nearly full the disk is already behind, so opening more
//     sessions only deepens the backlog. New devices are rejected with
//     a RetryAfter derived from the queue's measured drain rate;
//     existing sessions keep flowing until the queue is full.
//
// Everything here is inert when unconfigured: the checks sit behind
// Config-field guards, so the default ingest path pays nothing.

// ErrOverloaded is the sentinel matched by errors.Is for every
// admission-control rejection. The concrete error is always an
// *OverloadError carrying the retry delay.
var ErrOverloaded = errors.New("stream: overloaded")

// OverloadError is an admission-control rejection: the engine is over
// capacity on some axis and the caller should retry after RetryAfter.
// It matches ErrOverloaded under errors.Is; HTTP frontends map it to
// 429 with a Retry-After header.
type OverloadError struct {
	// RetryAfter is when retrying can plausibly succeed: the token
	// deficit divided by the refill rate for a rate-limited device, or
	// the queue backlog divided by its measured drain rate under queue
	// pressure. Always positive.
	RetryAfter time.Duration
	// Reason says which limit fired, for logs and error bodies.
	Reason string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("stream: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match any *OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// admitRate charges the session's token bucket for a batch of n points,
// refilling first. Caller holds the shard lock and has checked
// DeviceRate > 0. Returns nil and debits the bucket on admission;
// returns the rejection otherwise, leaving the session untouched.
//
// A batch larger than the whole burst is admitted whenever the bucket
// is full — it debits the bucket below zero, stretching the next
// refill — so no batch size is permanently unserviceable.
func (e *Engine) admitRate(s *session, n int) error {
	now := e.now()
	if !s.tokAt.IsZero() {
		s.tokens = math.Min(e.burst, s.tokens+e.cfg.DeviceRate*now.Sub(s.tokAt).Seconds())
	} else {
		s.tokens = e.burst // first charge: a new bucket starts full
	}
	s.tokAt = now
	need := float64(n)
	if adm := math.Min(need, e.burst); s.tokens < adm {
		wait := time.Duration((adm - s.tokens) / e.cfg.DeviceRate * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		e.rateLimited.Add(1)
		return &OverloadError{RetryAfter: wait, Reason: "device rate limit"}
	}
	s.tokens -= need
	return nil
}

// shedColdest flushes the live session idle the longest, durably (its
// tail passes the sink drain barrier before this returns), freeing one
// session slot. except is never shed — the device whose admission
// triggered the shed, so a racing first-contact cannot evict itself.
// Reports whether a session was shed. Caller must hold no shard lock.
//
// Two passes: a scan for the coldest candidate (one shard lock at a
// time), then a re-locked removal that verifies the candidate neither
// vanished nor went hot in between — shedding a session that just
// ingested would throw away the liveness signal the policy exists to
// honor.
func (e *Engine) shedColdest(except string) bool {
	var (
		coldDev string
		coldAt  time.Time
		coldSh  *shard
	)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for dev, s := range sh.sessions {
			if dev == except {
				continue
			}
			if coldSh == nil || s.last.Before(coldAt) {
				coldDev, coldAt, coldSh = dev, s.last, sh
			}
		}
		sh.mu.Unlock()
	}
	if coldSh == nil {
		return false
	}
	coldSh.mu.Lock()
	s := coldSh.sessions[coldDev]
	if s == nil || s.last.After(coldAt) {
		coldSh.mu.Unlock()
		return false
	}
	delete(coldSh.sessions, coldDev)
	var wg sync.WaitGroup
	res := e.handoff(coldDev, s, &wg)
	e.live.Add(-1)
	coldSh.mu.Unlock()
	wg.Wait()
	e.shed.Add(1)
	e.segments.Add(int64(len(res.segs)))
	if e.cfg.OnEvict != nil {
		e.cfg.OnEvict(coldDev, res.segs)
	}
	return true
}

// Overloaded reports whether the sink queue is past its pressure
// watermark — the state in which new-device ingest is being rejected
// with ErrOverloaded. Always false without a QueueWatermark (or
// without an async sink). Health endpoints use this to report
// degradation before clients discover it as 429s.
func (e *Engine) Overloaded() bool {
	return e.q != nil && e.q.overloaded()
}

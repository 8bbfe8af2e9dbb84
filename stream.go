package trajsim

import (
	"trajsim/internal/stream"
)

// Live multi-stream ingestion, re-exported from internal/stream: an
// Engine holds thousands of concurrent per-device encoder sessions — the
// paper's fleet-of-devices deployment moved server-side.
type (
	// Engine is a sharded live-session streaming engine. Ingest batched
	// points per device; each session runs its own O(1)-space OPERB or
	// OPERB-A encoder (plus optional stream cleaner) and idle sessions
	// are evicted on a monotonic clock.
	Engine = stream.Engine
	// EngineConfig parameterizes NewEngine; Zeta (meters) is required.
	EngineConfig = stream.Config
	// EngineStats are the engine-wide counters: live sessions, points
	// ingested, segments emitted, flushes and evictions — plus, when the
	// Sink is a SegmentStore, the storage tier's counters in .Store.
	EngineStats = stream.Stats
	// Eviction is one idle session finalized by Engine.EvictIdle.
	Eviction = stream.Eviction
	// SegmentSink receives every finalized segment batch the engine
	// emits, as one AppendNoSync per device and one CommitDevices per
	// sink-writer sweep; a *SegmentStore is the canonical
	// implementation. Set it on EngineConfig.Sink for durability. The
	// calls run on the engine's async sink pipeline, outside the ingest
	// critical section, ordered per device; a full queue blocks ingest
	// until the sink catches up. See the EngineConfig Sink* fields.
	SegmentSink = stream.Sink
	// OverloadError is an admission-control rejection — a per-device
	// rate limit or sink-queue pressure — carrying RetryAfter, when
	// retrying can plausibly succeed. Matches ErrOverloaded under
	// errors.Is. Configure via EngineConfig.DeviceRate/DeviceBurst/
	// QueueWatermark/ShedSessions.
	OverloadError = stream.OverloadError
	// FlushError reports the devices whose flushed tails the sink lost:
	// Engine.Flush and FlushAll return it when the sweep that carried a
	// tail failed its append or its commit.
	FlushError = stream.FlushError
)

// Sink-queue defaults, re-exported.
const (
	// DefaultSinkWriters is the sink writer-goroutine count when
	// EngineConfig.SinkWriters is zero.
	DefaultSinkWriters = stream.DefaultSinkWriters
	// DefaultSinkQueue is the per-writer sink queue depth when
	// EngineConfig.SinkQueue is zero.
	DefaultSinkQueue = stream.DefaultSinkQueue
)

// MaxDevice is the longest accepted device ID in bytes, shared by the
// engine and the segment store.
const MaxDevice = stream.MaxDevice

// Engine errors, re-exported for errors.Is.
var (
	ErrEngineClosed  = stream.ErrClosed
	ErrNoDevice      = stream.ErrNoDevice
	ErrDeviceTooLong = stream.ErrDeviceTooLong
	ErrSessionLimit  = stream.ErrSessionLimit
	ErrTimeOrder     = stream.ErrTimeOrder
	ErrNoSession     = stream.ErrNoSession
	// ErrOverloaded matches every admission-control rejection; the
	// concrete error is always an *OverloadError with the retry delay.
	ErrOverloaded = stream.ErrOverloaded
)

// NewEngine returns a live-session streaming engine.
//
//	eng, _ := trajsim.NewEngine(trajsim.EngineConfig{Zeta: 40, Aggressive: true})
//	segs, _ := eng.Ingest("vehicle-7", batch) // segments finalized by batch
//	tail, _ := eng.Flush("vehicle-7")         // end of stream
func NewEngine(cfg EngineConfig) (*Engine, error) { return stream.NewEngine(cfg) }

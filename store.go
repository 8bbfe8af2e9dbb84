package trajsim

import (
	"trajsim/internal/segstore"
)

// Durable segment persistence, re-exported from internal/segstore: an
// append-only, crash-recoverable per-device log of finalized segments.
// Plug a SegmentStore into EngineConfig.Sink and every segment the
// engine emits survives a restart; Replay serves it back.
//
// The store is resource-bounded: SegmentStoreConfig.MaxOpenFiles caps
// how many device logs hold an open file handle, and at most 65,536
// keep their metadata in memory; one residency walk transparently
// closes, drops and reopens cold logs. MaxLogBytes / MaxLogAge bound
// each device's disk usage via retention — whole rotated files are
// deleted oldest-first, never splitting a record, so whatever survives
// replays as an intact, contiguous suffix; under MaxLogAge, expired
// record prefixes of the oldest file are truncated away too. Retention
// runs at rotation, at first open, on a background tick, and on demand
// via SegmentStore.CompactNow.
//
// Each log file carries a sparse time index (a CRC-framed .idx sidecar,
// rebuilt from the data if ever missing or stale), which is what makes
// ReplayRange and SegmentAt seek to the covering records instead of
// scanning the log. Reads run concurrently with appends — queries
// snapshot the log and decode outside its lock — and setting
// SegmentStoreConfig.ReadCacheBytes (DefaultReadCacheBytes is a
// sensible budget) serves repeated queries from a cache of packed spans
// with no disk I/O.
type (
	// SegmentStore is an append-only segment log over one directory:
	// CRC-framed, varint delta-coded records in size-rotated files, with
	// torn-tail recovery on open, bounded file handles and resident
	// metadata, and per-device retention.
	SegmentStore = segstore.Store
	// SegmentStoreConfig parameterizes OpenSegmentStore; Dir is required.
	SegmentStoreConfig = segstore.Config
	// SegmentStoreStats are the store-wide counters: appends, segments,
	// bytes, fsyncs, recovery truncations, handle hits/misses/evictions,
	// resident logs and their evictions, and retention's bytes reclaimed /
	// files deleted.
	SegmentStoreStats = segstore.Stats
	// SyncPolicy selects when appends are fsynced.
	SyncPolicy = segstore.SyncPolicy
)

// DefaultMaxOpenFiles is the file-handle cap applied when
// SegmentStoreConfig.MaxOpenFiles is zero.
const DefaultMaxOpenFiles = segstore.DefaultMaxOpenFiles

// DefaultReadCacheBytes is a sensible serving-tier budget for
// SegmentStoreConfig.ReadCacheBytes (which defaults to 0 — no caching).
const DefaultReadCacheBytes = segstore.DefaultReadCacheBytes

// Fsync policies for SegmentStoreConfig.Sync.
const (
	// SyncInterval fsyncs dirty logs in the background (the default).
	SyncInterval = segstore.SyncInterval
	// SyncAlways fsyncs every append.
	SyncAlways = segstore.SyncAlways
	// SyncNever leaves flushing to the OS.
	SyncNever = segstore.SyncNever
)

// Segment-store errors, re-exported for errors.Is.
var (
	ErrStoreClosed  = segstore.ErrClosed
	ErrStoreCorrupt = segstore.ErrCorrupt
	ErrDeviceID     = segstore.ErrDeviceID
	// ErrNoPosition is returned by SegmentStore.SegmentAt when no
	// persisted segment covers the requested time.
	ErrNoPosition = segstore.ErrNoPosition
)

// OpenSegmentStore opens (creating if needed) a durable segment store.
//
//	store, _ := trajsim.OpenSegmentStore(trajsim.SegmentStoreConfig{Dir: "data"})
//	eng, _ := trajsim.NewEngine(trajsim.EngineConfig{Zeta: 40, Sink: store})
//	...
//	eng.Close()  // flush tails into the store
//	store.Close()
//	segs, _ := store.Replay("vehicle-7") // everything persisted, in order
func OpenSegmentStore(cfg SegmentStoreConfig) (*SegmentStore, error) {
	return segstore.Open(cfg)
}

// ParseSyncPolicy parses "interval", "always" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return segstore.ParseSyncPolicy(s) }

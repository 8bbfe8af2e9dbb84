package segstore

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"trajsim/internal/traj"
)

// The granule cache is the read path's answer to the write path's group
// commit: the same decoded segments should not cost a pread and a varint
// decode on every query. A granule is one index-entry span of one log
// file — a byte range starting and ending on record boundaries, the unit
// every query reads through Store.span (read.go) — cached store-wide as
// its decoded []traj.Segment under a byte budget (Config.ReadCacheBytes).
//
// Keys carry the span's end offset as well as its start. Spans of sealed
// files are immutable, so their keys are stable; the live file's final
// span grows with every append, which under (device, seq, off, end)
// keying simply becomes a *new* key — the stale predecessor ages out of
// the LRU with no write-path invalidation hook. The same property makes
// rotation and re-ingest overlap no-ops for the cache: rotation freezes
// the tail index with the byte spans it already had, and re-ingest only
// appends new records. The two operations that rewrite existing bytes —
// whole-file retention deletes and expired-prefix truncation — must (and
// do, see compact.go) call invalidateFile before the offsets can be
// reused.
//
// Cached slices are immutable: readers copy segments out (an append of
// struct values, no decode), SegmentAt scans them in place. A granule is
// only inserted after a successful CRC-checked decode of exactly its key
// span, so a cached answer is always the decode of the bytes the key
// names — the coherence oracle test (cache_test.go) checks this against
// a raw rescan after every mutation the store supports.
//
// Concurrent misses on one key are collapsed by a per-key singleflight:
// the first reader does the pread+decode, the rest wait and share the
// result. Hits count reads served without I/O (including singleflight
// waiters); misses count actual pread+decode fetches.

// granuleKey names one immutable decoded byte span of a log file.
type granuleKey struct {
	device   string
	seq      int
	off, end int64
}

// fileKey names a whole log file, the invalidation granularity.
type fileKey struct {
	device string
	seq    int
}

// granule is one cached decoded span.
type granule struct {
	key  granuleKey
	segs []traj.Segment
	cost int64
	elem *list.Element
}

// inflightGranule is a singleflight slot: the leader fills segs/err and
// closes done; waiters block on done and share the result.
type inflightGranule struct {
	done chan struct{}
	segs []traj.Segment
	err  error
}

// granuleCost approximates a granule's resident bytes: the decoded
// segments plus fixed per-entry bookkeeping (map buckets, list element,
// the granule struct itself).
const granuleOverhead = 256

var segmentBytes = int64(unsafe.Sizeof(traj.Segment{}))

func granuleCost(segs []traj.Segment) int64 {
	return granuleOverhead + int64(cap(segs))*segmentBytes
}

// granuleCache is the store-wide decoded-granule LRU. All fields are
// guarded by mu except the counters; it takes no other lock, so it nests
// freely inside deviceLog.mu (invalidateFile runs under it) and is never
// held across I/O (load's fetch runs outside).
type granuleCache struct {
	budget int64

	mu       sync.Mutex
	ll       list.List                           //trajlint:guardedby mu -- *granule, most recently used at the front
	byKey    map[granuleKey]*granule             //trajlint:guardedby mu
	byFile   map[fileKey]map[granuleKey]*granule //trajlint:guardedby mu
	inflight map[granuleKey]*inflightGranule     //trajlint:guardedby mu
	bytes    int64                               //trajlint:guardedby mu

	hits   atomic.Int64
	misses atomic.Int64
}

func newGranuleCache(budget int64) *granuleCache {
	return &granuleCache{
		budget:   budget,
		byKey:    make(map[granuleKey]*granule),
		byFile:   make(map[fileKey]map[granuleKey]*granule),
		inflight: make(map[granuleKey]*inflightGranule),
	}
}

// get returns key's decoded span if resident — the hot path, taken
// before the caller even builds a fetch closure, so a cached query
// allocates nothing here. The returned slice is shared and read-only.
func (c *granuleCache) get(key granuleKey) ([]traj.Segment, bool) {
	c.mu.Lock()
	g, ok := c.byKey[key]
	if ok {
		c.ll.MoveToFront(g.elem)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return g.segs, true
}

// load returns key's decoded span, fetching (and caching) it on a miss.
// fetch runs with no cache lock held; concurrent loads of the same key
// share one fetch. The returned slice is shared and must be treated as
// read-only.
func (c *granuleCache) load(key granuleKey, fetch func() ([]traj.Segment, error)) ([]traj.Segment, error) {
	c.mu.Lock()
	if g, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(g.elem)
		c.mu.Unlock()
		c.hits.Add(1)
		return g.segs, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		c.hits.Add(1) // shared the leader's fetch: no extra I/O
		return fl.segs, nil
	}
	fl := &inflightGranule{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	segs, err := fetch()
	fl.segs, fl.err = segs, err
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key, segs)
	}
	c.mu.Unlock()
	close(fl.done)
	return segs, err
}

// insertLocked adds one fetched granule and evicts the coldest entries
// while the budget is exceeded. A span too large to ever fit is not
// cached at all. Caller holds c.mu.
//
//trajlint:holds c.mu
func (c *granuleCache) insertLocked(key granuleKey, segs []traj.Segment) {
	if c.byKey[key] != nil {
		return // a racing invalidate+reload beat us; keep the resident one
	}
	cost := granuleCost(segs)
	if cost > c.budget {
		return
	}
	g := &granule{key: key, segs: segs, cost: cost}
	g.elem = c.ll.PushFront(g)
	c.byKey[key] = g
	fk := fileKey{key.device, key.seq}
	m := c.byFile[fk]
	if m == nil {
		m = make(map[granuleKey]*granule)
		c.byFile[fk] = m
	}
	m[key] = g
	c.bytes += cost
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil || back == g.elem {
			break
		}
		c.removeLocked(back.Value.(*granule))
	}
}

// removeLocked unlinks one granule from every structure. Caller holds
// c.mu.
//
//trajlint:holds c.mu
func (c *granuleCache) removeLocked(g *granule) {
	c.ll.Remove(g.elem)
	delete(c.byKey, g.key)
	fk := fileKey{g.key.device, g.key.seq}
	if m := c.byFile[fk]; m != nil {
		delete(m, g.key)
		if len(m) == 0 {
			delete(c.byFile, fk)
		}
	}
	c.bytes -= g.cost
}

// invalidateFile drops every granule of (device, seq) — required before
// the bytes behind those keys can change or their offsets be reused:
// whole-file retention deletes and expired-prefix truncation. Safe (and
// cheap) to call for files that were never cached.
func (c *granuleCache) invalidateFile(device string, seq int) {
	c.mu.Lock()
	for _, g := range c.byFile[fileKey{device, seq}] {
		c.removeLocked(g)
	}
	c.mu.Unlock()
}

// The stats accessors are nil-safe so Stats() reads zeros from a store
// with the cache off.

func (c *granuleCache) hitCount() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

func (c *granuleCache) missCount() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// sizeBytes reports the resident decoded bytes.
func (c *granuleCache) sizeBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

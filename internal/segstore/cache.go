package segstore

import (
	"container/list"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The granule cache is the read path's answer to the write path's group
// commit: the same segments should not cost a pread and a varint decode
// on every query. A granule is one index-entry span of one log file — a
// byte range starting and ending on record boundaries, the unit every
// query reads through Store.span (read.go) — cached store-wide in a
// packed form (packedSpan, packed.go) under a byte budget
// (Config.ReadCacheBytes).
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
// Admission is TinyLFU (Einziger et al., "TinyLFU: A Highly Efficient
// Cache Admission Policy", ACM ToS 2017). Every access — hit or miss —
// counts its key in a small count-min sketch sized from the budget and
// aged by halving after a fixed number of accesses. A miss whose span
// fits in what is left of the budget is admitted, as any miss is while
// the cache fills. Once the budget is reached, a miss is admitted only
// when its estimated frequency is higher than the LRU victim's; any
// other miss is declined. A declined miss is served the way a cache-off
// read is — pread into the reader's buffer, decode into its scratch — so
// a working set far larger than the budget costs what no cache would,
// instead of allocating, admitting and evicting a granule per read that
// is rarely read again. A one-pass scan cannot flush a hot set: its
// granules are each seen once.
//
// Granules are packed and immutable: a cached segment costs 24 bytes
// and holds no pointer, against the 72 of a traj.Segment, and
// readers rebuild only the segments a query returns, SegmentAt and
// ReplayRange filtering on the packed times. A span whose values do not
// rebuild bit-identically from the packed widths is not cached: it is
// served as a declined miss. A granule is only inserted after a
// successful CRC-checked decode of exactly its key span, so a cached
// answer is always the decode of the bytes the key names — the coherence
// oracle test (cache_test.go) checks this against a raw rescan after
// every mutation the store supports.
//
// Concurrent admitted misses on one key are collapsed by a per-key
// singleflight: the first reader does the pread+decode, the rest wait
// and share the result. Hits count reads served without I/O (including
// singleflight waiters); misses count actual pread+decode fetches,
// declined ones included.

// granuleKey names one immutable byte span of a log file.
type granuleKey struct {
	device   string
	seq      int
	off, end int64
}

// hash is the key's sketch hash: FNV-1a over the device, then the
// numeric fields folded in through a 64-bit finalizer. It is a fixed
// function of the key, so admission decisions replay across runs.
func (k granuleKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.device); i++ {
		h = (h ^ uint64(k.device[i])) * 1099511628211
	}
	h = mix64(h ^ uint64(k.seq))
	h = mix64(h ^ uint64(k.off))
	return mix64(h ^ uint64(k.end))
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// fileKey names a whole log file, the invalidation granularity.
type fileKey struct {
	device string
	seq    int
}

// granule is one cached span.
type granule struct {
	key  granuleKey
	span *packedSpan
	cost int64
	elem *list.Element
}

// inflightGranule is a singleflight slot: the leader fills span/err and
// closes done; waiters block on done and share the result. Both nil
// means the leader's span did not pack, and each waiter reads it itself.
type inflightGranule struct {
	done chan struct{}
	span *packedSpan
	err  error
}

// granuleOverhead approximates a granule's fixed resident bytes: the
// granule and packedSpan structs, its list element and its entries in
// byKey and byFile — about 840 bytes on amd64 for a granule alone in its
// file, whose byFile entry is then a map of its own, and less when a
// file holds several.
const granuleOverhead = 800

// granuleCost is a packed granule's resident bytes: its segments and
// side table plus the fixed overhead.
func granuleCost(p *packedSpan) int64 {
	return granuleOverhead + int64(cap(p.segs))*packedSegBytes + int64(cap(p.starts))*packedStartBytes
}

// maxGranuleCost bounds the packed cost of a span of n bytes before it is
// read. No segment takes fewer than minSegBytesV2 bytes on disk, in
// either record layout, and none that needs a side-table entry fewer
// than minStoredBytes, so the densest span packs at most
// packedSegBytes + packedStartBytes per minStoredBytes bytes.
func maxGranuleCost(n int64) int64 {
	return granuleOverhead + n*(packedSegBytes+packedStartBytes)/minStoredBytes
}

// granuleCache is the store-wide granule LRU. All fields are guarded by
// mu except the counters; it takes no other lock, so it nests freely
// inside deviceLog.mu (invalidateFile runs under it) and is never held
// across I/O (load's fetch runs outside).
type granuleCache struct {
	budget int64

	mu       sync.Mutex
	ll       list.List                           //trajlint:guardedby mu -- *granule, most recently used at the front
	byKey    map[granuleKey]*granule             //trajlint:guardedby mu
	byFile   map[fileKey]map[granuleKey]*granule //trajlint:guardedby mu
	inflight map[granuleKey]*inflightGranule     //trajlint:guardedby mu
	bytes    int64                               //trajlint:guardedby mu
	freq     sketch                              //trajlint:guardedby mu

	hits     atomic.Int64
	misses   atomic.Int64
	declined atomic.Int64
}

func newGranuleCache(budget int64) *granuleCache {
	return &granuleCache{
		budget:   budget,
		byKey:    make(map[granuleKey]*granule),
		byFile:   make(map[fileKey]map[granuleKey]*granule),
		inflight: make(map[granuleKey]*inflightGranule),
		freq:     newSketch(budget),
	}
}

// get counts one access of key and returns its packed span if resident
// — the hot path, taken before the caller even builds a fetch closure,
// so a cached query allocates nothing here. The returned span is shared
// and read-only. On a miss, admit reports whether the span, spanBytes
// long on disk, should be fetched through load and kept; a declined
// miss is counted here, and the caller reads it without the cache.
func (c *granuleCache) get(key granuleKey, spanBytes int64) (p *packedSpan, hit, admit bool) {
	h := key.hash()
	c.mu.Lock()
	c.freq.add(h)
	if g, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(g.elem)
		c.mu.Unlock()
		c.hits.Add(1)
		return g.span, true, true
	}
	admit = c.inflight[key] != nil || c.admitLocked(h, spanBytes)
	c.mu.Unlock()
	if !admit {
		c.misses.Add(1)
		c.declined.Add(1)
	}
	return nil, false, admit
}

// admitLocked is the TinyLFU admission test for a missed span: admit it
// while it fits in the unused budget, else only if it is more frequent
// than the LRU victim it would displace. Caller holds c.mu.
//
//trajlint:holds c.mu
func (c *granuleCache) admitLocked(h uint64, spanBytes int64) bool {
	if c.bytes+maxGranuleCost(spanBytes) <= c.budget {
		return true
	}
	back := c.ll.Back()
	return back == nil || c.freq.estimate(h) > c.freq.estimate(back.Value.(*granule).key.hash())
}

// load returns key's packed span, fetching (and caching) it on a miss
// that get admitted. fetch runs with no cache lock held and returns
// either a packed span the cache can keep or, when the span does not
// pack, the caller's own view of its decoded segments, which load hands
// back uncached and counts as a declined miss. Concurrent loads of the
// same key share one fetch; a waiter whose leader's span did not pack
// gets nil, a declined miss it must read itself. A returned cached span
// is shared and must be treated as read-only.
func (c *granuleCache) load(key granuleKey, fetch func() (*packedSpan, error)) (*packedSpan, error) {
	c.mu.Lock()
	if g, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(g.elem)
		c.mu.Unlock()
		c.hits.Add(1)
		return g.span, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		switch {
		case fl.err != nil:
			return nil, fl.err
		case fl.span == nil:
			c.misses.Add(1)
			c.declined.Add(1)
			return nil, nil
		}
		c.hits.Add(1) // shared the leader's fetch: no extra I/O
		return fl.span, nil
	}
	fl := &inflightGranule{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	p, err := fetch()
	keep := err == nil && p.raw == nil
	if keep {
		fl.span = p
	} else if err == nil {
		c.declined.Add(1)
	}
	fl.err = err
	c.mu.Lock()
	delete(c.inflight, key)
	if keep {
		c.insertLocked(key, p)
	}
	c.mu.Unlock()
	close(fl.done)
	return p, err
}

// insertLocked adds one fetched granule and evicts the coldest entries
// while the budget is exceeded. A span too large to ever fit is not
// cached at all. Caller holds c.mu.
//
//trajlint:holds c.mu
func (c *granuleCache) insertLocked(key granuleKey, p *packedSpan) {
	if c.byKey[key] != nil {
		return // a racing invalidate+reload beat us; keep the resident one
	}
	cost := granuleCost(p)
	if cost > c.budget {
		return
	}
	g := &granule{key: key, span: p, cost: cost}
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

func (c *granuleCache) declinedCount() int64 {
	if c == nil {
		return 0
	}
	return c.declined.Load()
}

// sizeBytes reports the resident packed bytes.
func (c *granuleCache) sizeBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// sketch is TinyLFU's frequency filter: a count-min sketch of 4-bit
// counters, two to a byte, saturating at 15. A key's four counters, one
// per row, lie in one 32-byte block chosen by its hash — sixteen
// counters of each row per block, as in Caffeine's sketch — so counting
// an access touches one cache line. After sample accesses every counter
// is halved, so estimates follow what is popular now rather than what
// ever was. The counters are allocated by the first access, so a store
// that never reads holds none.
type sketch struct {
	counts []uint8 // blocks of 64 counters, 16 per row; counter i is nibble i&1 of byte i/2
	blocks uint64  // a power of two
	n      int     // accesses counted since the last halving, halved with it
	sample int
}

const (
	// The sketch is sized for entries = budget/sketchGranule granules
	// (at least sketchMinEntries): it halves its counters after 10 ×
	// entries accesses, the sample TinyLFU prescribes, and each row has
	// one counter per access in a sample, rounded up to a power of two —
	// half a byte per counter, four rows: under 0.5% of any budget from
	// 128 KiB up. 8 KiB is a small granule, so entries errs high and the
	// sketch ages slowly; a granule read again after a pause keeps its
	// count. On servebench's mixed-live workload it admitted better than
	// 32 KiB, the decoded size of its typical span (granule hit ratio
	// 0.16–0.18 against 0.13–0.15, seeds 3003–3005).
	sketchGranule    = 8 << 10
	sketchMinEntries = 16
	sketchMaxCount   = 15
)

// newSketch sizes a sketch for budget; its counters come with the first
// add.
func newSketch(budget int64) sketch {
	entries := max(budget/sketchGranule, sketchMinEntries)
	sample := 10 * entries
	width := uint64(1) << bits.Len64(uint64(sample-1)) // counters per row
	return sketch{blocks: width / 16, sample: int(sample)}
}

// slot returns the index of h's counter in row r: the low bits of h pick
// the block, four bits of its high half the counter in the row's
// sixteen.
func (f *sketch) slot(h uint64, r int) uint64 {
	return (h&(f.blocks-1))<<6 | uint64(r)<<4 | h>>(32+4*r)&15
}

// add counts one access of h.
func (f *sketch) add(h uint64) {
	if f.counts == nil {
		f.counts = make([]uint8, f.blocks*32)
	}
	for r := 0; r < 4; r++ {
		i := f.slot(h, r)
		if shift := i & 1 * 4; f.counts[i>>1]>>shift&15 < sketchMaxCount {
			f.counts[i>>1] += 1 << shift
		}
	}
	if f.n++; f.n >= f.sample {
		for i := range f.counts {
			f.counts[i] = f.counts[i] >> 1 & 0x77 // both nibbles at once
		}
		f.n /= 2
	}
}

// estimate returns h's recent access count: the smallest of its four
// counters, which collisions can only inflate. It reads counters add
// has allocated.
func (f *sketch) estimate(h uint64) uint8 {
	est := uint8(sketchMaxCount)
	for r := 0; r < 4; r++ {
		i := f.slot(h, r)
		est = min(est, f.counts[i>>1]>>(i&1*4)&15)
	}
	return est
}

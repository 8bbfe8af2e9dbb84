package segstore

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"unsafe"

	"trajsim/internal/traj"
)

// packedSpan is a span's segments as the cache holds them: 24 bytes a
// segment with no pointers, from which a reader rebuilds exactly the
// decoded segments, the way decodeRecordRange computes them — a
// coordinate is float64(count) * quantXY — but only for the segments it
// returns. Each segment keeps its End and EndIdx relative to an origin,
// the span's first Start and StartIdx, and its Start as the previous
// End (the origin for the first segment) with StartIdx the previous
// EndIdx plus a 16-bit jump — OPERB-A's segments mostly start a few
// points before the previous one ended. A Start the previous End does
// not give, or a jump wider than 16 bits, goes in a side table. pack
// refuses a span whose values do not fit these widths or do not rebuild
// bit-identically, and such a span is never cached.
//
// A span read past the cache, cache off or miss declined, is handed
// over as raw, the decoded segments as they are: packing it would cost
// a pass that nothing keeps. raw, when not nil, is the span; a span with
// neither raw segments nor packed ones is empty.
type packedSpan struct {
	x0, y0, t0 int64 // the first Start: 1 cm counts and ms
	idx0       int   // the first StartIdx

	segs   []packedSeg
	starts []packedStart // ascending seg
	sorted bool          // End.T and Start.T are both non-decreasing

	raw []traj.Segment
}

// packedSeg is one segment: 23 bytes of fields, 24 with padding.
type packedSeg struct {
	t    int64 // End.T
	x, y int32 // End, 1 cm counts relative to the origin
	eidx int32 // EndIdx − idx0
	jump int16 // StartIdx − the previous EndIdx, unless Start is in the side table
	head uint8 // the flags (flagVirtStart, flagVirtEnd) and headStored
}

// packedStart is a Start, in the side table.
type packedStart struct {
	t    int64
	x, y int32
	idx  int32 // StartIdx − idx0
	seg  int32 // the segment's position in the span
}

const (
	// headStored marks a packedSeg whose Start is in the side table.
	headStored = 4

	packedSegBytes   = int64(unsafe.Sizeof(packedSeg{}))
	packedStartBytes = int64(unsafe.Sizeof(packedStart{}))
	// minStoredBytes is the fewest bytes on disk of a segment whose
	// Start packs into the side table: its own Start (record mode 3, or
	// v1) takes at least 9, a StartIdx jump past 16 bits (mode 2) a
	// 3-byte varint, 8 in all.
	minStoredBytes = 8
)

// pack packs segs into p, reusing its slices, and reports whether every
// value rebuilds bit-identically; when it does not, p holds a prefix of
// segs and must not be read.
func (p *packedSpan) pack(segs []traj.Segment) bool {
	p.raw = nil
	p.segs, p.starts = p.segs[:0], p.starts[:0]
	if len(segs) == 0 {
		return true
	}
	if len(segs) > math.MaxInt32 {
		return false
	}
	first := segs[0].Start
	x0, okx := exactCount(first.X)
	y0, oky := exactCount(first.Y)
	if !okx || !oky {
		return false
	}
	p.x0, p.y0, p.t0, p.idx0 = x0, y0, first.T, segs[0].StartIdx
	p.sorted = true
	prev, pidx := first, p.idx0 // the first segment starts at the origin
	for i, s := range segs {
		if i > 0 && (s.Start.T < segs[i-1].Start.T || s.End.T < prev.T) {
			p.sorted = false
		}
		ps := packedSeg{t: s.End.T, jump: int16(s.StartIdx - pidx)}
		if s.VirtualStart {
			ps.head |= flagVirtStart
		}
		if s.VirtualEnd {
			ps.head |= flagVirtEnd
		}
		if !samePoint(s.Start, prev) || s.StartIdx-pidx != int(ps.jump) {
			x, y, okxy := p.relXY(s.Start)
			idx, oki := p.relIdx(s.StartIdx)
			if !okxy || !oki {
				return false
			}
			p.starts = append(p.starts, packedStart{t: s.Start.T, x: x, y: y, idx: idx, seg: int32(i)})
			ps.head |= headStored
			ps.jump = 0
		}
		x, y, okxy := p.relXY(s.End)
		eidx, oki := p.relIdx(s.EndIdx)
		if !okxy || !oki {
			return false
		}
		ps.x, ps.y, ps.eidx = x, y, eidx
		p.segs = append(p.segs, ps)
		prev, pidx = s.End, s.EndIdx
	}
	return true
}

// clone returns a copy of packed span p with slices of exact length, for
// the cache to keep.
func (p *packedSpan) clone() *packedSpan {
	c := *p
	c.segs, c.starts = exact(p.segs), exact(p.starts)
	return &c
}

// exact copies s into a slice of exactly its length, nil when empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// exactCount returns v's 1 cm count and whether the decoder's
// float64(count) * quantXY gives back exactly v.
func exactCount(v float64) (int64, bool) {
	c := quantCount(v)
	return c, math.Float64bits(float64(c)*quantXY) == math.Float64bits(v)
}

// relXY returns q's coordinates as counts relative to p's origin, and
// whether they rebuild exactly.
func (p *packedSpan) relXY(q traj.Point) (x, y int32, ok bool) {
	cx, okx := exactCount(q.X)
	cy, oky := exactCount(q.Y)
	dx, dy := cx-p.x0, cy-p.y0
	return int32(dx), int32(dy), okx && oky && dx == int64(int32(dx)) && dy == int64(int32(dy))
}

// relIdx returns idx relative to p's first StartIdx, and whether it fits
// in an int32.
func (p *packedSpan) relIdx(idx int) (int32, bool) {
	d := idx - p.idx0
	return int32(d), d == int(int32(d))
}

// samePoint reports whether a and b are the same point, bit for bit.
func samePoint(a, b traj.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y) && a.T == b.T
}

// len returns the number of segments in the span.
func (p *packedSpan) len() int {
	if p.raw != nil {
		return len(p.raw)
	}
	return len(p.segs)
}

// endT returns segment i's End.T.
func (p *packedSpan) endT(i int) int64 {
	if p.raw != nil {
		return p.raw[i].End.T
	}
	return p.segs[i].t
}

// startT returns segment i's Start.T.
func (p *packedSpan) startT(i int) int64 {
	if p.raw != nil {
		return p.raw[i].Start.T
	}
	return p.packedStartT(i)
}

// packedStartT is startT of a packed span.
func (p *packedSpan) packedStartT(i int) int64 {
	switch {
	case p.segs[i].head&headStored != 0:
		return p.starts[p.startOf(i)].t
	case i == 0:
		return p.t0
	}
	return p.segs[i-1].t
}

// within returns the range [lo, hi) of segments a query over [from, to]
// must consider. In a time-sorted packed span — End.T and Start.T both
// non-decreasing, as selectEntries asks of index entries — those that
// end too early come first and those that start too late last, so two
// binary searches leave exactly the segments that overlap the query.
// Otherwise it is every segment.
func (p *packedSpan) within(from, to int64) (lo, hi int) {
	if p.raw != nil || !p.sorted {
		return 0, p.len()
	}
	lo = sort.Search(len(p.segs), func(i int) bool { return p.segs[i].t >= from })
	hi = sort.Search(len(p.segs), func(i int) bool { return p.packedStartT(i) > to })
	return lo, hi
}

// seg rebuilds segment i.
func (p *packedSpan) seg(i int) traj.Segment {
	if p.raw != nil {
		return p.raw[i]
	}
	ps := &p.segs[i]
	s := traj.Segment{
		End:          p.point(ps.x, ps.y, ps.t),
		EndIdx:       p.idx0 + int(ps.eidx),
		VirtualStart: ps.head&flagVirtStart != 0,
		VirtualEnd:   ps.head&flagVirtEnd != 0,
	}
	switch {
	case ps.head&headStored != 0:
		st := &p.starts[p.startOf(i)]
		s.Start, s.StartIdx = p.point(st.x, st.y, st.t), p.idx0+int(st.idx)
	case i == 0:
		s.Start, s.StartIdx = p.point(0, 0, p.t0), p.idx0+int(ps.jump)
	default:
		prev := &p.segs[i-1]
		s.Start, s.StartIdx = p.point(prev.x, prev.y, prev.t), p.idx0+int(prev.eidx)+int(ps.jump)
	}
	return s
}

// point rebuilds a point from counts relative to the origin.
func (p *packedSpan) point(x, y int32, t int64) traj.Point {
	return traj.Point{X: float64(p.x0+int64(x)) * quantXY, Y: float64(p.y0+int64(y)) * quantXY, T: t}
}

// startOf returns the side-table position of segment i's Start.
func (p *packedSpan) startOf(i int) int {
	k, _ := slices.BinarySearchFunc(p.starts, int32(i), func(st packedStart, seg int32) int { return cmp.Compare(st.seg, seg) })
	return k
}

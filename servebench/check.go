package main

import (
	"fmt"
	"math"

	"trajsim/internal/traj"
)

// The checks test properties the method and the service must have, not
// a saved copy of earlier output. None of them calls into the code under
// test: distances and interpolations are computed here.

// quantSlack is how far the segment log's 1 cm endpoint quantization can
// move one endpoint: half a centimetre on each axis.
var quantSlack = 0.005 * math.Sqrt2

// quality accumulates the paper's §6 measures over checked sessions.
type quality struct {
	points   int     // points sent
	segments int     // segments persisted
	sumPED   float64 // Σ over points of the distance to the covering segment's line
	maxRatio float64 // worst point distance over ζ
}

// lineDistance returns the distance from p to the line through s and the
// position u of p's projection along s (0 at Start, 1 at End). A
// degenerate segment measures the distance to its start.
func lineDistance(p traj.Point, s traj.Segment) (d, u float64) {
	dx, dy := s.End.X-s.Start.X, s.End.Y-s.Start.Y
	px, py := p.X-s.Start.X, p.Y-s.Start.Y
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(px, py), 0
	}
	return math.Abs(px*dy-py*dx) / math.Sqrt(l2), (px*dx + py*dy) / l2
}

// checkCoverage checks one encoder session's persisted segments against
// the n points sent to it: consecutive segments share their endpoint,
// index ranges start at 0, leave no index uncovered and end at n-1.
func checkCoverage(n int, segs []traj.Segment) error {
	if len(segs) == 0 {
		if n < 2 {
			return nil
		}
		return fmt.Errorf("coverage: %d points sent, no segment persisted", n)
	}
	if segs[0].StartIdx != 0 {
		return fmt.Errorf("coverage: first segment starts at index %d, not 0", segs[0].StartIdx)
	}
	last := segs[0].EndIdx
	for i := 1; i < len(segs); i++ {
		prev, cur := segs[i-1], segs[i]
		if cur.Start != prev.End {
			return fmt.Errorf("coverage: segment %d starts at %v, segment %d ended at %v", i, cur.Start, i-1, prev.End)
		}
		if cur.StartIdx < prev.StartIdx || cur.StartIdx > last+1 {
			return fmt.Errorf("coverage: segment %d covers [%d..%d] after indexes up to %d", i, cur.StartIdx, cur.EndIdx, last)
		}
		last = max(last, cur.EndIdx)
	}
	if last != n-1 {
		return fmt.Errorf("coverage: segments cover indexes up to %d of %d points", last, n)
	}
	return nil
}

// checkBound checks the paper's guarantee through persistence: every
// point sent lies within ζ(1+1e-9) of the line through a segment covering
// its index, plus the quantization slack (|1-u|+|u|)·quantSlack at the
// point's position u along that segment. It adds the session's PED to q.
func checkBound(pts []traj.Point, segs []traj.Segment, zeta float64, q *quality) error {
	lo := 0
	for i, p := range pts {
		for lo < len(segs) && segs[lo].EndIdx < i {
			lo++
		}
		best, ok := math.Inf(1), false
		for k := lo; k < len(segs) && segs[k].StartIdx <= i; k++ {
			if segs[k].EndIdx < i {
				continue
			}
			d, u := lineDistance(p, segs[k])
			if d <= zeta*(1+1e-9)+(math.Abs(1-u)+math.Abs(u))*quantSlack {
				ok = true
			}
			best = min(best, d)
		}
		if math.IsInf(best, 1) {
			return fmt.Errorf("ζ bound: point %d (t=%d) has no covering segment", i, p.T)
		}
		if !ok {
			return fmt.Errorf("ζ bound: point %d (t=%d) lies %.4f m from its segment's line, ζ=%g m", i, p.T, best, zeta)
		}
		q.sumPED += best
		q.maxRatio = max(q.maxRatio, best/zeta)
	}
	q.points += len(pts)
	q.segments += len(segs)
	return nil
}

// checkSession runs the coverage and ζ-bound checks on one session.
func checkSession(pts []traj.Point, segs []traj.Segment, zeta float64, q *quality) error {
	if err := checkCoverage(len(pts), segs); err != nil {
		return err
	}
	return checkBound(pts, segs, zeta, q)
}

// splitSessions cuts a device's replay at every segment whose index
// range restarts at 0: each encoder session numbers its points from 0.
func splitSessions(segs []traj.Segment) [][]traj.Segment {
	var out [][]traj.Segment
	start := 0
	for i := 1; i <= len(segs); i++ {
		if i == len(segs) || segs[i].StartIdx == 0 {
			out = append(out, segs[start:i])
			start = i
		}
	}
	return out
}

// overlapping returns the segments of replay that intersect [from, to],
// the store's range semantics (End ≥ from and Start ≤ to).
func overlapping(replay []traj.Segment, from, to int64) []traj.Segment {
	var out []traj.Segment
	for _, s := range replay {
		if s.End.T >= from && s.Start.T <= to {
			out = append(out, s)
		}
	}
	return out
}

// checkRange checks one range answer against want, the final replay's
// segments overlapping the window: the answer must be exactly those.
// Windows lie inside the history written before trajserve started, so
// segments appended during the run never overlap them.
func checkRange(want, got []traj.Segment) error {
	if len(got) != len(want) {
		return fmt.Errorf("range: %d segments, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("range: segment %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAt checks one position answer: seg must be a segment of the final
// replay that covers t, and (x, y) must lie within 1 cm of seg's
// interpolation at t.
func checkAt(replay []traj.Segment, t int64, seg traj.Segment, x, y float64) error {
	if seg.Start.T > t || seg.End.T < t {
		return fmt.Errorf("at t=%d: segment [%d..%d] does not cover t", t, seg.Start.T, seg.End.T)
	}
	found := false
	for _, s := range replay {
		if s.Start == seg.Start && s.End == seg.End {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("at t=%d: segment %v is not in the device's replay", t, seg)
	}
	wx, wy := seg.Start.X, seg.Start.Y
	if dt := seg.End.T - seg.Start.T; dt > 0 {
		f := float64(t-seg.Start.T) / float64(dt)
		wx += f * (seg.End.X - seg.Start.X)
		wy += f * (seg.End.Y - seg.Start.Y)
	}
	if d := math.Hypot(x-wx, y-wy); d > 0.01 {
		return fmt.Errorf("at t=%d: point (%.3f, %.3f) is %.4f m off its segment", t, x, y, d)
	}
	return nil
}

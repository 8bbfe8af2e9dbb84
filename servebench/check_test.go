package main

import (
	"math"
	"testing"

	"trajsim/internal/core"
	"trajsim/internal/traj"
)

// session returns the points of one generated Taxi stream and the
// segments OPERB-A makes of them, endpoints quantized to 1 cm as the
// segment log stores them.
func session(t *testing.T) ([]traj.Point, []traj.Segment) {
	t.Helper()
	d := newDevice(7, 0, 400) // device 0 is a Taxi: long, sparse segments
	pts := d.points(nil, 0, 1000)
	enc, err := core.NewAggressiveEncoder(zeta, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var segs []traj.Segment
	for _, p := range pts {
		segs = append(segs, enc.Push(p)...)
	}
	segs = append(segs, enc.Flush()...)
	q := func(p traj.Point) traj.Point {
		return traj.At(math.Round(p.X/0.01)*0.01, math.Round(p.Y/0.01)*0.01, p.T)
	}
	for i := range segs {
		segs[i].Start, segs[i].End = q(segs[i].Start), q(segs[i].End)
	}
	if len(segs) < 10 {
		t.Fatalf("only %d segments", len(segs))
	}
	return pts, segs
}

func TestChecksAcceptEncoderOutput(t *testing.T) {
	pts, segs := session(t)
	var q quality
	if err := checkSession(pts, segs, zeta, &q); err != nil {
		t.Fatal(err)
	}
	if q.points != len(pts) || q.maxRatio > 1 || q.sumPED <= 0 {
		t.Errorf("quality %+v", q)
	}
	mid := segs[len(segs)/2]
	want := overlapping(segs, mid.Start.T, mid.End.T)
	if err := checkRange(want, want); err != nil {
		t.Error(err)
	}
	tm := (mid.Start.T + mid.End.T) / 2
	p := mid.At(tm)
	if err := checkAt(segs, tm, mid, p.X, p.Y); err != nil {
		t.Error(err)
	}
}

// TestChecksCatchBrokenOutputs feeds each check a deliberately broken
// output; every one must be refused.
func TestChecksCatchBrokenOutputs(t *testing.T) {
	pts, segs := session(t)

	t.Run("endpoint moved ζ+1 m off", func(t *testing.T) {
		// Move the endpoint shared by the two longest neighbours, keeping
		// the polyline continuous so that only the bound can object.
		k := 0
		for i := 0; i+1 < len(segs); i++ {
			if min(segs[i].Length(), segs[i+1].Length()) > min(segs[k].Length(), segs[k+1].Length()) {
				k = i
			}
		}
		bad := append([]traj.Segment(nil), segs...)
		s := bad[k]
		nx, ny := -(s.End.Y - s.Start.Y), s.End.X-s.Start.X
		l := math.Hypot(nx, ny)
		moved := traj.At(s.End.X+nx/l*(zeta+1), s.End.Y+ny/l*(zeta+1), s.End.T)
		bad[k].End, bad[k+1].Start = moved, moved
		if err := checkCoverage(len(pts), bad); err != nil {
			t.Fatalf("coverage should still hold: %v", err)
		}
		if err := checkBound(pts, bad, zeta, &quality{}); err == nil {
			t.Error("ζ-bound check accepted an endpoint moved ζ+1 m off")
		}
	})

	t.Run("segment dropped", func(t *testing.T) {
		for _, k := range []int{0, len(segs) / 2, len(segs) - 1} {
			bad := append(append([]traj.Segment(nil), segs[:k]...), segs[k+1:]...)
			if err := checkCoverage(len(pts), bad); err == nil {
				t.Errorf("coverage check accepted the log without segment %d", k)
			}
		}
	})

	t.Run("range answer missing a segment", func(t *testing.T) {
		lo, hi := segs[2], segs[6]
		want := overlapping(segs, lo.End.T, hi.Start.T)
		if len(want) < 3 {
			t.Fatalf("window overlaps %d segments", len(want))
		}
		got := append(append([]traj.Segment(nil), want[:1]...), want[2:]...)
		if err := checkRange(want, got); err == nil {
			t.Error("range check accepted an answer missing a middle segment")
		}
		if err := checkRange(want, want[:len(want)-1]); err == nil {
			t.Error("range check accepted an answer missing its last segment")
		}
	})

	t.Run("at point off its segment", func(t *testing.T) {
		s := segs[len(segs)/2]
		tm := (s.Start.T + s.End.T) / 2
		p := s.At(tm)
		if err := checkAt(segs, tm, s, p.X+0.02, p.Y); err == nil {
			t.Error("at check accepted a point 2 cm off its segment")
		}
		other := s
		other.End.X += 1
		if err := checkAt(segs, tm, other, p.X, p.Y); err == nil {
			t.Error("at check accepted a segment that is not in the replay")
		}
		if err := checkAt(segs, s.End.T+1, s, s.End.X, s.End.Y); err == nil {
			t.Error("at check accepted a segment that does not cover t")
		}
	})
}

func TestSplitSessions(t *testing.T) {
	_, segs := session(t)
	two := append(append([]traj.Segment(nil), segs...), segs...)
	got := splitSessions(two)
	if len(got) != 2 || len(got[0]) != len(segs) || len(got[1]) != len(segs) {
		t.Errorf("split into %d sessions", len(got))
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

package segstore

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// refSketch is the TinyLFU sketch as first written (cache.go): the same
// count-min sketch with one byte per 4-bit counter, allocated up front.
// TestSketchMatchesReference holds the nibble-packed sketch to its
// estimates.
type refSketch struct {
	counts []uint8
	blocks uint64
	n      int
	sample int
}

func newRefSketch(budget int64) refSketch {
	entries := max(budget/sketchGranule, sketchMinEntries)
	sample := 10 * entries
	width := uint64(1) << bits.Len64(uint64(sample-1))
	return refSketch{counts: make([]uint8, 4*width), blocks: width / 16, sample: int(sample)}
}

func (f *refSketch) slot(h uint64, r int) uint64 {
	return (h&(f.blocks-1))<<6 | uint64(r)<<4 | h>>(32+4*r)&15
}

func (f *refSketch) add(h uint64) {
	for r := 0; r < 4; r++ {
		if i := f.slot(h, r); f.counts[i] < sketchMaxCount {
			f.counts[i]++
		}
	}
	if f.n++; f.n >= f.sample {
		for i := range f.counts {
			f.counts[i] >>= 1
		}
		f.n /= 2
	}
}

func (f *refSketch) estimate(h uint64) uint8 {
	est := uint8(sketchMaxCount)
	for r := 0; r < 4; r++ {
		est = min(est, f.counts[f.slot(h, r)])
	}
	return est
}

// TestSketchMatchesReference: the nibble-packed sketch allocates nothing
// before its first access, takes half the reference's bytes, and
// estimates exactly what the reference does after every access of a
// seeded Zipf-skewed sequence that saturates hot counters and crosses
// several halvings. Admission reads only estimates, so it is unchanged.
func TestSketchMatchesReference(t *testing.T) {
	for _, budget := range []int64{4 << 10, 1 << 20, 64 << 20} {
		got, ref := newSketch(budget), newRefSketch(budget)
		if got.counts != nil {
			t.Fatalf("budget %d: counters allocated before the first access", budget)
		}
		r := rand.New(rand.NewPCG(uint64(budget), 7))
		keys := make([]uint64, 4*got.sample)
		for i := range keys {
			keys[i] = mix64(uint64(i) + 1)
		}
		z := rand.NewZipf(r, 1.1, 1, uint64(len(keys)-1))
		accesses := 5 * got.sample // several halvings
		for i := 0; i < accesses; i++ {
			h := keys[z.Uint64()]
			got.add(h)
			ref.add(h)
			probe := keys[r.IntN(len(keys))]
			if g, w := got.estimate(h), ref.estimate(h); g != w {
				t.Fatalf("budget %d, access %d: estimate %d, reference %d", budget, i, g, w)
			}
			if g, w := got.estimate(probe), ref.estimate(probe); g != w {
				t.Fatalf("budget %d, access %d: probe estimate %d, reference %d", budget, i, g, w)
			}
		}
		if 2*len(got.counts) != len(ref.counts) {
			t.Errorf("budget %d: %d bytes of counters, reference %d", budget, len(got.counts), len(ref.counts))
		}
		for _, h := range keys {
			if g, w := got.estimate(h), ref.estimate(h); g != w {
				t.Fatalf("budget %d: final estimate %d, reference %d", budget, g, w)
			}
		}
	}
}

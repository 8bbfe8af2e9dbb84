package main

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// cmPoint is one generated fix as it travels on the wire: coordinates in
// whole centimetres (the 1 cm quantum of every trajsim wire format) and
// time in milliseconds.
type cmPoint struct{ x, y, t int64 }

// device is one simulated vehicle. Its stream is an endless repetition
// of one internal/gen trajectory ("tile"), each repetition shifted in
// space and time so that the motion continues where the previous tile
// ended: the step across a seam equals the tile's first step. Generating
// every point of a 10 s run at ~2 µs per point would cost more than the
// run itself, so the benchmark generates one tile per device and derives
// the rest.
type device struct {
	id         string
	preset     gen.Preset
	tile       []cmPoint
	dx, dy, dt int64 // shift from one tile to the next
}

// at returns point j of the device's stream, exactly as the server
// decodes it from any of the three ingest formats.
func (d *device) at(j int) traj.Point {
	k, i := int64(j/len(d.tile)), j%len(d.tile)
	p := d.tile[i]
	return traj.Point{
		X: float64(p.x+k*d.dx) * 0.01,
		Y: float64(p.y+k*d.dy) * 0.01,
		T: p.t + k*d.dt,
	}
}

// points appends points [lo, hi) of the stream to dst.
func (d *device) points(dst []traj.Point, lo, hi int) []traj.Point {
	for j := lo; j < hi; j++ {
		dst = append(dst, d.at(j))
	}
	return dst
}

// splitmix is the SplitMix64 finalizer: it turns (seed, index) pairs
// into independent generator seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// makeFleet generates n devices, cycling through the four gen presets
// so every workload mixes Taxi, Truck, SerCar and GeoLife streams. Two
// goroutines share the generation, matching the two CPUs the benchmark
// is sized for.
func makeFleet(seed uint64, n, tilePoints int) []*device {
	devs := make([]*device, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				devs[i] = newDevice(seed, i, tilePoints)
			}
		}(w)
	}
	wg.Wait()
	return devs
}

func newDevice(seed uint64, i, tilePoints int) *device {
	p := gen.Presets[i%len(gen.Presets)]
	raw := gen.One(p, tilePoints, splitmix(seed^splitmix(uint64(i))))
	tile := make([]cmPoint, len(raw))
	for j, q := range raw {
		tile[j] = cmPoint{x: int64(math.Round(q.X / 0.01)), y: int64(math.Round(q.Y / 0.01)), t: q.T}
	}
	first, second, last := tile[0], tile[1], tile[len(tile)-1]
	return &device{
		id:     fmt.Sprintf("%s-%04d", strings.ToLower(p.String()), i),
		preset: p,
		tile:   tile,
		dx:     last.x - first.x + second.x - first.x,
		dy:     last.y - first.y + second.y - first.y,
		dt:     last.t - first.t + second.t - first.t,
	}
}

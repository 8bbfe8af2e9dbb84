// Fleet: compress a whole vehicle fleet concurrently and compare every
// registered algorithm on ratio, error and wall time — a miniature version
// of the paper's evaluation on your own workload. Then replay the same
// fleet as live device streams through the sharded session engine, the
// way a cloud ingestion tier would receive it — persisting every
// finalized segment to a crash-recoverable store and replaying one
// device from disk, the way a restarted server would.
//
//	go run trajsim/examples/fleet
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"trajsim"
)

func main() {
	const (
		vehicles = 40
		points   = 2000
		zeta     = 40.0
	)
	fleet := trajsim.GenerateDataset(trajsim.PresetTruck, vehicles, points, 99)
	var total int
	for _, t := range fleet {
		total += len(t)
	}
	fmt.Printf("fleet: %d trucks, %d GPS fixes, ζ=%g m\n\n", vehicles, total, zeta)
	fmt.Printf("%-12s %10s %8s %10s %10s\n", "algorithm", "segments", "ratio", "avg err", "time")

	for _, a := range trajsim.Algorithms() {
		start := time.Now()
		pws, err := trajsim.CompressFleet(fleet, zeta, a.Name, 0)
		if err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
		elapsed := time.Since(start)

		var segs int
		var errSum float64
		for i := range fleet {
			segs += len(pws[i])
			errSum += trajsim.AvgError(fleet[i], pws[i]) * float64(len(fleet[i]))
		}
		fmt.Printf("%-12s %10d %7.1f%% %8.1f m %10s\n",
			a.Name, segs, 100*float64(segs)/float64(total), errSum/float64(total),
			elapsed.Round(time.Millisecond))
	}

	fmt.Println("\nlower ratio = better compression; OPERB-A should lead, OPERB ≈ DP, all within ζ")

	// Part 2: the same fleet as live streams. Every truck keeps an open
	// session on the engine and uploads 64-point batches concurrently;
	// segments come back incrementally as each batch finalizes them.
	fmt.Println("\nlive ingestion through the sharded session engine:")
	dataDir, err := os.MkdirTemp("", "fleet-segstore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	store, err := trajsim.OpenSegmentStore(trajsim.SegmentStoreConfig{
		Dir: dataDir,
		// Far fewer handles than trucks: the store transparently closes and
		// reopens cold device logs, so 40 concurrent writers cost 8 fds.
		MaxOpenFiles: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := trajsim.NewEngine(trajsim.EngineConfig{
		Zeta:       zeta,
		Aggressive: true,
		Shards:     16,
		Sink:       store, // every finalized segment also lands on disk…
		// …via the async sink pipeline: disk writes happen on these two
		// writer goroutines, outside the ingest critical section, ordered
		// per device. A full queue blocks ingest, so a stalled disk slows
		// it rather than losing acknowledged segments.
		SinkWriters: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	const batch = 64
	start := time.Now()
	var wg sync.WaitGroup
	for v, tr := range fleet {
		wg.Add(1)
		go func(v int, tr trajsim.Trajectory) {
			defer wg.Done()
			dev := fmt.Sprintf("truck-%02d", v)
			for off := 0; off < len(tr); off += batch {
				end := min(off+batch, len(tr))
				if _, err := eng.Ingest(dev, tr[off:end]); err != nil {
					log.Fatalf("%s: %v", dev, err)
				}
			}
		}(v, tr)
	}
	wg.Wait()
	mid := eng.Stats()
	tails := eng.Close()
	elapsed := time.Since(start)

	final := eng.Stats()
	var tailSegs int
	for _, segs := range tails {
		tailSegs += len(segs)
	}
	fmt.Printf("  %d concurrent sessions, %d points in %s (%.0f points/s)\n",
		mid.Opened, final.Points, elapsed.Round(time.Millisecond),
		float64(final.Points)/elapsed.Seconds())
	fmt.Printf("  %d segments emitted (%d at shutdown flush), ratio %.1f%%, %d contended ingests\n",
		final.Segments, tailSegs, 100*float64(final.Segments)/float64(final.Points),
		final.Contended)
	fmt.Printf("  sink queue: %d enqueues blocked on a full queue\n", final.SinkBlocked)

	// Part 3: durability. The store now holds everything the engine
	// emitted; close it and reopen the directory cold — a restarted
	// server — and replay one truck's full stream from disk.
	sst := store.Stats()
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndurable segment store (%s):\n", dataDir)
	fmt.Printf("  %d segments in %d appends, %d bytes on disk (%.1f bytes/segment)\n",
		sst.Segments, sst.Appends, sst.Bytes, float64(sst.Bytes)/float64(sst.Segments))
	fmt.Printf("  open handles capped at 8 of %d devices: %d hits, %d misses, %d evictions\n",
		vehicles, sst.HandleHits, sst.HandleMisses, sst.HandleEvictions)

	reopened, err := trajsim.OpenSegmentStore(trajsim.SegmentStoreConfig{Dir: dataDir})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	segs, err := reopened.Replay("truck-00")
	if err != nil {
		log.Fatal(err)
	}
	maxErr := 0.0
	for _, p := range fleet[0] {
		best := 1e18
		for _, s := range segs {
			if d := s.LineDistance(p); d < best {
				best = d
			}
		}
		if best > maxErr {
			maxErr = best
		}
	}
	fmt.Printf("  truck-00 replayed after reopen: %d segments for %d fixes, max error %.2f m (ζ=%g)\n",
		len(segs), len(fleet[0]), maxErr, zeta)
}

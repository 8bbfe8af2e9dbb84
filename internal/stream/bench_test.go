package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"trajsim/internal/gen"
	"trajsim/internal/segstore"
	"trajsim/internal/traj"
)

// BenchmarkIngest measures multi-device ingest throughput as the shard
// count grows: with one shard every goroutine contends on a single mutex;
// with 8 or 64 shards ingest for different devices proceeds in parallel.
//
//	go test ./internal/stream -bench=Ingest -cpu=8
func BenchmarkIngest(b *testing.B) {
	b.ReportAllocs()
	const batch = 64
	tr := gen.One(gen.Truck, 4096, 11)
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			e, err := NewEngine(Config{Zeta: 40, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			var id atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// One live session per benchmark goroutine, fed its batches
				// in a loop; one iteration = one 64-point batch.
				dev := fmt.Sprintf("dev-%d", id.Add(1))
				off := 0
				for pb.Next() {
					if off+batch > len(tr) {
						// Restart the stream: flush so the fresh session
						// sees increasing timestamps again.
						e.Flush(dev)
						off = 0
					}
					if _, err := e.Ingest(dev, tr[off:off+batch]); err != nil {
						b.Fatal(err)
					}
					off += batch
				}
			})
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.Points)/b.Elapsed().Seconds(), "points/s")
			// Fraction of batches that blocked on a shard lock: the
			// scaling signal even when wall time is CPU-bound.
			b.ReportMetric(float64(st.Contended)/float64(b.N), "contended/op")
			e.Close()
		})
	}
}

// BenchmarkIngestSingleSession is the per-session cost floor: one device
// fed in-order batches with no parallelism, so the whole iteration is
// lock acquisition plus real encoder work. The sharded BenchmarkIngest
// numbers converge to this as contention disappears.
func BenchmarkIngestSingleSession(b *testing.B) {
	b.ReportAllocs()
	const batch = 64
	tr := gen.One(gen.Truck, 4096, 11)
	e, err := NewEngine(Config{Zeta: 40, Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	off := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if off+batch > len(tr) {
			e.Flush("hot")
			off = 0
		}
		if _, err := e.Ingest("hot", tr[off:off+batch]); err != nil {
			b.Fatal(err)
		}
		off += batch
	}
}

// BenchmarkIngestWithSink is the end-to-end ingest path over a real
// segment store with the strictest durability policy (fsync at every
// commit) — the workload the async sink pipeline exists for. Ingest
// hands off a memcpy and the writers group-commit the backlog; the
// devices=8 case is the sweep-commit headline, where K devices × M
// batches settle in at most K fsyncs per sweep. fsyncs/batch is
// measured over the whole run including the drain, so it counts every
// fsync the durability policy actually paid.
//
//	go test ./internal/stream -bench=IngestWithSink -benchtime=2s
func BenchmarkIngestWithSink(b *testing.B) {
	const batch = 64
	tr := gen.One(gen.Truck, 4096, 11)
	for _, devices := range []int{1, 8} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			b.ReportAllocs()
			store, err := segstore.Open(segstore.Config{Dir: b.TempDir(), Sync: segstore.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			e, err := NewEngine(Config{Zeta: 5, Shards: 8, Sink: store})
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			errc := make(chan error, devices)
			b.ResetTimer()
			for d := 0; d < devices; d++ {
				n := b.N / devices
				if d < b.N%devices {
					n++
				}
				wg.Add(1)
				go func(d, n int) {
					defer wg.Done()
					dev := fmt.Sprintf("dev-%d", d)
					off := 0
					for i := 0; i < n; i++ {
						if off+batch > len(tr) {
							e.Flush(dev)
							off = 0
						}
						if _, err := e.Ingest(dev, tr[off:off+batch]); err != nil {
							select {
							case errc <- err:
							default:
							}
							return
						}
						off += batch
					}
				}(d, n)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(e.Stats().Points)/b.Elapsed().Seconds(), "points/s")
			e.Close() // drain: every enqueued batch reaches the store
			// Sweeps fold ingest batches; SinkSweepBatches says how many
			// folded into persisted payloads.
			if batches := float64(e.Stats().SinkSweepBatches); batches > 0 {
				b.ReportMetric(float64(store.Stats().Syncs)/batches, "fsyncs/batch")
			}
			if sst := store.Stats(); sst.Segments == 0 && b.N > 20 {
				b.Fatalf("sink saw no segments: %+v", sst)
			}
			store.Close()
		})
	}
}

// BenchmarkForEach measures the worker pool against a trivially cheap
// body, exposing its scheduling overhead per item.
func BenchmarkForEach(b *testing.B) {
	b.ReportAllocs()
	var sink atomic.Int64
	work := make([]traj.Point, 256)
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ForEach(len(work), 0, func(j int) error {
				sink.Add(int64(j))
				return nil
			})
		}
	})
}

package trajsim

import (
	"errors"
	"testing"
)

func TestFacadeBatchAPIs(t *testing.T) {
	tr := GenerateTrajectory(PresetSerCar, 400, 3)
	zeta := 30.0
	for name, fn := range map[string]func(Trajectory, float64) (Piecewise, error){
		"Simplify":           Simplify,
		"SimplifyAggressive": SimplifyAggressive,
		"DouglasPeucker":     DouglasPeucker,
		"TDTR":               TDTR,
		"OPW":                OPW,
		"OPWTR":              OPWTR,
		"BQS":                BQS,
		"FBQS":               FBQS,
	} {
		pw, err := fn(tr, zeta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pw) == 0 {
			t.Fatalf("%s: empty output", name)
		}
		if name == "TDTR" || name == "OPWTR" {
			continue // SED bound, checked in their own packages
		}
		if err := VerifyErrorBound(tr, pw, zeta); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFacadeStreaming(t *testing.T) {
	tr := GenerateTrajectory(PresetTaxi, 300, 9)
	enc, err := NewEncoder(40, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var pw Piecewise
	for _, p := range tr {
		pw = append(pw, enc.Push(p)...)
	}
	pw = append(pw, enc.Flush()...)
	batch, err := Simplify(tr, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(pw) != len(batch) {
		t.Errorf("streaming %d segments, batch %d", len(pw), len(batch))
	}
	if enc.Stats().PointsIn != len(tr) {
		t.Errorf("stats: %+v", enc.Stats())
	}
}

func TestFacadeMetrics(t *testing.T) {
	tr := GenerateTrajectory(PresetGeoLife, 300, 4)
	pw, err := Simplify(tr, 25)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(tr, pw)
	if s.Points != len(tr) || s.Segments != len(pw) {
		t.Errorf("summary: %+v", s)
	}
	if MaxError(tr, pw) > 25*1.000001 {
		t.Errorf("max error %v", MaxError(tr, pw))
	}
	if AvgError(tr, pw) > MaxError(tr, pw) {
		t.Error("avg > max")
	}
	if r := CompressionRatio(tr, pw); r <= 0 || r >= 1 {
		t.Errorf("ratio %v", r)
	}
}

func TestFacadeRegistry(t *testing.T) {
	if len(Algorithms()) != 11 {
		t.Errorf("%d algorithms", len(Algorithms()))
	}
	a, err := AlgorithmByName("operb")
	if err != nil || a.Name != "OPERB" {
		t.Errorf("AlgorithmByName: %+v %v", a, err)
	}
}

func TestFacadeCleanerAndProjection(t *testing.T) {
	c := NewCleaner(2)
	out := c.Push(At(0, 0, 1000))
	out = append(out, c.Flush()...)
	if len(out) != 1 {
		t.Errorf("cleaner output %d points", len(out))
	}
	pr := NewProjection(116.4, 39.9)
	p := pr.ToPlane(116.41, 39.9)
	if p.X < 800 || p.X > 900 {
		t.Errorf("projection x = %v", p.X)
	}
}

func TestCompressFleet(t *testing.T) {
	fleet := GenerateDataset(PresetSerCar, 12, 300, 7)
	pws, err := CompressFleet(fleet, 30, "OPERB-A", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pws) != len(fleet) {
		t.Fatalf("%d results for %d inputs", len(pws), len(fleet))
	}
	for i := range fleet {
		if len(pws[i]) == 0 {
			t.Errorf("trajectory %d: empty", i)
		}
		if err := VerifyErrorBound(fleet[i], pws[i], 30); err != nil {
			t.Errorf("trajectory %d: %v", i, err)
		}
	}
	// Order is preserved: results match a serial run.
	serial, err := SimplifyAggressive(fleet[5], 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(pws[5]) {
		t.Errorf("parallel result diverges from serial: %d vs %d", len(pws[5]), len(serial))
	}
}

func TestCompressFleetEdgeCases(t *testing.T) {
	if _, err := CompressFleet(nil, 30, "OPERB", 0); err != nil {
		t.Errorf("empty fleet: %v", err)
	}
	if _, err := CompressFleet(nil, 30, "bogus", 0); err == nil {
		t.Error("bogus algorithm should fail")
	}
	// A per-trajectory failure (invalid ζ) comes back wrapped in
	// ErrCompress, not in the input/output-mismatch sentinel.
	fleet := GenerateDataset(PresetTaxi, 3, 50, 1)
	_, err := CompressFleet(fleet, -1, "OPERB", 2)
	if !errors.Is(err, ErrCompress) {
		t.Errorf("invalid ζ: err = %v, want ErrCompress", err)
	}
	if errors.Is(err, ErrFleetSize) {
		t.Error("compression failure misreported as ErrFleetSize")
	}
}

func TestFacadeEngine(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Zeta: 40, Aggressive: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateTrajectory(PresetTruck, 600, 21)
	var pw Piecewise
	for off := 0; off < len(tr); off += 50 {
		segs, err := eng.Ingest("truck-1", tr[off:off+50])
		if err != nil {
			t.Fatal(err)
		}
		pw = append(pw, segs...)
	}
	tail, err := eng.Flush("truck-1")
	if err != nil {
		t.Fatalf("no session to flush: %v", err)
	}
	pw = append(pw, tail...)
	if err := VerifyErrorBound(tr, pw, 40); err != nil {
		t.Error(err)
	}
	var st EngineStats = eng.Stats()
	if st.Points != int64(len(tr)) || st.Flushed != 1 {
		t.Errorf("stats: %+v", st)
	}
	eng.Close()
	if _, err := eng.Ingest("truck-1", tr[:50]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed engine: err = %v, want ErrEngineClosed", err)
	}
}

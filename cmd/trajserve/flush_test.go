package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"trajsim/internal/gen"
	"trajsim/internal/stream"
	"trajsim/internal/traj"
)

// failingSink accepts every write and fails every commit, the shape of a
// disk whose fsync reports an I/O error.
type failingSink struct{}

func (failingSink) AppendNoSync(string, []traj.Segment) error { return nil }
func (failingSink) CommitDevices([]string) error              { return errors.New("fsync: input/output error") }

// TestFlushReportsLostSegments: a 200 from /flush promises the flushed
// tails are committed, so a flush whose sweep failed its commit answers
// 500 with JSON naming the devices whose segments were lost — for one
// device and for all of them — and the session is gone either way.
func TestFlushReportsLostSegments(t *testing.T) {
	eng, err := stream.NewEngine(stream.Config{Zeta: 40, Aggressive: true, Shards: 4, Sink: failingSink{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(newHandler(eng, nil, nil, testMaxBody))
	t.Cleanup(srv.Close)

	body := deviceCSV(map[string][]traj.Point{
		"a": gen.One(gen.Taxi, 300, 61), "b": gen.One(gen.Truck, 300, 62), "c": gen.One(gen.SerCar, 300, 63),
	})
	resp, err := http.Post(srv.URL+"/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	flush := func(query string) (int, []string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/flush"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Error string   `json:"error"`
			Lost  []string `json:"lost_devices"`
		}
		if resp.StatusCode == http.StatusInternalServerError {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !strings.Contains(out.Error, "input/output error") {
				t.Fatalf("flush%s: 500 body %+v, %v", query, out, err)
			}
		}
		return resp.StatusCode, out.Lost
	}
	if code, lost := flush("?device=a&out=segments"); code != http.StatusInternalServerError || !reflect.DeepEqual(lost, []string{"a"}) {
		t.Fatalf("flush of a: status %d, lost %v; want 500 naming a", code, lost)
	}
	if code, _ := flush("?device=a"); code != http.StatusNotFound {
		t.Fatalf("second flush of a: status %d, want 404", code)
	}
	if code, lost := flush(""); code != http.StatusInternalServerError || !reflect.DeepEqual(lost, []string{"b", "c"}) {
		t.Fatalf("flush of all: status %d, lost %v; want 500 naming b and c", code, lost)
	}
	if code, _ := flush(""); code != http.StatusOK {
		t.Fatalf("flush with no live session: status %d, want 200", code)
	}
}

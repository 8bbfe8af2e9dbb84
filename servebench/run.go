package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trajsim/internal/traj"
)

// generatorProcs is the load generator's GOMAXPROCS during set-up and
// the timed phase.
const generatorProcs = 1

// run performs one untraced HTTP run: inputs, set-ups, the timed phase,
// then the untimed checks. A failed check is returned as checkErr, next
// to a complete result; err means the run itself could not proceed.
func (b *bench) run() (res *result, checkErr, err error) {
	var hist string
	if b.history > 0 {
		hist = filepath.Join(b.dir, "history")
		if err := b.writeHistory(hist); err != nil {
			return nil, nil, err
		}
	}
	// The load generator runs on one P while it drives trajserve: its two
	// connections mostly wait, and a second P would only spin against the
	// server for the host's two CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(generatorProcs))
	var setups, readies []float64
	var conns [2]*conn
	host0 := hostCPU()
	for k := 0; k < b.setups; k++ {
		dataDir := filepath.Join(b.dir, fmt.Sprintf("data%d", k))
		if hist != "" {
			if err := copyDir(hist, dataDir); err != nil {
				return nil, nil, err
			}
		}
		srv, err := startServer(b.bin, dataDir, filepath.Join(b.dir, fmt.Sprintf("trajserve%d.log", k)), b.flags)
		if err != nil {
			return nil, nil, err
		}
		conns = [2]*conn{newConn(srv.base), newConn(srv.base)}
		switch b.name {
		case "ingest-fleet":
			err = b.ingestFleetSetup(conns)
		case "query-hot":
			err = b.queryWarm(conns, true)
		case "mixed-live":
			err = b.mixedSetup(conns)
		}
		setups = append(setups, time.Since(srv.start).Seconds())
		readies = append(readies, srv.ready.Sub(srv.start).Seconds())
		if err != nil {
			srv.kill()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if k == b.setups-1 {
			b.srv, b.dataDir = srv, dataDir
			break
		}
		// The data directory stays until the run ends: deleting thousands
		// of files slows the file system's next journal commits (more so
		// with online discard), and every fsync of the next set-up would
		// wait on them.
		conns[0].close()
		conns[1].close()
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
	}
	defer conns[0].close()
	defer conns[1].close()
	setupSteal := stealShare(host0, hostCPU())

	res, checkErr, err = b.timedAndChecked(conns)
	if err != nil {
		b.srv.kill()
		return nil, nil, err
	}
	res.setups, res.readies = setups, readies
	res.setupSteal = setupSteal
	res.flags = b.srv.args
	if err := b.srv.stop(); err != nil {
		return nil, nil, fmt.Errorf("trajserve exit: %w", err)
	}
	if res.bytes, err = dirBytes(b.dataDir); err != nil {
		return nil, nil, err
	}
	return res, checkErr, nil
}

func (b *bench) timedAndChecked(conns [2]*conn) (*result, error, error) {
	b.lanes = [2]*lane{newLane(), newLane()}
	var (
		timed  float64
		rounds int
		err    error
	)
	cpu0, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	host0 := hostCPU()
	switch b.name {
	case "ingest-fleet":
		timed, rounds, err = b.ingestFleetTimed(conns)
	case "query-hot":
		timed, err = b.queryHotTimed(conns)
	case "mixed-live":
		timed, err = b.mixedTimed(conns)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("timed phase: %w", err)
	}
	cpu1, err := b.srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	res := merge(b.lanes[:])
	res.timed, res.rounds, res.cpu = timed, rounds, cpu1-cpu0
	res.steal = stealShare(host0, hostCPU())
	if res.rss, err = b.srv.peakRSSMiB(); err != nil {
		return nil, nil, err
	}

	// Untimed from here on.
	if b.name == "mixed-live" {
		if status, _, resp, err := conns[0].do("POST", "/flush", "", nil); err != nil || status != 200 {
			return nil, nil, fmt.Errorf("closing flush: status %d %s: %v", status, resp, err)
		}
	}
	finals, err := b.replays(conns)
	if err != nil {
		return nil, nil, err
	}
	return res, b.check(res, finals), nil
}

// sessions lists the point count of each encoder session in device i's
// log, in log order.
func (b *bench) sessions(i int, res *result) []int {
	switch b.name {
	case "ingest-fleet":
		return []int{b.fleetPoints(res.rounds)}
	case "mixed-live":
		return []int{b.history, b.batch * b.liveBatches(i)}
	}
	return []int{b.history}
}

// check runs every output check of the workload and counts the points
// persisted into the data directory.
func (b *bench) check(res *result, finals [][]traj.Segment) error {
	var sent int64 // points the timed phase sent
	for i := range b.devs {
		ss := b.sessions(i, res)
		for _, n := range ss {
			res.persisted += int64(n)
		}
		switch b.name {
		case "ingest-fleet":
			sent += int64(ss[0] - warmRounds*b.batch)
		case "mixed-live":
			sent += int64(ss[1] - b.batch)
		}
	}
	if res.failed[opIngest] == 0 && res.ackPoints != sent {
		return fmt.Errorf("acknowledged %d points, sent %d", res.ackPoints, sent)
	}
	if err := b.checkSessions(finals, func(i int) []int { return b.sessions(i, res) }, res); err != nil {
		return err
	}
	if b.history == 0 {
		return nil
	}
	return b.checkAnswers(finals, b.name == "query-hot", res)
}

// removeDurably deletes the tree at dir and waits until the file system
// has committed the deletion (fsync of the parent directory commits the
// journal transaction that holds it, discards included). A run that left
// thousands of unlinks behind would have the file system commit them
// while the next run is timed, and every fsync there would wait.
func removeDurably(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	parent, err := os.Open(filepath.Dir(dir))
	if err != nil {
		return err
	}
	if err := parent.Sync(); err != nil {
		parent.Close()
		return err
	}
	return parent.Close()
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

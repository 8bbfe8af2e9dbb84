// Command servebench is trajsim's end-to-end benchmark. It starts the
// trajserve binary as its own process on loopback with a fresh data
// directory, drives it through one named workload from two connections,
// checks every answer it gets back, and prints the metrics. With
// -trace 1 it also feeds the same inputs through the packages trajserve
// is built from (trajio, core, stream, segstore), timing each call, and
// prints per-layer metrics instead. See README.md.
//
// Usage:
//
//	bash servebench/run.sh --workload ingest-fleet --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh compare runs/before runs/after
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: everything a reader or the compare
// mode needs to interpret the run.
type report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Env      map[string]string `json:"env"`
	Named    map[string]metric `json:"named"`
	Samples  map[string]int    `json:"samples"`
	Ops      map[string][2]int `json:"ops"` // attempted, failed
	Checked  map[string]int    `json:"checked"`
	Errors   []string          `json:"errors,omitempty"`
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: ingest-fleet, query-hot or mixed-live")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: also run the traced in-process pass and print per-layer metrics")
	bin := fs.String("trajserve", "", "trajserve binary to drive")
	work := fs.String("work", ".bench_build", "directory for data directories, logs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specNamed(*workload)
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -trajserve, -workload (ingest-fleet, query-hot, mixed-live), -seconds ≥ 1 and -trace 0|1")
		return 2
	}
	b := &bench{spec: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second, bin: *bin, setups: setupsPerRun}
	if *trace == 1 {
		b.setups = 1
	}
	b.dir = filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", sp.name, *seed, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	defer func() {
		if err := removeDurably(b.dir); err != nil {
			fmt.Fprintln(os.Stderr, "servebench: clean-up:", err)
		}
	}()

	b.devs = makeFleet(b.seed, b.devices, b.tilePoints)
	res, checkErr, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	rep := report{
		Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Env: environment(*bin, res.flags), Named: b.named(res),
		Samples: map[string]int{}, Ops: map[string][2]int{}, Checked: res.checked, Errors: res.errs,
	}
	last := summary{Correct: checkErr == nil}
	for _, op := range []string{opIngest, opRange, opAt} {
		if res.attempted[op] == 0 {
			continue
		}
		rep.Ops[op] = [2]int{res.attempted[op], res.failed[op]}
		rep.Samples[op] = len(res.lat[op])
		last.Attempted += res.attempted[op]
		last.Failed += res.failed[op]
	}
	if checkErr != nil {
		rep.Errors = append(rep.Errors, "check: "+checkErr.Error())
	}
	if *trace == 1 {
		layers, spansPath, err := b.traced(res, filepath.Join(*work, "spans"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: traced run:", err)
			return 1
		}
		last.Metrics = layers
		rep.Env["spans"] = spansPath
	} else {
		last.Metrics = b.endToEnd(res)
	}
	printReport(stdout, rep, last, res)
	return 0
}

// endToEnd computes the metrics BENCHMARK.json bounds. Every workload
// reports every one of them, so their names are workload-neutral; the
// latencies are in the report's named metrics, because on a shared VM
// no latency repeated within the largest bound on every workload.
func (b *bench) endToEnd(r *result) map[string]metric {
	ops := 0
	for op := range r.svc {
		ops += r.attempted[op] - r.failed[op]
	}
	return map[string]metric{
		"setup_s":                {percentile(append([]float64(nil), r.setups...), 0.5), "s"},
		"cpu_us_per_op":          {1e6 * r.cpu / float64(ops), "us/op"},
		"stored_bytes_per_point": {float64(r.bytes) / float64(r.persisted), "B/point"},
		"rss_peak_mb":            {r.rss, "MiB"},
	}
}

// named computes the workload's own end-to-end figures under the names
// README.md lists, with the sample count behind each percentile.
// request_p50_ms runs from the moment each request is sent: in the open
// loops that leaves out the generator's own lateness, which the
// per-operation percentiles include.
func (b *bench) named(r *result) map[string]metric {
	var all []float64
	for _, lat := range r.svc {
		all = append(all, lat...)
	}
	m := map[string]metric{
		"setup_s":        {percentile(append([]float64(nil), r.setups...), 0.5), "s"},
		"rss_peak_mb":    {r.rss, "MiB"},
		"request_p50_ms": {percentile(all, 0.5), "ms"},
	}
	for _, op := range []string{opIngest, opRange, opAt} {
		lat := append([]float64(nil), r.lat[op]...)
		if len(lat) == 0 {
			continue
		}
		m[op+"_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
		m[op+"_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	}
	switch b.name {
	case "ingest-fleet":
		m["ingest_points_per_s"] = metric{float64(r.ackPoints) / r.timed, "points/s"}
	case "query-hot":
		m["queries_per_s"] = metric{float64(r.attempted[opRange]+r.attempted[opAt]) / r.timed, "queries/s"}
	}
	m["host_steal_pct"] = metric{100 * r.steal, "%"}
	if len(r.late) > 0 { // the open loops: how late the generator ran
		m["late_p50_ms"] = metric{percentile(r.late, 0.5), "ms"}
		m["late_p99_ms"] = metric{percentile(r.late, 0.99), "ms"}
	}
	if b.name != "query-hot" {
		m["stored_bytes_per_point"] = metric{float64(r.bytes) / float64(r.persisted), "B/point"}
	}
	return m
}

func printReport(w io.Writer, rep report, last summary, r *result) {
	fmt.Fprintf(w, "servebench workload=%s seed=%d seconds=%d trace=%d\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	keys := func(m map[string]string) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for _, k := range keys(rep.Env) {
		fmt.Fprintf(w, "env %s: %s\n", k, rep.Env[k])
	}
	for _, op := range []string{opIngest, opRange, opAt} {
		if c, ok := rep.Ops[op]; ok {
			fmt.Fprintf(w, "operations %s: attempted %d, failed %d, latency samples %d\n", op, c[0], c[1], rep.Samples[op])
		}
	}
	fmt.Fprintf(w, "set-ups: %d, seconds %.4f, of which until trajserve answered %.4f; host steal %.1f%%\n",
		len(r.setups), r.setups, r.readies, 100*r.setupSteal)
	fmt.Fprintf(w, "timed phase: %.3f s, host steal %.1f%%\n", r.timed, 100*r.steal)
	verdict := "passed"
	if !last.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "checks %s: %v; points sent %d, segments %d, avg PED %.3f m, max PED/ζ %.4f\n",
		verdict, rep.Checked, r.q.points, r.q.segments, ratio(r.q.sumPED, float64(r.q.points)), r.q.maxRatio)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	printMetrics(w, "named", rep.Named)
	printMetrics(w, "metric", last.Metrics)
	line, _ := json.Marshal(rep)
	fmt.Fprintf(w, "report %s\n", line)
	line, _ = json.Marshal(last)
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, label string, m map[string]metric) {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		fmt.Fprintf(w, "%s %s = %.6g %s\n", label, k, m[k].Value, m[k].Unit)
	}
}

// environment describes where the run happened, so that its latencies
// are read as that host's: on a virtual machine fsync reaches a virtual
// disk, not a physical device.
func environment(bin string, flags []string) map[string]string {
	model, virtual := cpuInfo()
	host := "physical machine (no hypervisor flag in /proc/cpuinfo)"
	if virtual {
		host = "virtual machine: fsync reaches a virtual disk; latencies are this VM's, not a physical device's"
	}
	env := map[string]string{
		"nproc":                fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs_generator": fmt.Sprint(generatorProcs),
		"gomaxprocs_trajserve": os.Getenv("GOMAXPROCS"),
		"go":                   runtime.Version(),
		"cpu":                  model,
		"commit":               commit(),
		"trajserve":            bin,
		"trajserve_flags":      strings.Join(flags, " "),
		"host":                 host,
	}
	if env["gomaxprocs_trajserve"] == "" {
		// Unset: trajserve's runtime picks the CPU count, as this
		// process's did.
		env["gomaxprocs_trajserve"] = env["nproc"]
	}
	return env
}

// cpuInfo returns the CPU model and whether the kernel runs under a
// hypervisor, from /proc/cpuinfo.
func cpuInfo() (model string, virtual bool) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		switch k = strings.TrimSpace(k); {
		case !ok:
		case k == "model name" && model == "unknown":
			model = strings.TrimSpace(v)
		case k == "flags":
			virtual = virtual || strings.Contains(" "+v+" ", " hypervisor ")
		}
	}
	return model, virtual
}

// commit names the source revision: git's HEAD where the checkout is a
// repository of its own (a parent directory's repository is not asked),
// else "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

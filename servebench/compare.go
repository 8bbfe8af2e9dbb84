package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one saved run: its report line and its summary line.
type runOutput struct {
	rep report
	sum summary
}

// readRuns reads every file in dir as one run's saved standard output.
func readRuns(dir string) ([]runOutput, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		var lines []string
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		var r runOutput
		n := len(lines)
		if n < 2 || !strings.HasPrefix(lines[n-2], "report ") {
			continue // not a run's output
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[n-2], "report ")), &r.rep); err != nil {
			return nil, fmt.Errorf("%s: report: %w", p, err)
		}
		if err := json.Unmarshal([]byte(lines[n-1]), &r.sum); err != nil {
			return nil, fmt.Errorf("%s: summary: %w", p, err)
		}
		if r.rep.Trace == 0 {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// compareMain prints, for each workload and each end-to-end metric, the
// median and quartiles of two sets of saved runs, and whether the two
// medians differ by more than the metric's bound in BENCHMARK.json: a
// difference in the worse direction is a regression, one in the better
// direction an improvement. The workload's named metrics follow,
// unbounded. It exits 1 when any bounded metric regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("servebench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare [-benchmark BENCHMARK.json] BEFORE_DIR AFTER_DIR")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", *benchPath+":", err)
		return 1
	}
	var sides [2]map[string][]runOutput
	for i := range sides {
		runs, err := readRuns(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		sides[i] = map[string][]runOutput{}
		for _, r := range runs {
			sides[i][r.rep.Workload] = append(sides[i][r.rep.Workload], r)
		}
	}
	var workloads []string
	for wl := range sides[0] {
		if len(sides[1][wl]) > 0 {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	bounded := map[string]bool{}
	for _, m := range bf.EndToEnd {
		bounded[m.Name] = true
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-24s %-34s %-34s %s\n", "workload", "metric", "before median [q1, q3] (n)", "after median [q1, q3] (n)", "verdict")
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			a := values(sides[0][wl], m.Name, false)
			b := values(sides[1][wl], m.Name, false)
			verdict := "too few runs"
			if len(a) >= 2 && len(b) >= 2 {
				_, ma, _ := quartiles(append([]float64(nil), a...))
				_, mb, _ := quartiles(append([]float64(nil), b...))
				change := (mb - ma) / ma
				worse := change > 0
				if m.Better == "higher" {
					worse = change < 0
				}
				label := "within"
				switch {
				case math.Abs(change) <= m.Bound:
				case worse:
					label = "DIFFERS: REGRESSED"
					regressed = true
				default:
					label = "DIFFERS: improved"
				}
				verdict = fmt.Sprintf("%+.1f%%, bound ±%.0f%%: %s", 100*change, 100*m.Bound, label)
			}
			fmt.Fprintf(w, "%-14s %-24s %-34s %-34s %s\n", wl, m.Name, describe(a), describe(b), verdict)
		}
		for _, name := range namedMetrics(sides[0][wl]) {
			if bounded[name] {
				continue
			}
			fmt.Fprintf(w, "%-14s %-24s %-34s %-34s %s\n", wl, name,
				describe(values(sides[0][wl], name, true)), describe(values(sides[1][wl], name, true)), "(named, no bound)")
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func values(runs []runOutput, name string, named bool) []float64 {
	var out []float64
	for _, r := range runs {
		m, ok := r.sum.Metrics[name]
		if named {
			m, ok = r.rep.Named[name]
		}
		if ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func namedMetrics(runs []runOutput) []string {
	seen := map[string]bool{}
	for _, r := range runs {
		for k := range r.rep.Named {
			seen[k] = true
		}
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// describe renders a sample as "median [q1, q3] (n)".
func describe(xs []float64) string {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return fmt.Sprintf("%.6g (n=1)", xs[0])
		}
		return "-"
	}
	q1, q2, q3 := quartiles(append([]float64(nil), xs...))
	spread := math.NaN()
	if q2 != 0 {
		spread = (q3 - q1) / q2
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g] (n=%d, iqr %.1f%%)", q2, q1, q3, len(xs), 100*spread)
}

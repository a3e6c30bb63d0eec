// Command benchjson turns `go test -bench` output into a machine-
// readable perf-trajectory file. It reads the benchmark text from
// stdin, extracts ns/op per benchmark (plus B/op and allocs/op when
// the run used -benchmem), attaches the machine metadata needed to
// compare runs honestly (host label, Go version, OS, arch, CPU count),
// and writes one JSON document.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | benchjson -host ci -out BENCH_ci.json
//
// The parser ignores everything that is not a benchmark result line,
// so package headers, PASS/ok trailers and log output pass through
// harmlessly. Results keep their input order, which `go test` makes
// deterministic, so reruns on the same machine diff cleanly.
//
// A change that claims a speed-up can carry its own "before" column:
//
//	go test ... | benchjson -host host -before BENCH_parent.json -out BENCH_host.json
//
// copies the other report's results into the new one's "before" list,
// so one file holds the before and after rows. Diffs and baselines
// read only "benchmarks".
//
// Diff mode compares two report files instead of reading stdin:
//
//	benchjson -diff BENCH_old.json BENCH_new.json
//	benchjson -diff -threshold 0.10 BENCH_old.json BENCH_new.json
//
// It prints per-benchmark ns/op, B/op and allocs/op deltas (shared
// machinery with cmd/obsdiff) and exits 1 when any of them moved
// beyond -threshold, 0 otherwise — `make benchdiff` runs it
// non-blocking against the checked-in baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"

	"repro/internal/profdiff"
)

// Report is the schema of a BENCH_<host>.json file.
type Report struct {
	Host      string   `json:"host"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Results   []Result `json:"benchmarks"`
	// Before holds the benchmarks as measured on an earlier commit,
	// when the report was written with -before.
	Before []Result `json:"before,omitempty"`
}

// Result is one benchmark line: the name as printed (including the
// -N GOMAXPROCS suffix), the iteration count, the ns/op figure and,
// for -benchmem runs, the allocation figures (absent otherwise, so a
// kernel's 0 allocs/op stays distinguishable from "not measured").
type Result struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// benchLine matches `BenchmarkName-8  	      12	  98765 ns/op`;
// memLine finds -benchmem's `  12 B/op	  3 allocs/op` columns after it.
// Other custom metrics (MB/s, b.ReportMetric units) are ignored.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)
	memLine   = regexp.MustCompile(`\s(\d+) B/op\s+(\d+) allocs/op`)
)

// Parse extracts the benchmark results from `go test -bench` text.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", sc.Text(), err)
		}
		r := Result{Name: m[1], Iters: iters, NsPerOp: ns}
		if mm := memLine.FindStringSubmatch(sc.Text()); mm != nil {
			b, errB := strconv.ParseInt(mm[1], 10, 64)
			a, errA := strconv.ParseInt(mm[2], 10, 64)
			if errB != nil || errA != nil {
				return nil, fmt.Errorf("benchjson: bad allocation figures in %q", sc.Text())
			}
			r.BytesPerOp, r.AllocsPerOp = &b, &a
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: reading input: %w", err)
	}
	return out, nil
}

// Render builds the report document for a host label, with before
// as its optional "before" column.
func Render(host string, results, before []Result) ([]byte, error) {
	rep := Report{
		Host:      host,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Results:   results,
		Before:    before,
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defaultHost, _ := os.Hostname()
	if defaultHost == "" {
		defaultHost = "host"
	}
	host := fs.String("host", defaultHost, "host label recorded in the report (and baseline file name)")
	out := fs.String("out", "", "output path; stdout when empty")
	diff := fs.Bool("diff", false, "compare two report files (old new) instead of reading stdin")
	threshold := fs.Float64("threshold", 0, "with -diff: relative ns/op change (fraction) a benchmark must exceed to fail")
	beforePath := fs.String("before", "", "report whose results become this report's \"before\" rows")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		return runDiff(stdout, stderr, fs.Args(), *threshold)
	}
	results, err := Parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark result lines on stdin")
		return 1
	}
	var before []Result
	if *beforePath != "" {
		raw, err := os.ReadFile(*beforePath)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		var rep Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", *beforePath, err)
			return 1
		}
		before = rep.Results
	}
	doc, err := Render(*host, results, before)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *out == "" {
		_, err = stdout.Write(doc)
	} else {
		err = os.WriteFile(*out, doc, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(results), *out)
	}
	return 0
}

// runDiff is the -diff mode: per-benchmark ns/op (and allocation)
// deltas between two report files, exit 1 when any moved beyond the
// threshold.
func runDiff(stdout, stderr io.Writer, paths []string, threshold float64) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchjson: -diff needs exactly two report files (old new)")
		return 2
	}
	if threshold < 0 {
		fmt.Fprintln(stderr, "benchjson: -threshold must be non-negative")
		return 2
	}
	old, err := profdiff.LoadBench(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	cur, err := profdiff.LoadBench(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	rows := profdiff.Diff(old, cur)
	if err := profdiff.Render(stdout, rows, false); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	if changed := profdiff.Changed(rows, threshold); len(changed) > 0 {
		fmt.Fprintf(stdout, "%d benchmark(s) beyond threshold %g\n", len(changed), threshold)
		return 1
	}
	fmt.Fprintf(stdout, "no deltas beyond threshold %g\n", threshold)
	return 0
}

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]))
}

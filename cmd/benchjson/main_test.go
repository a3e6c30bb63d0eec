package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTable1Capability-8   	       1	  91234567 ns/op
BenchmarkFig3Level1-8         	       2	  45000000 ns/op	  12 B/op	       3 allocs/op
some stray log line
PASS
ok  	repro	1.234s
pkg: repro/internal/core
BenchmarkArgminDistance-8     	 1000000	      1234.5 ns/op
PASS
ok  	repro/internal/core	0.567s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	bytesPerOp, allocsPerOp := int64(12), int64(3)
	want := []Result{
		{Name: "BenchmarkTable1Capability-8", Iters: 1, NsPerOp: 91234567},
		{Name: "BenchmarkFig3Level1-8", Iters: 2, NsPerOp: 45000000, BytesPerOp: &bytesPerOp, AllocsPerOp: &allocsPerOp},
		{Name: "BenchmarkArgminDistance-8", Iters: 1000000, NsPerOp: 1234.5},
	}
	for i, w := range want {
		if !reflect.DeepEqual(results[i], w) {
			t.Errorf("result %d = %+v, want %+v", i, results[i], w)
		}
	}
}

// TestParseBenchmem: -benchmem columns survive a throughput column in
// front of them, and an allocation-free benchmark records explicit
// zeros in the report rather than dropping the fields.
func TestParseBenchmem(t *testing.T) {
	const line = "BenchmarkArgminDistance-2   \t  500000\t      2345 ns/op\t 27.94 MB/s\t       0 B/op\t       0 allocs/op\n"
	results, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].BytesPerOp == nil || results[0].AllocsPerOp == nil {
		t.Fatalf("allocation columns not kept: %+v", results)
	}
	if *results[0].BytesPerOp != 0 || *results[0].AllocsPerOp != 0 || results[0].NsPerOp != 2345 {
		t.Fatalf("parsed %+v", results[0])
	}
	doc, err := Render("h", results, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, []byte(`"bytes_per_op": 0`)) || !bytes.Contains(doc, []byte(`"allocs_per_op": 0`)) {
		t.Fatalf("zero allocation figures missing from the report:\n%s", doc)
	}
}

func TestParseEmpty(t *testing.T) {
	results, err := Parse(strings.NewReader("PASS\nok  \trepro\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from benchmark-free input, want 0", len(results))
	}
}

func TestRenderMetadata(t *testing.T) {
	doc, err := Render("ci", []Result{{Name: "BenchmarkX-4", Iters: 10, NsPerOp: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Host != "ci" {
		t.Errorf("host = %q, want ci", rep.Host)
	}
	if rep.GoVersion != runtime.Version() || rep.GOOS != runtime.GOOS || rep.GOARCH != runtime.GOARCH {
		t.Errorf("machine metadata %q/%q/%q does not match the runtime", rep.GoVersion, rep.GOOS, rep.GOARCH)
	}
	if rep.NumCPU < 1 {
		t.Errorf("num_cpu = %d, want >= 1", rep.NumCPU)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "BenchmarkX-4" {
		t.Errorf("results round-trip failed: %+v", rep.Results)
	}
	if !bytes.HasSuffix(doc, []byte("\n")) {
		t.Error("report does not end with a newline")
	}
}

func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	code := run(strings.NewReader(sampleBenchOutput), &stdout, &stderr, []string{"-host", "test", "-out", out})
	if code != 0 {
		t.Fatalf("run exit = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	if len(rep.Results) != 3 {
		t.Errorf("written report has %d results, want 3", len(rep.Results))
	}
}

// TestRunBefore: -before copies another report's results into the
// "before" column, and the diff machinery still reads only the
// current rows.
func TestRunBefore(t *testing.T) {
	dir := t.TempDir()
	parent := filepath.Join(dir, "parent.json")
	if err := os.WriteFile(parent, []byte(`{"host":"h","benchmarks":[{"name":"BenchmarkArgminDistance-8","iters":5,"ns_per_op":2000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_h.json")
	var stdout, stderr bytes.Buffer
	if code := run(strings.NewReader(sampleBenchOutput), &stdout, &stderr, []string{"-host", "h", "-before", parent, "-out", out}); code != 0 {
		t.Fatalf("run exit = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 || len(rep.Before) != 1 || rep.Before[0].NsPerOp != 2000 {
		t.Fatalf("report rows %d / before %+v", len(rep.Results), rep.Before)
	}
	stdout.Reset()
	if code := run(strings.NewReader(""), &stdout, &stderr, []string{"-diff", out, out}); code != 0 {
		t.Fatalf("self-diff exit = %d:\n%s", code, stdout.String())
	}
	if code := run(strings.NewReader(sampleBenchOutput), &stdout, &stderr, []string{"-before", filepath.Join(dir, "missing.json")}); code != 1 {
		t.Fatalf("missing -before file exit = %d, want 1", code)
	}
}

func TestRunNoResultsFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(strings.NewReader("PASS\n"), &stdout, &stderr, nil)
	if code != 1 {
		t.Fatalf("run exit = %d for benchmark-free input, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no benchmark result lines") {
		t.Errorf("stderr %q does not explain the failure", stderr.String())
	}
}

func TestDiffMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", `{"host":"h","benchmarks":[{"name":"BenchmarkA-8","iters":10,"ns_per_op":100}]}`)
	same := write("same.json", `{"host":"h","benchmarks":[{"name":"BenchmarkA-8","iters":12,"ns_per_op":100}]}`)
	slow := write("slow.json", `{"host":"h","benchmarks":[{"name":"BenchmarkA-8","iters":10,"ns_per_op":130}]}`)

	var stdout, stderr bytes.Buffer
	if code := run(strings.NewReader(""), &stdout, &stderr, []string{"-diff", old, same}); code != 0 {
		t.Errorf("identical ns/op diff exit = %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	if code := run(strings.NewReader(""), &stdout, &stderr, []string{"-diff", old, slow}); code != 1 {
		t.Errorf("30%% regression diff exit = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "+30.00%") {
		t.Errorf("diff output missing the delta:\n%s", stdout.String())
	}
	// Threshold above the regression passes.
	if code := run(strings.NewReader(""), &stdout, &stderr, []string{"-diff", "-threshold", "0.5", old, slow}); code != 0 {
		t.Errorf("thresholded diff exit = %d, want 0", code)
	}
	// Usage errors exit 2.
	if code := run(strings.NewReader(""), &stdout, &stderr, []string{"-diff", old}); code != 2 {
		t.Errorf("one-file diff exit = %d, want 2", code)
	}
	if code := run(strings.NewReader(""), &stdout, &stderr, []string{"-diff", old, filepath.Join(dir, "missing.json")}); code != 2 {
		t.Errorf("missing-file diff exit = %d, want 2", code)
	}
}

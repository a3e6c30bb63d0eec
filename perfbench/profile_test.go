package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		layer string
		tags  []string
	}{
		{"distance kernel", []string{
			"repro/internal/core.argminDistance",
			"repro/internal/core.(*level1Engine).step",
			"repro/internal/mpi.(*World).Run.func1",
		}, "core", []string{"core.argmin"}},
		{"runtime frame counts toward the repo frame above it", []string{
			"runtime.mallocgc",
			"runtime.makeslice",
			"repro/internal/dataset.(*GaussianMixture).Sample",
			"repro/internal/core.(*level3Engine).step",
		}, "dataset", nil},
		{"payload copy inside split", []string{
			"runtime.memmove",
			"repro/internal/mpi.(*Comm).sendPacket",
			"repro/internal/mpi.(*Comm).AllGather",
			"repro/internal/mpi.(*Comm).split",
			"repro/internal/mpi.(*Comm).Split",
		}, "mpi", []string{"mpi.split", "mpi.copy"}},
		{"memmove elsewhere is not a payload copy", []string{
			"runtime.memmove",
			"repro/internal/mpi.(*Comm).split",
		}, "mpi", []string{"mpi.split"}},
		{"scheduler handoff", []string{
			"runtime.chansend1",
			"repro/internal/sched.(*Task).Park",
		}, "sched", nil},
		{"other simulator package", []string{
			"repro/internal/vclock.(*Group).Sync",
			"repro/internal/core.runEngine",
		}, "sim.other", nil},
		{"no repo frame", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc", nil},
		{"forced collection between runs", []string{"runtime.gcStart", "runtime.GC", "main.timedRuns"}, "runtime.gc", nil},
		{"server JSON decode", []string{
			"strconv.ParseFloat",
			"encoding/json.(*decodeState).literalStore",
			"encoding/json.(*Decoder).Decode",
			"repro/internal/serve.(*Server).handleAssign",
			"net/http.(*conn).serve",
		}, "serve", []string{"serve.codec"}},
		{"server assign", []string{
			"repro/internal/serve.(*Snapshot).assignShard",
			"repro/internal/serve.(*Snapshot).Assign",
			"repro/internal/serve.(*Server).handleAssign",
			"net/http.(*conn).serve",
		}, "serve", []string{"serve.assign"}},
		{"server connection loop", []string{
			"syscall.Syscall",
			"net/http.(*conn).readRequest",
			"net/http.(*conn).serve",
		}, "serve", []string{"serve.http"}},
		{"trainer round runs the epoch engine", []string{
			"repro/internal/core.argminDistance",
			"repro/internal/core.Run",
			"repro/internal/serve.(*Trainer).runRound",
		}, "core", []string{"core.argmin", "serve.trainer"}},
		{"counting source wrapper", []string{"time.Now", "main.(*countingSource).Sample"}, "dataset", nil},
		{"client decode", []string{"encoding/json.Unmarshal", "main.(*loadgen).post"}, "loadgen", nil},
		{"client transport", []string{"bufio.(*Reader).Peek", "net/http.(*persistConn).readLoop"}, "loadgen", nil},
	}
	for _, c := range cases {
		layer, tagged := attribute(c.stack)
		if layer != c.layer || !slices.Equal(tagged, c.tags) {
			t.Errorf("%s: got %s %v, want %s %v", c.name, layer, tagged, c.layer, c.tags)
		}
	}
}

func TestFoldLayersPartitionSamples(t *testing.T) {
	b := fold([]stackSample{
		{[]string{"repro/internal/core.argminDistance"}, 3, 30e6},
		{[]string{"runtime.memmove", "repro/internal/mpi.(*Comm).sendPacket"}, 2, 20e6},
		{[]string{"runtime.gcBgMarkWorker"}, 1, 10e6},
	})
	if b.samples != 6 {
		t.Errorf("samples = %d, want 6", b.samples)
	}
	total := 0.0
	for _, l := range layers {
		total += b.seconds[l]
	}
	if math.Abs(total-0.06) > 1e-12 {
		t.Errorf("layers sum to %g s, want 0.06", total)
	}
	if b.seconds["mpi.copy"] != 0.02 || b.seconds["core.argmin"] != 0.03 {
		t.Errorf("tags %v", b.seconds)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spinning, all int64
	for _, s := range stacks {
		all += s.count
		if s.nanos <= 0 {
			t.Errorf("sample with %d ns", s.nanos)
		}
		if slices.ContainsFunc(s.stack, func(f string) bool { return strings.HasSuffix(f, ".spinForProfile") }) {
			spinning += s.count
		}
	}
	if spinning == 0 || spinning*2 < all {
		t.Errorf("%d of %d samples have spinForProfile on the stack", spinning, all)
	}
}

func TestWalkFieldsRejectsTruncation(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 1.
	if err := walkFields([]byte{0x12, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "length") {
		t.Errorf("truncated message: err = %v", err)
	}
}

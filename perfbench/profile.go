package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Layers a CPU-profile sample can be charged to. Every sample lands in
// exactly one of them, so their cpu_s figures sum to profile.samples.
var layers = []string{"core", "dataset", "mpi", "sched", "obs", "serve", "loadgen", "sim.other", "runtime.gc"}

// Cross-cutting tags: a sample carries a tag when the named code is on
// its stack, whichever layer it is charged to.
var tags = []string{"core.argmin", "mpi.split", "mpi.copy", "serve.assign", "serve.codec", "serve.http", "serve.trainer"}

const repoPrefix = "repro/internal/"

// attribute charges one sample, given its stack as function names
// innermost first, to a layer and a set of tags.
//
// The layer is the package of the innermost repro/internal frame;
// runtime and standard-library frames count toward the repo frame
// above them. The benchmark's own frames (package main) are the load
// generator, except its counting Source wrapper, which is dataset work.
// A stack with no repo or benchmark frame is the Go runtime (GC
// workers, the scheduler, the network poller), unless it is a net/http
// connection goroutine: the server side counts as serve, the client
// transport as loadgen. The benchmark's own untimed runtime.GC between
// runs is the runtime's too.
func attribute(stack []string) (layer string, tagged []string) {
	layer = "runtime.gc"
	for _, f := range stack {
		if f == "runtime.GC" {
			break
		}
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			switch pkg {
			case "core", "dataset", "mpi", "sched", "obs", "serve":
				layer = pkg
			default:
				layer = "sim.other"
			}
			break
		}
		if strings.HasPrefix(f, "main.") {
			layer = "loadgen"
			if strings.HasPrefix(f, "main.(*countingSource)") {
				layer = "dataset"
			}
			break
		}
	}
	if layer == "runtime.gc" {
		switch {
		case onStack(stack, "net/http.(*conn)."):
			layer = "serve"
		case onStack(stack, "net/http.(*persistConn)."):
			layer = "loadgen"
		}
	}
	if onStack(stack, repoPrefix+"core.argmin") {
		tagged = append(tagged, "core.argmin")
	}
	if onStack(stack, repoPrefix+"mpi.(*Comm).split") {
		tagged = append(tagged, "mpi.split")
	}
	if len(stack) > 0 && stack[0] == "runtime.memmove" && onStack(stack, repoPrefix+"mpi.(*Comm).sendPacket") {
		tagged = append(tagged, "mpi.copy")
	}
	if onStack(stack, repoPrefix+"serve.(*Trainer).") {
		tagged = append(tagged, "serve.trainer")
	} else if layer == "serve" {
		switch {
		case onStack(stack, repoPrefix+"serve.(*Snapshot).Assign"):
			tagged = append(tagged, "serve.assign")
		case onStack(stack, "encoding/json."):
			tagged = append(tagged, "serve.codec")
		default:
			tagged = append(tagged, "serve.http")
		}
	}
	return layer, tagged
}

// onStack reports whether any frame starts with prefix.
func onStack(stack []string, prefix string) bool {
	for _, f := range stack {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// cpuBreakdown is a CPU profile folded into layers and tags.
type cpuBreakdown struct {
	samples int64
	seconds map[string]float64 // by layer and by tag
}

// profileCPU runs fn under the CPU profiler and folds the profile.
func profileCPU(fn func()) (cpuBreakdown, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuBreakdown{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(&buf)
	if err != nil {
		return cpuBreakdown{}, fmt.Errorf("decoding CPU profile: %w", err)
	}
	return fold(stacks), nil
}

// stackSample is one profile sample: its stack innermost first, how
// many profiler ticks it stands for and their CPU nanoseconds.
type stackSample struct {
	stack []string
	count int64
	nanos int64
}

func fold(stacks []stackSample) cpuBreakdown {
	b := cpuBreakdown{seconds: map[string]float64{}}
	for _, s := range stacks {
		layer, tagged := attribute(s.stack)
		sec := float64(s.nanos) / 1e9
		b.samples += s.count
		b.seconds[layer] += sec
		for _, t := range tagged {
			b.seconds[t] += sec
		}
	}
	return b
}

// metrics reports every layer and tag as <name>.cpu_s divided by per,
// plus the sample count the shares rest on.
func (b cpuBreakdown) metrics(per float64) []metric {
	var ms []metric
	for _, name := range append(append([]string(nil), layers...), tags...) {
		ms = append(ms, metric{name + ".cpu_s", b.seconds[name] / per, "s"})
	}
	return append(ms, metric{"profile.samples", float64(b.samples), "count"})
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes and returns its samples with symbolized stacks. Only the
// fields attribution needs are decoded: samples (location ids and
// values), locations (their line entries, innermost inlined function
// first), functions (name) and the string table.
func decodeProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids
		funcNames = map[uint64]int64{}    // function id → string index
		strtab    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("sample without count and nanoseconds")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strtab) {
					return nil, fmt.Errorf("function name index %d out of range", idx)
				}
				stack = append(stack, strtab[idx])
			}
		}
		out = append(out, stackSample{stack: stack, count: int64(s.values[0]), nanos: int64(s.values[1])})
	}
	return out, nil
}

// walkFields calls fn for each field of one protobuf message: v holds
// a varint (or fixed) value, b the bytes of a length-delimited one.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either
// unpacked (one value in v) or packed (varints in b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

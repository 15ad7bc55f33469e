package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
)

// layers are the repository's packages the fold charges, in report
// order: "other" takes any other repro/internal package, and "gc" every
// sample with no repository frame (collector, scheduler, the benchmark's
// own loop).
var layers = []string{"sim", "channel", "radio", "mac", "mcu", "tinyos", "app", "ecg", "asic",
	"codec", "packet", "energy", "battery", "metrics", "audit", "fault", "node", "core",
	"runner", "experiments", "other", "gc"}

const repoPrefix = "repro/internal/"

// layerOf maps a function name to its layer; ok is false for a function
// outside the repository.
func layerOf(fn string) (layer string, ok bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if named := layers[:len(layers)-2]; slices.Contains(named, rest) {
		return rest, true
	}
	return "other", true
}

// leafLayer charges a stack, leaf first, to its leaf-most repository
// frame, or to "gc" when it has none.
func leafLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	return "gc"
}

// shares turns per-layer weights into percentages of their sum, with
// every layer present.
func shares(weight map[string]float64) map[string]float64 {
	var total float64
	for _, l := range layers {
		total += weight[l]
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
		if total > 0 {
			out[l] = weight[l] / total * 100
		}
	}
	return out
}

// profile is the part of a runtime/pprof CPU profile the fold reads.
type profile struct {
	sampleTypes []string
	samples     []profileSample
	// locations maps a location ID to its function IDs, innermost
	// inlined frame first.
	locations map[uint64][]uint64
	// functions maps a function ID to its name's string-table index.
	functions map[uint64]uint64
	strings   []string
}

type profileSample struct {
	locations []uint64 // leaf first
	values    []int64
}

var errProfile = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, wire uint64, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		wire := key & 7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
		case 1: // fixed64
			n = 8
		case 2:
			l, m := binary.Uvarint(b)
			if m <= 0 || l > uint64(len(b)-m) {
				return errProfile
			}
			data, n = b[m:m+int(l)], m+int(l)
		case 5: // fixed32
			n = 4
		default:
			return errProfile
		}
		if n > len(b) {
			return errProfile
		}
		b = b[n:]
		if err := fn(int(key>>3), wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed or not.
func varints(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile reads a gzipped profile.proto: sample types, samples,
// locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	var typeIdx []uint64
	err = fields(raw, func(num int, _ uint64, _ uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			return fields(data, func(num int, _, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: {location_id, value}
			var locs, vals []uint64
			err := fields(data, func(num int, wire, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					locs, err = varints(locs, wire, v, data)
				case 2:
					vals, err = varints(vals, wire, v, data)
				}
				return err
			})
			s := profileSample{locations: locs}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id, line{function_id}}
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, _, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, _, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id, name}
			var id, name uint64
			err := fields(data, func(num int, _, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, i := range typeIdx {
		if i >= uint64(len(p.strings)) {
			return nil, fmt.Errorf("profile: %w", errProfile)
		}
		p.sampleTypes = append(p.sampleTypes, p.strings[i])
	}
	return p, nil
}

// stack names a sample's frames, leaf first, inlined frames expanded.
func (p *profile) stack(s profileSample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i < uint64(len(p.strings)) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// addCPU adds the profile's CPU time to each layer's weight. Samples
// taken inside the benchmark's own runtime.GC calls, made between
// iterations, are left out.
func addCPU(weight map[string]float64, p *profile) {
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
outer:
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		stack := p.stack(s)
		for _, fn := range stack {
			if fn == "runtime.GC" {
				continue outer
			}
		}
		weight[leafLayer(stack)] += float64(s.values[vi])
	}
}

// allocCount is one stack's cumulative sampled allocations.
type allocCount struct{ objects, bytes int64 }

// memProfile snapshots the runtime's cumulative allocation profile.
func memProfile() map[[32]uintptr]allocCount {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if !ok {
			n = m
			continue
		}
		out := make(map[[32]uintptr]allocCount, m)
		for _, r := range recs[:m] {
			c := out[r.Stack0]
			out[r.Stack0] = allocCount{c.objects + r.AllocObjects, c.bytes + r.AllocBytes}
		}
		return out
	}
}

// addAllocs adds the objects allocated between two snapshots to each
// layer's weight. The runtime samples one allocation per MemProfileRate
// bytes on average, so each stack's sampled count is scaled up by its
// sampling probability, as pprof does.
func addAllocs(weight map[string]float64, before, after map[[32]uintptr]allocCount) {
	rate := float64(runtime.MemProfileRate)
	// Sorted stacks keep the floating-point sums independent of map order.
	keys := make([][32]uintptr, 0, len(after))
	for key := range after {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b [32]uintptr) int { return slices.Compare(a[:], b[:]) })
	for _, key := range keys {
		c := after[key]
		objects := c.objects - before[key].objects
		bytes := c.bytes - before[key].bytes
		if objects <= 0 || rate <= 0 {
			continue
		}
		avg := float64(bytes) / float64(objects)
		estimate := float64(objects) / (1 - math.Exp(-avg/rate))
		var r runtime.MemProfileRecord
		r.Stack0 = key
		frames := runtime.CallersFrames(r.Stack())
		var stack []string
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		weight[leafLayer(stack)] += estimate
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuLayers are the layers CPU samples are charged to: the program's
// packages, "other" (the facade and internal packages not listed),
// "bench" (this benchmark's own code) and "runtime" — the stated
// residual: samples with no frame of the program or the benchmark
// beneath them, i.e. the Go scheduler, garbage collector and idle
// threads.
var cpuLayers = []string{"sim", "mem", "fabric", "prim", "core", "cluster", "chaos", "trace", "ncclsim", "cudasim", "tune", "other", "bench", "runtime"}

// cpuFold is a CPU profile folded two ways: samples per layer, each
// sample charged to the deepest frame that belongs to a layer, and
// samples per leaf function (self time).
type cpuFold struct {
	total float64
	layer map[string]float64
	self  map[string]float64
}

func (c *cpuFold) share(layer string) float64 { return ratio(c.layer[layer], c.total) }

// top lists the n functions with the most self time, as text.
func (c *cpuFold) top(n int) []string {
	names := make([]string, 0, len(c.self))
	for name := range c.self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if c.self[names[i]] != c.self[names[j]] {
			return c.self[names[i]] > c.self[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	for i, name := range names {
		names[i] = fmt.Sprintf("%5.1f%%  %s", 100*ratio(c.self[name], c.total), name)
	}
	return names
}

// layerOf names the layer a function belongs to, or "" for a frame that
// decides nothing (the Go runtime and standard library).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "dfccl/internal/"):
		pkg := strings.TrimPrefix(fn, "dfccl/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "dfccl."):
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// foldProfile decodes a gzipped pprof CPU profile (the subset of
// profile.proto that runtime/pprof writes) and folds it.
func foldProfile(gz []byte) (*cpuFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count float64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location → function IDs, innermost first
	funcName := map[uint64]uint64{}   // function → string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = float64(int64(values[0]))
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	c := &cpuFold{layer: map[string]float64{}, self: map[string]float64{}}
	for _, s := range samples {
		c.total += s.count
		layer, leaf := "runtime", ""
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				n := name(fn)
				if leaf == "" {
					leaf = n
				}
				if l := layerOf(n); l != "" {
					layer = l
					break walk
				}
			}
		}
		c.layer[layer] += s.count
		c.self[leaf] += s.count
	}
	return c, nil
}

// fields walks the fields of one protobuf message. Varint fields arrive
// in v, length-delimited fields in b.
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := visit(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either way
// protobuf encodes it: one value, or a packed run.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

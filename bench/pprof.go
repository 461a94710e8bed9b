package main

// A minimal reader for the gzipped profile.proto that runtime/pprof writes,
// enough to attribute CPU samples to simulator packages without adding a
// module dependency. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuGroups are the groups the traced pass splits CPU time into: the
// simulator's layers, allocation and garbage collection, the benchmark's
// own seam wrappers and timers, and everything else.
var cpuGroups = []string{
	"sim", "trace", "batch", "device", "container", "cluster", "autoscale",
	"perfmodel", "profile", "predict", "core", "metrics", "telemetry", "shard",
	"invariant", "gc_alloc", "bench", "other",
}

// The traced repetitions run under this pprof label; samples without it
// (kernel readings, summaries) are not the workload's.
const profLabelKey, profLabelValue = "bench", "rep"

// cpuShares returns each group's percentage of the profile's sampled CPU
// time in the labelled repetitions, plus the background garbage collection
// they caused. A sample is charged to the first frame, walking from the
// leaf towards the root, that belongs to a simulator package or to the
// benchmark; standard-library frames on the way (sorting, hashing, maps,
// memmove) are charged to the layer that called them, allocation and
// garbage-collection frames to "gc_alloc", and samples with neither (the
// scheduler) to "other".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64
		sampleVal []int64
		labelled  [][][2]int64 // per sample: (key, value) string indices
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			var labels [][2]int64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = pbPacked(locs, v, b)
				case 2:
					for _, x := range pbPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				case 3: // label
					var kv [2]int64
					err := pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					labels = append(labels, kv)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("profile: sample without values")
			}
			samples = append(samples, locs)
			sampleVal = append(sampleVal, vals[len(vals)-1])
			labelled = append(labelled, labels)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	shares := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		shares[g] = 0
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var total float64
	for i, locs := range samples {
		var frames []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				frames = append(frames, str(funcName[f]))
			}
		}
		ours := slices.Contains(frames, "runtime.gcBgMarkWorker")
		for _, kv := range labelled[i] {
			ours = ours || str(kv[0]) == profLabelKey && str(kv[1]) == profLabelValue
		}
		if !ours {
			continue
		}
		v := float64(sampleVal[i])
		shares[cpuGroup(frames)] += v
		total += v
	}
	if total > 0 {
		for g := range shares {
			shares[g] *= 100 / total
		}
	}
	return shares, nil
}

// cpuGroup charges one stack (leaf first) to a group; see cpuShares.
func cpuGroup(frames []string) string {
	for _, fn := range frames {
		pkg := funcPackage(fn)
		switch {
		case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime"):
			if isGCAlloc(fn) {
				return "gc_alloc"
			}
		case pkg == "main":
			return "bench"
		case strings.HasPrefix(pkg, "repro/internal/"):
			leaf := strings.TrimPrefix(pkg, "repro/internal/")
			for _, g := range cpuGroups {
				if g == leaf {
					return g
				}
			}
			return "other"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/sim.(*Engine).Run" or "slices.Sort[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

var gcAllocMarks = []string{
	"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"gcBgMarkWorker", "gcDrain", "gcAssist", "gcStart", "gcMark", "scanobject",
	"scanblock", "greyobject", "markroot", "findObject", "sweep", "scavenge",
	"wbBuf", "gcWriteBarrier", "bulkBarrier", "heapBits", "nextFree",
	"memclrNoHeapPointers", "(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)",
	"(*gcWork)", "(*gcControllerState)",
}

func isGCAlloc(fn string) bool {
	for _, m := range gcAllocMarks {
		if strings.Contains(fn, m) {
			return true
		}
	}
	return false
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none that matter here.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked appends a repeated varint field, which arrives either packed
// (data set) or as one unpacked value.
func pbPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. This file walks just enough of it with the standard library
// — samples, locations, functions and the string table — to attribute
// CPU time to packages and pipeline stages, so the module needs no
// profile-parsing dependency.

// Field numbers of profile.proto messages.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

// shareBuckets are the host_share.<bucket> metrics. Simulator packages
// are named after their directory under internal/; runtime covers the
// Go runtime including GC; io covers the network, syscalls and files;
// encoding covers JSON and reflection; other is the rest.
var shareBuckets = []string{"pipeline", "core", "lsq", "cache", "coherence", "consistency",
	"system", "prog", "bpred", "litmus", "farm", "par", "runtime", "io", "encoding", "other"}

// stageOf maps a pipeline.(*Core) method to the stage it belongs to.
var stageOf = map[string]string{
	"fetch":    "fetch",
	"dispatch": "dispatch", "dispatchOne": "dispatch",
	"issue": "issue", "tryIssue": "issue", "issueALU": "issue", "issueBranch": "issue",
	"issueStoreAgen": "issue", "issueLoad": "issue",
	"writeback": "writeback", "complete": "writeback", "resolveBranch": "writeback",
	"captureStoreData": "capture",
	"commit":           "commit",
	"replayStage":      "replay",
	"Quiescent":        "quiesce", "replayQuiescent": "quiesce", "issueWould": "quiesce",
	"lqFull": "quiesce", "FastForward": "quiesce",
}

var stages = []string{"fetch", "dispatch", "issue", "writeback", "capture", "commit", "replay", "quiesce"}

// hostShares decodes a CPU profile and returns the share of CPU time
// whose innermost frame lies in each bucket, and the share spent inside
// each pipeline stage (innermost stage method on the stack).
func hostShares(gz []byte) (map[string]float64, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]int64{}
	byStage := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		total += s.weight
		var names []string // innermost first
		for _, loc := range s.locs {
			for _, fn := range prof.locs[loc] {
				names = append(names, prof.name(fn))
			}
		}
		if len(names) == 0 {
			byBucket["other"] += s.weight
			continue
		}
		byBucket[bucketOf(names[0])] += s.weight
		for _, n := range names {
			if method, ok := strings.CutPrefix(n, "vbmo/internal/pipeline.(*Core)."); ok {
				if st, ok := stageOf[method]; ok {
					byStage[st] += s.weight
					break
				}
			}
		}
	}
	out := map[string]float64{}
	for _, b := range shareBuckets {
		out["host_share."+b] = div(float64(byBucket[b]), float64(total))
	}
	for _, st := range stages {
		out["host_share.pipeline."+st] = div(float64(byStage[st]), float64(total))
	}
	return out, nil
}

// bucketOf maps a profiled function name to its share bucket.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "vbmo/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		for _, b := range shareBuckets {
			if b == first {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" || pkg == "os" ||
		pkg == "internal/poll" || pkg == "bufio" || strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "io"
	case strings.HasPrefix(pkg, "encoding/") || pkg == "reflect" || pkg == "strconv":
		return "encoding"
	}
	return "other"
}

type profSampleRec struct {
	locs   []uint64 // innermost first
	weight int64    // CPU nanoseconds
}

type cpuProfile struct {
	samples []profSampleRec
	locs    map[uint64][]uint64 // location -> function IDs, innermost first
	funcs   map[uint64]int64    // function -> name string index
	strs    []string
}

func (p *cpuProfile) name(fn uint64) string {
	if i := p.funcs[fn]; i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// decodeProfile reads the parts of a gzipped profile.proto that
// hostShares needs. The CPU-time value is the sample value whose type
// is "cpu"; without one, the last value is used.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	var typeIdx []int64
	var values [][]uint64
	err = walkProto(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			return walkProto(data, func(n, _ int, v uint64, _ []byte) error {
				if n == valueTypeType {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case profSample:
			var s profSampleRec
			var vals []uint64
			err := walkProto(data, func(n, w int, v uint64, d []byte) error {
				var err error
				switch n {
				case sampleLocation:
					s.locs, err = appendVarints(s.locs, w, v, d)
				case sampleValue:
					vals, err = appendVarints(vals, w, v, d)
				}
				return err
			})
			p.samples = append(p.samples, s)
			values = append(values, vals)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walkProto(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return walkProto(d, func(n, _ int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			name := int64(-1)
			err := walkProto(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringTable:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := len(typeIdx) - 1
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(p.strs) && p.strs[t] == "cpu" {
			cpu = i
		}
	}
	for i := range p.samples {
		if cpu >= 0 && cpu < len(values[i]) {
			p.samples[i].weight = int64(values[i][cpu])
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf message")

// walkProto calls fn for every field of one protobuf message: v holds
// a varint or fixed value, data a length-delimited payload.
func walkProto(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, in either its plain
// (one varint per field) or packed (length-delimited run) encoding.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

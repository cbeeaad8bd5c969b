package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one recorded interval at a layer boundary. Parent is the
// index of the enclosing span (-1 for a pass). Calls and Busy aggregate
// a child layer's calls inside the span (the allocator, whose calls are
// too many to record one by one).
type span struct {
	Name    string        `json:"name"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Child   string        `json:"child,omitempty"`
	Calls   uint64        `json:"calls,omitempty"`
	Busy    time.Duration `json:"busy_ns,omitempty"`
	SelfDur time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so the untraced path pays only a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Start: time.Since(tr.epoch)})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	s := &tr.spans[id]
	s.End = time.Since(tr.epoch)
	s.SelfDur = s.End - s.Start - s.Busy
}

// aggregate attaches a child layer's call count and summed time to an
// open span; the span's self time excludes it.
func (tr *tracer) aggregate(id int, child string, calls uint64, busy time.Duration) {
	if tr == nil {
		return
	}
	s := &tr.spans[id]
	s.Child, s.Calls, s.Busy = child, calls, busy
}

// mallocs returns the process's cumulative Go heap allocation count
// (zero when untraced; ReadMemStats stops the world).
func (tr *tracer) mallocs() uint64 {
	if tr == nil {
		return 0
	}
	runtime.ReadMemStats(&tr.ms)
	return tr.ms.Mallocs
}

// write stores the spans as JSON in dir.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// layerTimes sums span durations by name within each pass, in pass
// order, adding the aggregated child time and the ".self" time of spans
// that carry one: the per-layer series the traced metrics take medians
// of.
func (tr *tracer) layerTimes() []map[string]time.Duration {
	var out []map[string]time.Duration
	passOf := make([]int, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent < 0 {
			passOf[i] = len(out)
			out = append(out, map[string]time.Duration{})
			continue
		}
		passOf[i] = passOf[s.Parent]
		m := out[passOf[i]]
		m[s.Name] += s.End - s.Start
		if s.Child != "" {
			m[s.Child] += s.Busy
			m[s.Name+".self"] += s.SelfDur
		}
	}
	return out
}

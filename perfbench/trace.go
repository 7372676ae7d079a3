package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around its own call
// into a layer. Times are ns on the benchmark's clock (now()).
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the causing span in the trial, -1 for a root
	req        int64 // request the span belongs to, -1 for none
}

// tracer keeps a trial's spans in memory. A tracer that is off records
// nothing, so untraced trials pay only the nil checks. It is used from the
// driving goroutine only.
type tracer struct {
	on    bool
	spans []span
}

// add records a span of request req (-1 for none). Parents are linked
// once the request's root span exists (see link).
func (t *tracer) add(name string, start, end int64, req int64) {
	if t.on {
		t.spans = append(t.spans, span{name: name, start: start, end: end, parent: -1, req: req})
	}
}

// durations returns the lengths of the named spans, in unit.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns, for each span named root, its duration minus the part
// of it its child spans cover, in unit.
func selfTimes(spans []span, root string, unit time.Duration) []float64 {
	covered := make(map[int32]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range spans {
		if s.name == root {
			out = append(out, float64(s.end-s.start-covered[int32(i)])/float64(unit))
		}
	}
	return out
}

// writeSpans dumps every traced trial's spans as tab-separated lines.
func writeSpans(dir, workload string, seed int64, trials []*trial) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trial\tname\tstart_ns\tend_ns\tparent\treq")
	for i, t := range trials {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goStats is a reading of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

var goSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoStats() goStats {
	s := append([]rtmetrics.Sample(nil), goSamples...)
	rtmetrics.Read(s)
	return goStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// goLayer fills the Go runtime rows of a trial from readings taken around
// its measured phase.
func goLayer(t *trial, before, after goStats, ops int) {
	t.layer["go.alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1024 / float64(ops)
	if cpu := after.allCPU - before.allCPU; cpu > 0 {
		t.layer["go.gc_cpu_pct"] = (after.gcCPU - before.gcCPU) / cpu * 100
	}
}

// heapWatch tracks the peak live Go heap: the bytes the latest garbage
// collection marked live, sampled every 10ms until stopped, and once more
// after a collection forced at the end. Unlike the
// bytes in heap objects, which swing with the collector's pacing, this
// follows what the program keeps reachable.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

// end stops the sampler, waits for it, and returns the peak.
func (h *heapWatch) end() uint64 {
	close(h.stop)
	h.done.Wait()
	goruntime.GC()
	h.sample()
	return h.peak
}

// Command perfbench is the repository's benchmark: four workloads run
// against the public surfaces of runtime/live, core, desengine and
// optimistic, each checked for correctness on every run, reporting the
// end-to-end metrics (untraced) or the per-layer metrics (traced) as one
// JSON object on the last line of standard output.
//
//	perfbench --workload live-spread --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20
//
// A run sets up a fresh cluster or simulator, drives the workload's inputs
// (generated from --seed) through it, verifies the outcome, tears it down,
// and repeats with the same inputs until --seconds of measurement are
// spent. Timings are pooled or taken as medians over the repeats. See
// README.md for why each workload exists and what each metric predicts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// epoch anchors the benchmark's single wall clock: every live timestamp the
// benchmark records is time.Since(epoch), on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// trial is one fresh set-up plus one pass over the workload's inputs.
type trial struct {
	traced    bool
	setup     time.Duration
	wall      time.Duration // the measured phase, set-up excluded
	attempted int
	failed    int
	commits   int
	msgs      int       // network messages sent during the measured phase
	heapPeak  uint64    // bytes of live Go heap, peak over the phase (see heapWatch)
	writeMs   []float64 // per committed write (wall on live, virtual on DES)
	readMs    []float64 // per answered quorum read (live-hotkey)
	lockMs    []float64 // per committed update, virtual ALT (des-paper)
	layer     map[string]float64
	spans     []span
}

func (t *trial) commitsPerSec() float64 { return float64(t.commits) / t.wall.Seconds() }

// scenario is one named workload. gen makes the inputs from the seed; run
// executes trial i over them; setup times a set-up and tear-down alone.
type scenario struct {
	name string
	why  string
	// primary is the end-to-end metric the trace overhead is judged on.
	primary string
	// schedules, when nonzero, is how many distinct input sets the trials
	// cycle through. A run completes at least that many trials, and the
	// deterministic (virtual-time) metrics come from the first of them.
	// Zero gives every trial fresh inputs.
	schedules int
	gen       func(seed int64) any
	run       func(in any, i int, tr *tracer) (*trial, error)
	setup     func(in any) (time.Duration, error)
}

var workloads = []*scenario{liveSpread, liveHotkey, desPaper, desOptimistic}

// violation marks a failed correctness check. It is never folded into the
// timing metrics: a run that sees one reports correct=false and exits 1.
type violation struct{ msg string }

func (v *violation) Error() string { return "correctness: " + v.msg }

func violationf(format string, args ...any) error {
	return &violation{msg: fmt.Sprintf(format, args...)}
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 7

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: live-spread, live-hotkey, des-paper, des-optimistic, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "seconds of measurement per workload")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory the span dump is written to")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var sel []*scenario
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	code := 0
	for _, w := range sel {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out)
		var v *violation
		switch {
		case errors.As(err, &v):
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	os.Exit(code)
}

// runWorkload repeats trials of w until the measurement budget is spent
// and reduces them to the reported metrics. A correctness violation stops
// the run and comes back as the error next to a result with correct=false.
func runWorkload(w *scenario, seed int64, budget time.Duration, traced bool, outDir string) (result, error) {
	in := w.gen(seed)
	var trials []*trial
	var setups []time.Duration
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	start := time.Now()
	for i := 0; ; i++ {
		// Scavenge what the previous trial left so each one starts from
		// the same heap, as the A9 live-speed experiment does.
		debug.FreeOSMemory()
		tr := &tracer{on: traced && i%2 == 1}
		t, err := w.run(in, i, tr)
		if t != nil {
			res.Attempted += t.attempted
			res.Failed += t.failed
		}
		if err != nil {
			res.Correct = false
			if res.Attempted == 0 {
				res.Attempted = 1
			}
			return res, err
		}
		t.traced = tr.on
		t.spans = tr.spans
		trials = append(trials, t)
		setups = append(setups, t.setup)
		elapsed := time.Since(start)
		perTrial := elapsed / time.Duration(i+1)
		enough := i+1 >= max(w.schedules, 1) && (!traced || i >= 1)
		if enough && elapsed+perTrial > budget {
			break
		}
	}
	for len(setups) < minSetups {
		debug.FreeOSMemory()
		d, err := w.setup(in)
		if err != nil {
			return res, err
		}
		setups = append(setups, d)
	}
	if traced {
		if err := writeSpans(outDir, w.name, seed, trials); err != nil {
			return res, err
		}
		res.Metrics = perLayerMetrics(w, trials)
		printTable(w, trials, res.Metrics, perLayer)
		return res, nil
	}
	res.Metrics = endToEndMetrics(w, trials, setups)
	printTable(w, trials, res.Metrics, endToEnd)
	return res, nil
}

// endToEndMetrics reduces untraced trials to the gated metrics. Rates and
// latencies are medians over trials of each trial's figure, which keeps a
// trial hit by a noisy neighbour from moving the result; on a workload
// with fixed schedules the latencies and message counts come from one
// trial per schedule, so they are exact for a seed.
func endToEndMetrics(w *scenario, trials []*trial, setups []time.Duration) map[string]metricValue {
	var cps, heap, p50, p90 []float64
	attempted, failed, msgs, commits := 0, 0, 0, 0
	for i, t := range trials {
		cps = append(cps, t.commitsPerSec())
		heap = append(heap, float64(t.heapPeak)/(1<<20))
		attempted += t.attempted
		failed += t.failed
		if w.schedules > 0 && i >= w.schedules {
			continue
		}
		p50 = append(p50, percentile(t.writeMs, 50))
		p90 = append(p90, percentile(t.writeMs, 90))
		msgs += t.msgs
		commits += t.commits
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return values(endToEnd, map[string]float64{
		"setup_s":         median(setupS),
		"commits_per_s":   median(cps),
		"write_p50_ms":    median(p50),
		"write_p90_ms":    median(p90),
		"done_frac":       float64(attempted-failed) / float64(attempted),
		"heap_peak_mb":    median(heap),
		"msgs_per_commit": float64(msgs) / float64(commits),
	})
}

// perLayerMetrics reduces a traced run: layer values are medians over the
// traced trials, the client-side read and lock latencies pool the untraced
// ones, and the trace overhead compares the two halves on the workload's
// primary metric.
func perLayerMetrics(w *scenario, trials []*trial) map[string]metricValue {
	var plain, traced []*trial
	for _, t := range trials {
		if t.traced {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	vals := map[string]float64{}
	for _, m := range perLayer {
		var per []float64
		for _, t := range traced {
			per = append(per, t.layer[m.name])
		}
		vals[m.name] = median(per)
	}
	var writes, reads, locks []float64
	for _, t := range plain {
		writes = append(writes, t.writeMs...)
		reads = append(reads, t.readMs...)
		locks = append(locks, t.lockMs...)
	}
	vals["client.write_p99_ms"] = percentile(writes, 99)
	vals["client.read_p50_ms"] = percentile(reads, 50)
	vals["client.read_p99_ms"] = percentile(reads, 99)
	vals["client.lock_p50_ms"] = percentile(locks, 50)
	primary := func(ts []*trial) float64 {
		var per []float64
		for _, t := range ts {
			if w.primary == "write_p50_ms" {
				per = append(per, percentile(t.writeMs, 50))
			} else {
				per = append(per, t.commitsPerSec())
			}
		}
		return median(per)
	}
	base, cost := primary(plain), primary(traced)
	if w.primary == "write_p50_ms" {
		vals["bench.trace_overhead_pct"] = (cost - base) / base * 100
	} else {
		vals["bench.trace_overhead_pct"] = (base - cost) / base * 100
	}
	return values(perLayer, vals)
}

func values(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// printTable writes the human-readable report: every metric of the run
// with its unit, the per-layer ones with the end-to-end metric each should
// move, plus the workload-specific client figures that are not gated.
func printTable(w *scenario, trials []*trial, ms map[string]metricValue, defs []metricDef) {
	fmt.Printf("workload %s (%d trials): %s\n", w.name, len(trials), w.why)
	for _, d := range defs {
		m := ms[d.name]
		if d.moves != "" {
			fmt.Printf("  %-28s %14.4f %-6s should move: %s\n", d.name, m.Value, m.Unit, d.moves)
		} else {
			fmt.Printf("  %-28s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	if defs[0].moves != "" {
		return
	}
	var writes, reads, locks []float64
	for _, t := range trials {
		writes = append(writes, t.writeMs...)
		reads = append(reads, t.readMs...)
		locks = append(locks, t.lockMs...)
	}
	fmt.Printf("  %-28s %14.4f ms (pooled, n=%d)\n", "write_p99_ms", percentile(writes, 99), len(writes))
	if len(reads) > 0 {
		fmt.Printf("  %-28s %14.4f ms (n=%d)\n", "read_p50_ms", percentile(reads, 50), len(reads))
		fmt.Printf("  %-28s %14.4f ms\n", "read_p99_ms", percentile(reads, 99))
	}
	if len(locks) > 0 {
		fmt.Printf("  %-28s %14.4f ms (virtual)\n", "vt_alt_p50_ms", percentile(locks, 50))
	}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks; 0 for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

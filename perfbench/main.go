// Command perfbench is the repository's wall-clock benchmark. It drives an
// in-process spmvd (internal/server over a core.Framework), or calls
// internal/core directly for the offline tuning workload, from one process
// with at most nproc closed-loop client goroutines. Every input is generated
// from the workload seed, every output is checked, and the last line of
// standard output is one JSON object with the run's metrics.
//
//	go run . --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs the
// first half of the time untraced and the second half traced: spans recorded
// around the benchmark's calls into each layer's public functions give the
// per-layer metrics, and the traced minus untraced served-op time is the
// tracing overhead. The spans are written to .bench_build/ at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, the last set-up is the one measured.
const setupReps = 5

// nproc bounds the client goroutines of a workload.
var nproc = runtime.NumCPU()

func main() {
	workload := flag.String("workload", "", "workload name (see workloads.go)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one traffic mix against the system.
type workload interface {
	// setup builds the system anew (model, daemon, uploads, first
	// plans); the last call's system is the one measured.
	setup() error
	// prepare warms the measured system and records per-matrix facts: the
	// modeled GFLOP/s and a first bare CSR.MulVec baseline. Layer spans of
	// the set-up path are recorded on tr when it is non-nil.
	prepare(tr *tracer) error
	// drive runs the closed loop until the deadline, at whole rounds.
	drive(ph *phase, deadline time.Time)
	// check verifies a finished phase against the daemon's own counters.
	check(ph *phase) error
	// layers fills the per-layer metrics from the untraced phase a and
	// the traced phase b.
	layers(a, b *phase, out map[string]float64)
	// describe prints the workload's inputs and baselines.
	describe()
}

func run(name string, seed int64, dur time.Duration, traced bool) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	printHost()
	fmt.Printf("workload %s seed %d: %s\n", def.name, seed, def.why)
	t0 := time.Now()
	w := def.make(seed)
	fmt.Printf("inputs generated in %.3fs\n", time.Since(t0).Seconds())

	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		runtime.GC()
	}
	var setupTr *tracer
	if traced {
		setupTr = newTracer()
	}
	t0 = time.Now()
	if err := w.prepare(setupTr); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	fmt.Printf("set-ups %v s; warm-up and baselines in %.3fs\n", setupS, time.Since(t0).Seconds())
	w.describe()

	res := result{Metrics: map[string]metricValue{}}
	var phases []*phase
	if !traced {
		ph, err := measure(w, dur, nil)
		if err != nil {
			return err
		}
		phases = append(phases, ph)
		for _, m := range endToEnd(ph, setupS) {
			if err := res.add(m); err != nil {
				return err
			}
		}
	} else {
		a, err := measure(w, dur/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		b, err := measure(w, dur/2, tr)
		if err != nil {
			return err
		}
		phases = append(phases, a, b)
		lm := map[string]float64{}
		for _, l := range perLayerMetrics {
			lm[l.name] = 0
		}
		setupLayers(setupTr.snapshot(), lm)
		w.layers(a, b, lm)
		runtimeLayers(a, lm)
		traceLayers(a, b, lm)
		for _, l := range perLayerMetrics {
			if err := res.add(metric{l.name, l.unit, lm[l.name]}); err != nil {
				return err
			}
		}
		if err := writeSpans(def.name, seed, setupTr, tr); err != nil {
			return err
		}
	}

	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
	}
	res.Correct = res.Failed == 0
	for _, ph := range phases {
		for _, p := range ph.problems {
			fmt.Fprintln(os.Stderr, "check failed:", p)
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		moves := ""
		if e2e, ok := def.layers[name]; ok {
			moves = "  -> " + e2e
		}
		fmt.Printf("metric %-36s %14.6g %-8s%s\n", name, m.Value, m.Unit, moves)
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted); degraded_rate %.6g (replies marked degraded per op)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, degradedRate(phases))
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed their check", res.Failed, res.Attempted)
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name, unit string
	value      float64
}

// add records a metric; a malformed name or a value that is not a finite
// number is an error, never a silent zero.
func (r *result) add(m metric) error {
	if err := checkMetricName(m.name); err != nil {
		return err
	}
	if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		return fmt.Errorf("metric %s is %v", m.name, m.value)
	}
	r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	return nil
}

// phase is one measured stretch of a run.
type phase struct {
	tr   *tracer
	heap *heapSampler

	mu        sync.Mutex
	attempted int64
	failed    int64
	ops       int64
	degraded  int64
	fallbacks int64
	lat       []float64 // op latency, ms
	classes   map[string]*classStats
	nnzVec    float64 // sum over ops of nnz x SpMVs
	bytes     float64 // sum over ops of computed bytes
	spmvs     int64
	rounds    map[int]*roundRate // by round number, summed over clients
	problems  []string

	wall       time.Duration
	allocBytes uint64
	gcPauseNs  uint64
	gcCPU      float64
	start, end metricSet // daemon scrapes around the window
	sentStart  map[string]int64
	sentEnd    map[string]int64
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, heap: &heapSampler{}, classes: map[string]*classStats{}, rounds: map[int]*roundRate{}}
}

// classStats gathers the ops of one class of the mix: one matrix, or one
// corpus stratum.
type classStats struct {
	lat    []float64 // op latency, ms
	over   []float64 // op ms per SpMV / bare CSR.MulVec ms
	gflops []float64 // modeled device GFLOP/s
}

// roundRate is one round's throughput, summed over the clients that ran
// it side by side, and the heap peak during it.
type roundRate struct{ opsPerS, nnzPerS, heapPeak float64 }

// addRound records client round r, which took d without the benchmark's
// own work.
func (ph *phase) addRound(r int, rw roundWork, d time.Duration) {
	peak := float64(ph.heap.take())
	if rw.ops == 0 || d <= 0 {
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	rr := ph.rounds[r]
	if rr == nil {
		rr = &roundRate{}
		ph.rounds[r] = rr
	}
	rr.opsPerS += float64(rw.ops) / d.Seconds()
	rr.nnzPerS += rw.nnzVec / d.Seconds()
	rr.heapPeak = max(rr.heapPeak, peak)
}

// opSample is one completed op.
type opSample struct {
	class    string
	ms       float64
	spmvs    int     // SpMVs the op computed (vectors x iterations)
	nnz      int     // nnz of the matrix
	bytes    float64 // computed bytes the op must move at least once
	baseMs   float64 // bare single-threaded CSR.MulVec of the matrix, sampled beside the op
	gflops   float64 // modeled device GFLOP/s of the plan that served it
	degraded bool
	fallback int
	// excluded is the benchmark's own work around the op (the baseline
	// sample, the traced replay), which the round clock leaves out.
	excluded time.Duration
}

// ok reports whether the op completed; a failed op is recorded by fail.
func (s opSample) ok() bool { return s.spmvs > 0 }

func (ph *phase) record(s opSample) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.ops++
	ph.lat = append(ph.lat, s.ms)
	c := ph.classes[s.class]
	if c == nil {
		c = &classStats{}
		ph.classes[s.class] = c
	}
	c.lat = append(c.lat, s.ms)
	c.over = append(c.over, s.ms/float64(s.spmvs)/s.baseMs)
	c.gflops = append(c.gflops, s.gflops)
	ph.nnzVec += float64(s.nnz) * float64(s.spmvs)
	ph.bytes += s.bytes
	ph.spmvs += int64(s.spmvs)
	if s.degraded {
		ph.degraded++
	}
	ph.fallbacks += int64(s.fallback)
}

// fail records an op that returned an error status or a wrong output.
func (ph *phase) fail(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.failed++
	ph.problem(fmt.Sprintf(format, args...))
}

// problem notes a check failure; the first few are kept for the report.
func (ph *phase) problem(msg string) {
	if len(ph.problems) < 8 {
		ph.problems = append(ph.problems, msg)
	}
}

// checkFailed records a whole-phase check failure (counter mismatch).
func (ph *phase) checkFailed(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.failed++
	ph.problem(err.Error())
}

// p50 is the geometric mean over the classes of each class's median op
// latency, in ms.
func (ph *phase) p50() float64 {
	var xs []float64
	for _, c := range ph.classes {
		xs = append(xs, median(c.lat))
	}
	return geomean(xs)
}

// measure runs one phase of dur and its checks.
func measure(w workload, dur time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase(tr)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPU()
	stop := ph.heap.run()
	t0 := time.Now()
	w.drive(ph, t0.Add(dur))
	ph.wall = time.Since(t0)
	stop()
	runtime.ReadMemStats(&ms1)
	ph.gcCPU = gcCPU().since(gc0)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	if ph.ops == 0 {
		return nil, fmt.Errorf("no op completed in %v", dur)
	}
	if err := w.check(ph); err != nil {
		ph.checkFailed(err)
	}
	return ph, nil
}

// gcSample is the cumulative GC and total CPU time of the process.
type gcSample struct{ gc, total float64 }

func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since is the GC share of CPU time between two samples.
func (s gcSample) since(prev gcSample) float64 {
	return ratio(s.gc-prev.gc, s.total-prev.total)
}

// heapSampler polls the bytes of heap objects every few milliseconds and
// keeps the peak since it was last taken.
type heapSampler struct{ peak atomic.Uint64 }

// run starts polling; the returned stop function waits for the poller.
func (h *heapSampler) run() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	poll := func() {
		metrics.Read(s)
		v := s[0].Value.Uint64()
		for {
			old := h.peak.Load()
			if v <= old || h.peak.CompareAndSwap(old, v) {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				poll()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// take returns the peak since the last take and starts a new one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// matrixFacts describe one served matrix for the report.
type matrixFacts struct {
	rows, cols, nnz int
	baselineMs      float64 // median bare single-threaded CSR.MulVec
	gflops          float64 // modeled device GFLOP/s of the served plan
}

// endToEnd derives the end-to-end metrics of an untraced phase.
//
// A client round serves the workload's whole mix once, and the mix holds
// equally many ops of each class (a matrix, or a corpus stratum). Rates
// are the median over rounds of the round's throughput, with the
// benchmark's own work between ops taken out of the round's time; the
// wall-clock means are printed beside them. p50_ms, overhead_x and
// modeled_gflops are geometric means over the classes of each class's
// median: the pooled median of a mix with equal counts per class falls on
// the boundary between two classes and jumps with their extremes. p95_ms
// is the pooled 95th percentile. heap_peak_mb is the median over rounds
// of the heap's peak object bytes during the round.
func endToEnd(ph *phase, setupS []float64) []metric {
	p95, ok := percentile(ph.lat, 95)
	if !ok {
		fmt.Fprintf(os.Stderr, "warning: p95_ms rests on fewer than %d samples beyond it (%d ops)\n", minTail, len(ph.lat))
	}
	var over, gf []float64
	for _, name := range sortedKeys(ph.classes) {
		c := ph.classes[name]
		over = append(over, median(c.over))
		gf = append(gf, median(c.gflops))
		q25, _ := percentile(c.lat, 25)
		q75, _ := percentile(c.lat, 75)
		fmt.Printf("class %-18s %5d ops  latency ms p25 %9.4f p50 %9.4f p75 %9.4f  overhead_x %8.2f\n",
			name, len(c.lat), q25, median(c.lat), q75, median(c.over))
	}
	var opsRate, nnzRate, heap []float64
	for r := 0; r < len(ph.rounds); r++ {
		rr := ph.rounds[r]
		opsRate, nnzRate, heap = append(opsRate, rr.opsPerS), append(nnzRate, rr.nnzPerS), append(heap, rr.heapPeak)
	}
	fmt.Printf("round ops/s: %.3g\n", opsRate)
	secs := ph.wall.Seconds()
	fmt.Printf("samples: %d ops of %d classes in %d rounds over %.3fs wall (%.4g ops/s, %.4g nnz/s wall-clock mean); p95 from %d samples\n",
		ph.ops, len(ph.classes), len(ph.rounds), secs, float64(ph.ops)/secs, ph.nnzVec/secs, len(ph.lat))
	return []metric{
		{"ops_per_s", "1/s", median(opsRate)},
		{"p50_ms", "ms", ph.p50()},
		{"p95_ms", "ms", p95},
		{"nnz_per_s", "1/s", median(nnzRate)},
		{"overhead_x", "x", geomean(over)},
		{"modeled_gflops", "GFLOP/s", geomean(gf)},
		{"setup_s", "s", median(setupS)},
		{"alloc_kb_per_op", "KiB", float64(ph.allocBytes) / 1024 / float64(ph.ops)},
		{"heap_peak_mb", "MiB", median(heap) / (1 << 20)},
	}
}

// runtimeLayers fills the Go runtime metrics from the untraced phase.
func runtimeLayers(a *phase, out map[string]float64) {
	out["runtime.gc_pause_ms"] = float64(a.gcPauseNs) / 1e6 / float64(a.ops)
	out["runtime.gc_cpu_fraction"] = a.gcCPU
}

// traceLayers reports the tracing overhead (p50 op latency of the traced
// phase minus that of the untraced one), the cost of the traced phase's
// layer replay, and the benchmark's own client-side time per op.
func traceLayers(a, b *phase, out map[string]float64) {
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	roots := map[int64]bool{}
	var client time.Duration
	for _, s := range spans {
		if s.Name == "op" {
			roots[s.ID] = true
			client += self[s.ID]
		}
	}
	var replay time.Duration
	for _, s := range spans {
		if roots[s.Parent] && s.Name != "server.http" && s.Name != "core.search" {
			replay += s.dur()
		}
	}
	out["trace.overhead_ms"] = b.p50() - a.p50()
	if len(roots) > 0 {
		out["bench.client_ms"] = ms(client) / float64(len(roots))
		out["trace.replay_ms"] = ms(replay) / float64(len(roots))
	}
}

// setupLayers fills the set-up path layers: mean ms per matrix.
func setupLayers(spans []span, out map[string]float64) {
	for name, metricName := range map[string]string{
		"mmio.read": "mmio.read_ms", "features.extract": "features.extract_ms",
		"binning.bin": "binning.bin_ms", "core.plan": "core.plan_ms",
	} {
		if v, ok := meanMs(spans, name); ok {
			out[metricName] = v
		}
	}
}

// meanMs is the mean duration in ms of the spans named name.
func meanMs(spans []span, name string) (float64, bool) {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return ms(total) / float64(n), true
}

// totalMs is the summed duration in ms of the spans named name.
func totalMs(spans []span, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return ms(total)
}

func writeSpans(workload string, seed int64, trs ...*tracer) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tr := range trs {
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d-%d.jsonl", workload, seed, i))
		if err := tr.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.snapshot()), path)
	}
	return nil
}

func degradedRate(phases []*phase) float64 {
	var d, n int64
	for _, ph := range phases {
		d += ph.degraded
		n += ph.ops
	}
	return ratio(float64(d), float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

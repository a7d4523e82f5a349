package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileInterpolates(t *testing.T) {
	if v, _ := percentile([]float64{3, 1, 2}, 50); v != 2 {
		t.Fatalf("median of {1,2,3} = %v, want 2", v)
	}
	if v, _ := percentile([]float64{10, 20}, 25); v != 12.5 {
		t.Fatalf("p25 of {10,20} = %v, want 12.5", v)
	}
	if v := median(seq(4)); v != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", v)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("percentile of no samples must not be reportable")
	}
}

func TestPercentileTailRule(t *testing.T) {
	// p95 of n samples sits at rank 0.95(n-1); it is reportable only when
	// at least ten samples lie above the rank it rounds up to.
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{100, false}, // rank 94.05 -> 95: 4 above
		{200, false}, // rank 189.05 -> 190: 9 above
		{220, true},  // rank 208.05 -> 209: 10 above
		{1000, true},
	} {
		if _, ok := percentile(seq(tc.n), 95); ok != tc.ok {
			t.Errorf("p95 of %d samples reportable = %v, want %v", tc.n, ok, tc.ok)
		}
	}
	// The median of 21 samples leaves exactly ten above it.
	if _, ok := percentile(seq(21), 50); !ok {
		t.Error("median of 21 samples must be reportable")
	}
	if _, ok := percentile(seq(20), 50); ok {
		t.Error("median of 20 samples interpolates to rank 10, leaving 9 above")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{2}); g != 2 {
		t.Fatalf("geomean(2) = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean of nothing = %v, want 0", g)
	}
	if g := geomean([]float64{1, 0}); !math.IsNaN(g) {
		t.Fatalf("geomean with a zero = %v, want NaN", g)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	s := tr.begin(tr.newOp(), 0, "x")
	s.end()
	if s.id() != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr = newTracer()
	op := tr.newOp()
	root := tr.begin(op, 0, "op")
	child := tr.begin(op, root.id(), "child")
	child.end()
	root.end()
	got := tr.snapshot()
	if len(got) != 2 || got[0].Parent != got[1].ID || got[0].Op != op || got[1].End < got[0].End {
		t.Fatalf("recorded spans %+v", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"p50_ms", "core.search.cells_pruned", "hsa.cycles_per_op", "9lives", "a-b"} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "ünicode", strings.Repeat("a", 65)} {
		if checkMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, l := range perLayerMetrics {
		if err := checkMetricName(l.name); err != nil {
			t.Error(err)
		}
	}
}

func TestParseExposition(t *testing.T) {
	m, err := parseExposition([]byte("spmvd_requests_total{endpoint=\"spmv\"} 7\n# comment\nspmvd_device_active_lane_ratio 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m[requestsSeries("spmv")] != 7 || m["spmvd_device_active_lane_ratio"] != 0.5 {
		t.Fatalf("parsed %v", m)
	}
	if _, err := parseExposition([]byte("novalue\n")); err == nil {
		t.Fatal("a line without a value must fail")
	}
}

func TestRunRoundsWholeRoundsInLockstep(t *testing.T) {
	ph := newPhase(nil)
	var mu sync.Mutex
	rounds := map[int]int{}
	ops := map[int]int{}
	deadline := time.Now().Add(30 * time.Millisecond)
	runRounds(ph, deadline, 2, func(c, r int, meet func()) roundWork {
		for k := 0; k < 3; k++ {
			meet()
			time.Sleep(time.Duration(1+2*c) * time.Millisecond) // client 1 is slower
			mu.Lock()
			ops[c]++
			mu.Unlock()
		}
		mu.Lock()
		rounds[c]++
		mu.Unlock()
		return roundWork{ops: 3, excluded: time.Millisecond}
	})
	if rounds[0] == 0 || rounds[0] != rounds[1] || ops[0] != ops[1] {
		t.Fatalf("clients ran rounds %v, ops %v; want equal whole rounds", rounds, ops)
	}
	if len(ph.rounds) != rounds[0] {
		t.Fatalf("%d round rates for %v rounds", len(ph.rounds), rounds)
	}
	for _, r := range ph.rounds {
		// Two clients side by side, each 3 ops in at most ~10ms.
		if r.opsPerS < 2*3/0.05 {
			t.Fatalf("round rate %+v is not the sum over both clients", r)
		}
	}
}

func TestBarrierRunsLastOnce(t *testing.T) {
	b := newBarrier(3)
	var mu sync.Mutex
	lasts := 0
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				b.wait(func() { mu.Lock(); lasts++; mu.Unlock() })
			}
		}()
	}
	wg.Wait()
	if lasts != 5 {
		t.Fatalf("last ran %d times over 5 barriers", lasts)
	}
}

// TestBenchmarkJSONMatches keeps the metric lists in BENCHMARK.json and in
// this program in step: names, units and order.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	ph := newPhase(nil)
	ph.record(opSample{class: "m", ms: 1, spmvs: 1, baseMs: 1, gflops: 1})
	e2e := endToEnd(ph, []float64{1})
	if len(e2e) != len(doc.EndToEnd) {
		t.Fatalf("program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(doc.EndToEnd))
	}
	for i, m := range e2e {
		if m.name != doc.EndToEnd[i].Name || m.unit != doc.EndToEnd[i].Unit {
			t.Errorf("end-to-end %d: program %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, doc.EndToEnd[i].Name, doc.EndToEnd[i].Unit)
		}
	}
	if len(perLayerMetrics) != len(doc.PerLayer) {
		t.Fatalf("program reports %d per-layer metrics, BENCHMARK.json lists %d", len(perLayerMetrics), len(doc.PerLayer))
	}
	for i, l := range perLayerMetrics {
		if l.name != doc.PerLayer[i].Name || l.unit != doc.PerLayer[i].Unit {
			t.Errorf("per-layer %d: program %s [%s], BENCHMARK.json %s [%s]", i, l.name, l.unit, doc.PerLayer[i].Name, doc.PerLayer[i].Unit)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program defines %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestEndToEndAggregatesByClass(t *testing.T) {
	ph := newPhase(nil)
	ph.wall = time.Second
	// Two classes with equal counts: the pooled median would sit on the
	// boundary between them; p50_ms is the geomean of the class medians.
	for i := 0; i < 3; i++ {
		ph.record(opSample{class: "small", ms: 1 + float64(i), spmvs: 1, baseMs: 0.5, gflops: 2})
		ph.record(opSample{class: "big", ms: 100 + float64(i), spmvs: 4, baseMs: 1, gflops: 8})
	}
	ph.rounds = map[int]*roundRate{0: {opsPerS: 10, heapPeak: 1 << 20}, 1: {opsPerS: 30, heapPeak: 3 << 20}, 2: {opsPerS: 20, heapPeak: 2 << 20}}
	got := map[string]float64{}
	for _, m := range endToEnd(ph, []float64{3, 1, 2}) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"p50_ms":         math.Sqrt(2 * 101),
		"overhead_x":     math.Sqrt(4 * 101.0 / 4),
		"modeled_gflops": 4,
		"ops_per_s":      20,
		"setup_s":        2,
		"heap_peak_mb":   2,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

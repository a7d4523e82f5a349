package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloadDef names a workload, records why it exists and which layers it
// is meant to expose, and builds it from a seed.
type workloadDef struct {
	name string
	why  string
	// layers maps a per-layer metric to the end-to-end metric it should
	// move on this workload; a layer absent here should read ~0 or stay
	// flat on it.
	layers map[string]string
	make   func(seed int64) workload
}

// Every client is a closed loop: it waits for each reply before sending
// the next request, like an iterative solver that needs each product
// before it can ask for the next. The serving workloads run nproc (2)
// clients: on serve-batch so that their requests fuse, on serve-hot and
// solve-cg so that the load covers every CPU of the host. With one
// client, their timings spread by a quarter from run to run on a shared
// 2-CPU host, while the two-client workloads stayed steady there.
// tune-offline runs one client whose search fans out over nproc workers.
var workloads = []workloadDef{
	{
		name: "serve-hot",
		why: "Single-vector JSON POST /v1/spmv over the 16 Table II recipes (scale 128) with plans cached, " +
			"one seeded whole-round order per client (nproc clients). The headline served path: graph matrices (europe_osm, roadNet-CA) " +
			"are wire-bound, FEM matrices (crankseg_2, HV15R) simulator-bound, so a wire change and an hsa " +
			"change each show on their own part of the mix. Search, batch and solver layers stay idle.",
		layers: map[string]string{
			"server.self_ms": "p50_ms, ops_per_s", "server.wire_decode_ms": "p50_ms, ops_per_s",
			"server.wire_encode_ms": "p50_ms, ops_per_s", "plancache.get_ms": "p95_ms",
			"plancache.hit_ratio": "p95_ms", "plancache.tune_ms_mean": "setup_s",
			"core.execute_ms": "p50_ms", "core.fallbacks_per_op": "p50_ms, degraded_rate",
			"core.cpu_served_per_op": "p50_ms, degraded_rate", "hsa.simulate_ms": "p50_ms (FEM matrices)",
			"hsa.cycles_per_op": "modeled_gflops", "hsa.active_lane_ratio": "modeled_gflops",
			"hsa.load_imbalance": "modeled_gflops", "hsa.lds_bank_conflicts_per_op": "modeled_gflops",
			"sparse.mulvec_ms": "overhead_x", "kernels.computed_bytes_per_op": "nnz_per_s",
			"mmio.read_ms": "setup_s", "features.extract_ms": "setup_s", "binning.bin_ms": "setup_s",
			"core.plan_ms": "setup_s", "runtime.gc_pause_ms": "p95_ms, alloc_kb_per_op",
			"runtime.gc_cpu_fraction": "p95_ms, alloc_kb_per_op",
		},
		make: func(seed int64) workload { return newServeWorkload(seed, nproc, 128, 1, 0, 0) },
	},
	{
		name: "serve-batch",
		why: "Coalescer on: requests carry 4 vectors and both clients follow one seeded matrix sequence, " +
			"meeting before each request, so requests also fuse across clients (fused width 8). Scale 512 " +
			"keeps a request near serve-hot's bytes. The only workload running the fused SpMM kernels, the " +
			"batched guard chain and the coalescer.",
		layers: map[string]string{
			"core.execute_batch_ms": "ops_per_s", "server.batch_size_mean": "ops_per_s",
			"server.flush_size_share": "ops_per_s", "sparse.mulvec_ms": "overhead_x (B-fold)",
			"server.wire_decode_ms": "p50_ms", "server.wire_encode_ms": "p50_ms",
			"hsa.cycles_per_op": "modeled_gflops", "kernels.computed_bytes_per_op": "nnz_per_s",
		},
		make: func(seed int64) workload { return newServeWorkload(seed, nproc, 512, 4, 20*time.Millisecond, 4*nproc) },
	},
	{
		name: "solve-cg",
		why: "CG sessions on a 16x16 5-point Laplacian: create, iterate 16 steps per ~15-byte request until " +
			"done, delete; one session at a time per client (nproc clients). Runs internal/solvers and " +
			"per-iteration guarded execution; a wire-format change should predict no change here.",
		layers: map[string]string{
			"solvers.step_ms": "p50_ms", "solvers.iterations_per_solve": "p50_ms",
			"core.execute_ms": "p50_ms", "core.fallbacks_per_op": "p50_ms, degraded_rate",
			"hsa.simulate_ms": "p50_ms", "sparse.mulvec_ms": "overhead_x",
			"server.wire_decode_ms": "~0", "server.wire_encode_ms": "~0",
		},
		make: func(seed int64) workload { return newSolveWorkload(seed) },
	},
	{
		name: "tune-offline",
		why: "core.Search over seeded corpus rounds (matgen.Corpus's generator families at fixed sizes, 20 " +
			"matrices, Workers=nproc, cold cost cache), then core.TrainModel and core.EvaluateRegret on a " +
			"held-out corpus from a second seed. The paper's offline phase; no daemon.",
		layers: map[string]string{
			"core.search_ms": "ops_per_s", "core.search.cells_simulated": "ops_per_s",
			"core.search.cells_pruned": "ops_per_s", "core.search.cost_cache_hit_ratio": "ops_per_s",
			"c50.train_ms": "ops_per_s", "hsa.simulate_ms": "ops_per_s",
			"features.extract_ms": "ops_per_s", "binning.bin_ms": "ops_per_s",
			"core.model_regret": "(quality, not speed)",
		},
		make: func(seed int64) workload { return newTuneWorkload(seed) },
	},
}

// perLayerMetrics is every metric a traced run reports, on every workload;
// a layer a workload does not run reads 0. Times are mean ms per call of
// the layer's public function, as the benchmark timed it.
var perLayerMetrics = []struct{ name, unit string }{
	{"server.self_ms", "ms"},
	{"server.wire_decode_ms", "ms"},
	{"server.wire_encode_ms", "ms"},
	{"server.batch_size_mean", "vectors"},
	{"server.flush_size_share", "ratio"},
	{"server.rejected_per_op", "count"},
	{"server.degraded_rate", "ratio"},
	{"plancache.get_ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.tune_ms_mean", "ms"},
	{"core.execute_ms", "ms"},
	{"core.execute_batch_ms", "ms"},
	{"core.fallbacks_per_op", "count"},
	{"core.cpu_served_per_op", "count"},
	{"core.plan_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.search.cells_simulated", "count"},
	{"core.search.cells_pruned", "count"},
	{"core.search.cost_cache_hit_ratio", "ratio"},
	{"core.model_regret", "x"},
	{"c50.train_ms", "ms"},
	{"hsa.simulate_ms", "ms"},
	{"hsa.cycles_per_op", "cycles"},
	{"hsa.active_lane_ratio", "ratio"},
	{"hsa.load_imbalance", "x"},
	{"hsa.lds_bank_conflicts_per_op", "count"},
	{"sparse.mulvec_ms", "ms"},
	{"kernels.computed_bytes_per_op", "bytes"},
	{"solvers.step_ms", "ms"},
	{"solvers.iterations_per_solve", "count"},
	{"mmio.read_ms", "ms"},
	{"features.extract_ms", "ms"},
	{"binning.bin_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"bench.client_ms", "ms"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// roundWork is what one client's round did, for the round clock.
type roundWork struct {
	ops      int
	nnzVec   float64       // nnz x SpMVs computed
	excluded time.Duration // the benchmark's own work inside the round
}

func (rw *roundWork) add(s opSample) {
	if s.ok() {
		rw.ops++
		rw.nnzVec += float64(s.nnz * s.spmvs)
	}
	rw.excluded += s.excluded
}

// runRounds runs n closed-loop clients in rounds. Before every round the
// clients meet at a barrier, where the last to arrive decides whether the
// deadline has passed, so every client runs the same number of whole
// rounds. round(c, r, meet) runs client c's round r and reports it; a
// lockstep workload calls meet before each op so that the clients'
// requests leave together. Each round is timed without the work it
// reports as the benchmark's own.
func runRounds(ph *phase, deadline time.Time, n int, round func(c, r int, meet func()) roundWork) {
	b := newBarrier(n)
	stop := false // written by the last arrival at a barrier, read after it
	meet := func() { b.wait(nil) }
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; ; r++ {
				b.wait(func() { stop = r > 0 && !time.Now().Before(deadline) })
				if stop {
					return
				}
				t0 := time.Now()
				rw := round(c, r, meet)
				ph.addRound(r, rw, time.Since(t0)-rw.excluded)
			}
		}(c)
	}
	wg.Wait()
}

// barrier is a reusable meeting point for n goroutines.
type barrier struct {
	n       int
	mu      sync.Mutex
	arrived int
	release chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, release: make(chan struct{})} }

// wait blocks until all n goroutines have called it; the last to arrive
// runs last (when non-nil) before any of them is released.
func (b *barrier) wait(last func()) {
	b.mu.Lock()
	ch := b.release
	b.arrived++
	if b.arrived == b.n {
		if last != nil {
			last()
		}
		b.arrived = 0
		b.release = make(chan struct{})
		b.mu.Unlock()
		close(ch)
		return
	}
	b.mu.Unlock()
	<-ch
}

func describeMatrix(name string, f matrixFacts, bytes float64) {
	fmt.Printf("matrix %-16s rows %8d nnz %9d computed-bytes/request %11.0f baseline CSR.MulVec %.6f ms modeled %.3f GFLOP/s\n",
		name, f.rows, f.nnz, bytes, f.baselineMs, f.gflops)
}

// printHost records the host facts the figures depend on.
func printHost() {
	fmt.Printf("host: nproc %d GOMAXPROCS %d %s %s/%s LLC %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, llcSize())
}

// llcSize reads the largest CPU cache size Linux reports for CPU 0.
func llcSize() string {
	best, bestLevel := "unknown", ""
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l := strings.TrimSpace(string(level)); l >= bestLevel {
			best, bestLevel = "L"+l+" "+strings.TrimSpace(string(size)), l
		}
	}
	return best
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/core"
	"spmvtune/internal/features"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/matgen"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/server"
	"spmvtune/internal/sparse"
)

// variants is how many distinct seeded vector sets each matrix is served
// with; ops cycle through them.
const variants = 2

// servedMatrix is one uploaded matrix with its pre-encoded inputs and the
// benchmark's own expected outputs.
type servedMatrix struct {
	name  string
	a     *sparse.CSR
	mtx   []byte // Matrix Market upload body
	id    string
	fp    string
	vecs  [][][]float64 // [variant][vector] inputs
	want  [][][]float64 // [variant][vector] CSR.MulVec outputs
	body  [][]byte      // [variant] request body
	cyc   float64       // modeled device cycles the daemon counts per request
	base  *mulVecTimer
	facts matrixFacts
}

// serveWorkload drives POST /v1/spmv over the Table II recipes.
type serveWorkload struct {
	seed     int64
	clients  int
	width    int           // vectors per request
	window   time.Duration // coalescer window; 0 = off
	maxBatch int
	mats     []*servedMatrix

	d     *daemon
	model *core.Model
	cache *plancache.Cache // the benchmark's own plan cache, for replay
	tune  metricSet        // scrape after the last set-up
	log   replayLog
}

// replayLog collects, in the traced phase, what the replayed guarded
// executions reported.
type replayLog struct {
	mu        sync.Mutex
	n         int
	cpuServed int
	imbalance float64
}

func (l *replayLog) add(rep *core.ExecReport) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	l.cpuServed += rep.CPUServed
	l.imbalance += rep.Counters.LoadImbalance()
}

// fill reports the per-execution means.
func (l *replayLog) fill(out map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out["core.cpu_served_per_op"] = ratio(float64(l.cpuServed), float64(l.n))
	out["hsa.load_imbalance"] = ratio(l.imbalance, float64(l.n))
}

func newServeWorkload(seed int64, clients, scale, width int, window time.Duration, maxBatch int) *serveWorkload {
	w := &serveWorkload{seed: seed, clients: clients, width: width, window: window, maxBatch: maxBatch}
	rng := rand.New(rand.NewSource(seed))
	for _, r := range matgen.Representative() {
		a := r.Gen(scale)
		var buf bytes.Buffer
		if err := mmio.Write(&buf, a); err != nil {
			panic(err) // a generated matrix always encodes
		}
		m := &servedMatrix{name: r.Name, a: a, mtx: buf.Bytes(), fp: plan.Fingerprint(a)}
		m.facts = matrixFacts{rows: a.Rows, cols: a.Cols, nnz: a.NNZ()}
		for v := 0; v < variants; v++ {
			var vs, ws [][]float64
			for b := 0; b < width; b++ {
				vec := randVec(rng, a.Cols)
				want := make([]float64, a.Rows)
				a.MulVec(vec, want)
				vs, ws = append(vs, vec), append(ws, want)
			}
			m.vecs, m.want = append(m.vecs, vs), append(m.want, ws)
		}
		w.mats = append(w.mats, m)
	}
	return w
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

func (w *serveWorkload) setup() error {
	w.model = trainBootstrap()
	d, err := newDaemon(server.Config{
		Framework:   core.NewFramework(core.DefaultConfig(), w.model),
		BatchWindow: w.window,
		MaxBatch:    w.maxBatch,
	})
	if err != nil {
		return err
	}
	for _, m := range w.mats {
		if m.id, err = d.upload(m.mtx); err != nil {
			return err
		}
		if err := d.firstPlan(m.id); err != nil {
			return err
		}
	}
	w.d = d
	return nil
}

// spmvRequest mirrors the daemon's POST /v1/spmv body.
type spmvRequest struct {
	Matrix  string      `json:"matrix"`
	Vector  []float64   `json:"vector,omitempty"`
	Vectors [][]float64 `json:"vectors,omitempty"`
}

func (r *spmvRequest) batch() [][]float64 {
	if r.Vector != nil {
		return [][]float64{r.Vector}
	}
	return r.Vectors
}

// spmvReply is the part of the reply the benchmark checks.
type spmvReply struct {
	Matrix    string      `json:"matrix"`
	Plan      string      `json:"plan"`
	U         int         `json:"u"`
	CacheHit  bool        `json:"cacheHit"`
	Degraded  bool        `json:"degraded"`
	Fallbacks int         `json:"fallbacks"`
	Result    []float64   `json:"result,omitempty"`
	Results   [][]float64 `json:"results,omitempty"`
	ElapsedMs float64     `json:"elapsedMs"`
}

func (w *serveWorkload) prepare(tr *tracer) error {
	var err error
	if w.tune, err = w.d.scrape(); err != nil {
		return err
	}
	w.cache = plancache.New(plancache.Options{})
	w.cache.SetModelVersion(core.ModelVersion(w.model))
	if err := w.planReplay(tr); err != nil {
		return err
	}
	for _, m := range w.mats {
		m.body = make([][]byte, variants)
		for v := range m.body {
			req := spmvRequest{Matrix: m.id, Vectors: m.vecs[v]}
			if w.width == 1 {
				req = spmvRequest{Matrix: m.id, Vector: m.vecs[v][0]}
			}
			if m.body[v], err = json.Marshal(req); err != nil {
				return err
			}
		}
		// One warm request per matrix: it must verify, and the daemon's
		// cycle counter delta is the modeled cost of one request.
		before, err := w.d.scrape()
		if err != nil {
			return err
		}
		code, blob := w.d.do("spmv", "POST", "/v1/spmv", m.body[0])
		if _, err := w.decodeReply(m, 0, code, blob); err != nil {
			return fmt.Errorf("warm-up %s: %w", m.name, err)
		}
		after, err := w.d.scrape()
		if err != nil {
			return err
		}
		m.cyc = after.delta(before, "spmvd_device_cycles_total")
		sec, err := w.d.modeledSeconds(m.id)
		if err != nil {
			return err
		}
		m.facts.gflops = 2 * float64(m.a.NNZ()) / sec / 1e9
		m.base = newMulVecTimer(m.a)
		m.facts.baselineMs = m.base.median(21)
	}
	return nil
}

// planReplay plans every matrix through core.Framework.Plan and caches the
// plans for the op replay. Traced, it repeats the daemon's whole set-up
// path per matrix through the layers' public functions — parse the upload,
// extract features, plan, bin — recording a span around each.
func (w *serveWorkload) planReplay(tr *tracer) error {
	for _, m := range w.mats {
		op := tr.newOp()
		a := m.a
		if tr != nil {
			s := tr.begin(op, 0, "mmio.read")
			parsed, err := mmio.Read(bytes.NewReader(m.mtx))
			s.end()
			if err != nil {
				return err
			}
			a = parsed
			s = tr.begin(op, 0, "features.extract")
			features.Extract(a)
			s.end()
		}
		s := tr.begin(op, 0, "core.plan")
		p, err := w.d.fw.Plan(context.Background(), a)
		s.end()
		if err != nil {
			return err
		}
		s = tr.begin(op, 0, "binning.bin")
		binning.Coarse(a, p.U, p.MaxBins)
		s.end()
		m.mtx = nil // set-up is over; drop the upload body
		w.cache.Put(m.fp, p)
	}
	return nil
}

// decodeReply decodes one reply and checks every vector in it against the
// benchmark's own CSR.MulVec.
func (w *serveWorkload) decodeReply(m *servedMatrix, variant int, code int, blob []byte) (*spmvReply, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", m.name, code, blob)
	}
	var rep spmvReply
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: decode reply: %w", m.name, err)
	}
	got := rep.Results
	if w.width == 1 {
		got = [][]float64{rep.Result}
	}
	if len(got) != w.width {
		return nil, fmt.Errorf("%s: %d results, want %d", m.name, len(got), w.width)
	}
	for b, u := range got {
		if err := checkVec(u, m.want[variant][b]); err != nil {
			return nil, fmt.Errorf("%s vector %d: %w", m.name, b, err)
		}
	}
	return &rep, nil
}

// relTol is the tolerance a served vector must meet against the
// benchmark's CSR.MulVec: max |u_i - w_i| <= relTol * max(1, max |w_i|).
const relTol = 1e-9

func checkVec(u, want []float64) error {
	if len(u) != len(want) {
		return fmt.Errorf("length %d, want %d", len(u), len(want))
	}
	scale, diff := 1.0, 0.0
	for i := range want {
		scale = max(scale, abs(want[i]))
		diff = max(diff, abs(u[i]-want[i]))
	}
	if !(diff <= relTol*scale) {
		return fmt.Errorf("max deviation %g exceeds %g x %g", diff, relTol, scale)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// round returns client c's seeded matrix order for round r. Lockstep
// clients share one order so that their requests fuse; otherwise each
// client has its own, so the clients do not ask for the same matrix at
// the same moment.
func (w *serveWorkload) round(c, r int) []int {
	if w.window > 0 {
		c = 0
	}
	return rand.New(rand.NewSource(w.seed*1_000_003 + int64(r*w.clients+c))).Perm(len(w.mats))
}

func (w *serveWorkload) drive(ph *phase, deadline time.Time) {
	w.d.observe(ph, func() {
		runRounds(ph, deadline, w.clients, func(c, r int, meet func()) roundWork {
			var rw roundWork
			for k, mi := range w.round(c, r) {
				if w.window > 0 {
					meet() // lockstep: the clients' requests meet in the coalescer
				}
				rw.add(w.op(ph, w.mats[mi], (c+r+k)%variants))
			}
			return rw
		})
	})
}

// op sends one request and checks it, then samples the bare CSR.MulVec
// of the matrix for overhead_x and, in the traced phase, replays the
// handler's layer calls; both are the benchmark's own work.
func (w *serveWorkload) op(ph *phase, m *servedMatrix, variant int) opSample {
	tr := ph.tr
	id := tr.newOp()
	root := tr.begin(id, 0, "op")
	defer root.end()
	h := tr.begin(id, root.id(), "server.http")
	t0 := time.Now()
	code, blob := w.d.do("spmv", "POST", "/v1/spmv", m.body[variant])
	lat := time.Since(t0)
	h.end()
	rep, err := w.decodeReply(m, variant, code, blob)
	if err != nil {
		ph.fail("%v", err)
		return opSample{}
	}
	own := time.Now()
	base := m.base.sample()
	if tr != nil {
		if err := w.replay(tr, id, root.id(), m, variant); err != nil {
			ph.fail("replay %s: %v", m.name, err)
			return opSample{excluded: time.Since(own)}
		}
	}
	sample := opSample{
		class: m.name, ms: ms(lat), spmvs: w.width, nnz: m.a.NNZ(), bytes: computedBytes(m.a, w.width),
		baseMs: base, gflops: m.facts.gflops, degraded: rep.Degraded, fallback: rep.Fallbacks,
		excluded: time.Since(own),
	}
	ph.record(sample)
	return sample
}

// replay repeats the handler's path for one request through the layers'
// public functions, in the handler's order: decode → plancache →
// ExecutePlanOpts / ExecutePlanBatchOpts → encode; then the simulator alone
// and the verification reference alone.
func (w *serveWorkload) replay(tr *tracer, op, parent int64, m *servedMatrix, variant int) error {
	s := tr.begin(op, parent, "server.wire_decode")
	var req spmvRequest
	err := json.Unmarshal(m.body[variant], &req)
	s.end()
	if err != nil {
		return err
	}
	s = tr.begin(op, parent, "plancache.get")
	p, ok := w.cache.Get(m.fp)
	s.end()
	if !ok {
		return fmt.Errorf("plan not cached")
	}
	// With the coalescer on, the clients' requests for a matrix fuse into
	// one launch over every variant's vectors (the clients send different
	// variants), and each request waits for all of it: execute that.
	vs, wants := req.batch(), m.want[variant]
	if w.window > 0 {
		vs, wants = nil, nil
		for v := range m.vecs {
			vs, wants = append(vs, m.vecs[v]...), append(wants, m.want[v]...)
		}
	}
	us := make([][]float64, len(vs))
	for b := range us {
		us[b] = make([]float64, m.a.Rows)
	}
	opt := core.DefaultGuardOptions()
	opt.Counters = true
	opt.Workers = 1
	ctx := context.Background()
	var rep *core.ExecReport
	if len(vs) == 1 {
		s = tr.begin(op, parent, "core.execute")
		rep, err = w.d.fw.ExecutePlanOpts(ctx, p, m.a, vs[0], us[0], opt)
		s.end()
	} else {
		s = tr.begin(op, parent, "core.execute_batch")
		var brep *core.BatchReport
		brep, err = w.d.fw.ExecutePlanBatchOpts(ctx, p, m.a, vs, us, opt)
		s.end()
		if err == nil {
			rep = brep.Shared
		}
	}
	if err != nil {
		return err
	}
	w.log.add(rep)
	for b := range us {
		if err := checkVec(us[b], wants[b]); err != nil {
			return err
		}
	}

	s = tr.begin(op, parent, "server.wire_encode")
	reply := spmvReply{Matrix: m.id, Plan: p.Fingerprint, U: p.U, CacheHit: true}
	if w.width == 1 {
		reply.Result = us[0]
	} else {
		reply.Results = us[:w.width]
	}
	_, err = json.Marshal(reply)
	s.end()
	if err != nil {
		return err
	}

	bins, err := p.Rebin(m.a)
	if err != nil {
		return err
	}
	s = tr.begin(op, parent, "hsa.simulate")
	err = simulatePlan(w.d.fw.Cfg.Device, m.a, vs, us, bins, p)
	s.end()
	if err != nil {
		return err
	}
	s = tr.begin(op, parent, "sparse.mulvec")
	for b := range vs {
		m.a.MulVec(vs[b], us[b])
	}
	s.end()
	return nil
}

func (w *serveWorkload) check(ph *phase) error {
	if err := checkRequestCounts(ph.start, ph.end, ph.sentStart, ph.sentEnd); err != nil {
		return err
	}
	if got := ph.end.delta(ph.start, requestsSeries("spmv")); got != float64(ph.ops+ph.failed) {
		return fmt.Errorf("spmvd_requests_total{spmv} moved by %v for %d ops", got, ph.ops+ph.failed)
	}
	if w.window > 0 {
		// Fused widths depend on arrival timing; the vector count does not.
		if got, want := ph.end.delta(ph.start, "spmvd_batch_size_sum"), float64(ph.spmvs); got != want {
			return fmt.Errorf("spmvd_batch_size_sum moved by %v for %v vectors", got, want)
		}
		return nil
	}
	// Modeled cycles are deterministic per launch: the daemon's counter
	// must move by exactly the warm-up cost of every request served.
	want := 0.0
	for name, c := range ph.classes {
		want += float64(len(c.lat)) * w.byName(name).cyc
	}
	if got := ph.end.delta(ph.start, "spmvd_device_cycles_total"); got != want {
		return fmt.Errorf("spmvd_device_cycles_total moved by %v, warm-up costs predict %v", got, want)
	}
	return nil
}

func (w *serveWorkload) byName(name string) *servedMatrix {
	for _, m := range w.mats {
		if m.name == name {
			return m
		}
	}
	return nil
}

func (w *serveWorkload) describe() {
	for _, m := range w.mats {
		describeMatrix(m.name, m.facts, computedBytes(m.a, w.width))
	}
}

func (w *serveWorkload) layers(a, b *phase, out map[string]float64) {
	spans := b.tr.snapshot()
	handler := 0.0
	for _, l := range []struct{ span, metric string }{
		{"server.wire_decode", "server.wire_decode_ms"},
		{"plancache.get", "plancache.get_ms"},
		{"core.execute", "core.execute_ms"},
		{"core.execute_batch", "core.execute_batch_ms"},
		{"server.wire_encode", "server.wire_encode_ms"},
		{"hsa.simulate", "hsa.simulate_ms"},
		{"sparse.mulvec", "sparse.mulvec_ms"},
	} {
		v, _ := meanMs(spans, l.span)
		out[l.metric] = v
		if l.span != "hsa.simulate" && l.span != "sparse.mulvec" {
			handler += v
		}
	}
	http, _ := meanMs(spans, "server.http")
	out["server.self_ms"] = http - handler
	serverLayers(a, w.tune, out)
	out["core.fallbacks_per_op"] = ratio(float64(a.fallbacks), float64(a.ops))
	w.log.fill(out)
	out["kernels.computed_bytes_per_op"] = a.bytes / float64(a.ops)
}

// serverLayers derives the daemon-side layer counts of the untraced phase
// from its /metrics deltas.
func serverLayers(a *phase, tune metricSet, out map[string]float64) {
	d := func(name string) float64 { return a.end.delta(a.start, name) }
	ops := float64(a.ops)
	out["plancache.hit_ratio"] = ratio(d("spmvd_plan_cache_hits"), d("spmvd_plan_cache_hits")+d("spmvd_plan_cache_misses"))
	out["plancache.tune_ms_mean"] = 1000 * ratio(tune["spmvd_tune_seconds_sum"], tune["spmvd_tune_seconds_count"])
	out["hsa.cycles_per_op"] = d("spmvd_device_cycles_total") / ops
	out["hsa.active_lane_ratio"] = ratio(d("spmvd_device_active_lanes_total"), d("spmvd_device_lane_slots_total"))
	out["hsa.lds_bank_conflicts_per_op"] = d("spmvd_device_lds_bank_conflicts_total") / ops
	out["server.batch_size_mean"] = ratio(d("spmvd_batch_size_sum"), d("spmvd_batch_size_count"))
	size, window := d(`spmvd_batch_flushes_total{trigger="size"}`), d(`spmvd_batch_flushes_total{trigger="window"}`)
	out["server.flush_size_share"] = ratio(size, size+window)
	out["server.rejected_per_op"] = d("spmvd_rejected_total") / ops
	out["server.degraded_rate"] = (d("spmvd_degraded_runs_total") + d("spmvd_degraded_total")) / ops
}

// computedBytes is the data one SpMV with `vectors` right-hand sides must
// move at least once: the CSR arrays plus the input and output vectors.
// It is computed from sizes, not measured.
func computedBytes(a *sparse.CSR, vectors int) float64 {
	csr := 8*float64(len(a.RowPtr)) + 4*float64(len(a.ColIdx)) + 8*float64(len(a.Val))
	return csr + float64(vectors)*8*float64(a.Cols+a.Rows)
}

// mulVecTimer times the bare single-threaded CSR.MulVec of one matrix;
// one sample repeats the call until it lasts at least 200µs. Clients
// sharing a matrix take their samples one at a time.
type mulVecTimer struct {
	mu   sync.Mutex
	a    *sparse.CSR
	v, u []float64
	reps int
}

func newMulVecTimer(a *sparse.CSR) *mulVecTimer {
	t := &mulVecTimer{a: a, v: make([]float64, a.Cols), u: make([]float64, a.Rows), reps: 1}
	for i := range t.v {
		t.v[i] = 1
	}
	for t.reps < 1<<20 {
		t0 := time.Now()
		t.run()
		if time.Since(t0) >= 200*time.Microsecond {
			break
		}
		t.reps *= 2
	}
	return t
}

func (t *mulVecTimer) run() {
	for r := 0; r < t.reps; r++ {
		t.a.MulVec(t.v, t.u)
	}
}

// sample returns the wall time of one call in ms.
func (t *mulVecTimer) sample() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t0 := time.Now()
	t.run()
	return ms(time.Since(t0)) / float64(t.reps)
}

// median returns the median of n samples in ms.
func (t *mulVecTimer) median(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = t.sample()
	}
	return median(xs)
}

// simulatePlan launches the plan's kernel on each of its bins through
// core.SimulateBatchKernel (core.SimulateKernel for one vector), without
// the guard chain or verification.
func simulatePlan(dev hsa.Config, a *sparse.CSR, vs, us [][]float64, bins *binning.Binning, p *plan.TuningPlan) error {
	for _, binID := range bins.NonEmpty() {
		kid, _ := p.KernelFor(binID)
		info, ok := kernels.ByID(kid)
		if !ok {
			return fmt.Errorf("unknown kernel %d in plan", kid)
		}
		core.SimulateBatchKernel(dev, a, vs, us, info.Kernel, bins.Bins[binID])
	}
	return nil
}

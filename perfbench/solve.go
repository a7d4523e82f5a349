package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"spmvtune/internal/core"
	"spmvtune/internal/mmio"
	"spmvtune/internal/plan"
	"spmvtune/internal/plancache"
	"spmvtune/internal/server"
	"spmvtune/internal/solvers"
	"spmvtune/internal/sparse"
)

const (
	// cgGrid sets the Laplacian to cgGrid² rows. A 16² solve takes ~9 ms,
	// so a run holds thousands of solves, and its median stayed steady on
	// a shared host where 60 ms solves on a 32² grid moved with the host's
	// load.
	cgGrid      = 16
	cgTol       = 1e-8 // requested relative residual
	cgSteps     = 16   // iterations per iterate request
	cgRHS       = 8    // distinct seeded right-hand sides
	residualCap = 10   // a solution's true residual may exceed cgTol by this factor
)

// laplacian2D is the 5-point finite-difference Laplacian on an n×n grid:
// symmetric positive definite, 4 on the diagonal, -1 per grid neighbour.
func laplacian2D(n int) *sparse.CSR {
	rows := make([][]sparse.Entry, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := i*n + j
			add := func(c int) { rows[r] = append(rows[r], sparse.Entry{Col: c, Val: -1}) }
			if i > 0 {
				add(r - n)
			}
			if j > 0 {
				add(r - 1)
			}
			rows[r] = append(rows[r], sparse.Entry{Col: r, Val: 4})
			if j < n-1 {
				add(r + 1)
			}
			if i < n-1 {
				add(r + n)
			}
		}
	}
	a, err := sparse.NewCSRFromRows(n*n, n*n, rows)
	if err != nil {
		panic(err) // the stencil is well formed by construction
	}
	return a
}

// solveWorkload runs CG sessions: create, iterate in fixed step counts
// until done, delete.
type solveWorkload struct {
	seed int64
	a    *sparse.CSR
	mtx  []byte
	fp   string
	rhs  [][]float64 // seeded right-hand sides
	body [][]byte    // POST /v1/solve bodies, one per right-hand side

	d     *daemon
	model *core.Model
	id    string
	cache *plancache.Cache
	tune  metricSet
	cyc   float64 // modeled device cycles per SpMV
	base  *mulVecTimer
	lap   matrixFacts

	mu    sync.Mutex
	iters map[int]int // right-hand side -> iterations of its first solve
	log   replayLog
}

func newSolveWorkload(seed int64) *solveWorkload {
	a := laplacian2D(cgGrid)
	var buf bytes.Buffer
	if err := mmio.Write(&buf, a); err != nil {
		panic(err)
	}
	w := &solveWorkload{seed: seed, a: a, mtx: buf.Bytes(), fp: plan.Fingerprint(a), iters: map[int]int{}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < cgRHS; i++ {
		w.rhs = append(w.rhs, randVec(rng, a.Rows))
	}
	w.lap = matrixFacts{rows: a.Rows, cols: a.Cols, nnz: a.NNZ()}
	return w
}

// solveRequest mirrors the daemon's POST /v1/solve body.
type solveRequest struct {
	Matrix string    `json:"matrix"`
	Solver string    `json:"solver"`
	B      []float64 `json:"b,omitempty"`
	Tol    float64   `json:"tol,omitempty"`
}

// iterateRequest mirrors POST /v1/solve/{id}/iterate.
type iterateRequest struct {
	Steps int `json:"steps,omitempty"`
}

// sessionStatus is the part of a session reply the benchmark checks.
type sessionStatus struct {
	Session    string    `json:"session"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
	Converged  bool      `json:"converged"`
	Done       bool      `json:"done"`
	Degraded   bool      `json:"degraded"`
	Fallbacks  int64     `json:"fallbacks"`
	X          []float64 `json:"x,omitempty"`
}

var iterateBody = mustJSON(iterateRequest{Steps: cgSteps})

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return blob
}

func (w *solveWorkload) setup() error {
	w.model = trainBootstrap()
	d, err := newDaemon(server.Config{Framework: core.NewFramework(core.DefaultConfig(), w.model)})
	if err != nil {
		return err
	}
	if w.id, err = d.upload(w.mtx); err != nil {
		return err
	}
	if err := d.firstPlan(w.id); err != nil {
		return err
	}
	// Session pinning: one session created and released.
	var st sessionStatus
	body := mustJSON(solveRequest{Matrix: w.id, Solver: "cg", B: w.rhs[0], Tol: cgTol})
	if err := d.doJSON("solve", "POST", "/v1/solve", body, http.StatusCreated, &st); err != nil {
		return err
	}
	if err := d.doJSON("session", "DELETE", "/v1/solve/"+st.Session, nil, http.StatusOK, nil); err != nil {
		return err
	}
	w.d = d
	return nil
}

func (w *solveWorkload) prepare(tr *tracer) error {
	var err error
	if w.tune, err = w.d.scrape(); err != nil {
		return err
	}
	w.cache = plancache.New(plancache.Options{})
	w.cache.SetModelVersion(core.ModelVersion(w.model))
	sm := &servedMatrix{name: "laplace2d", a: w.a, mtx: w.mtx, fp: w.fp}
	sw := &serveWorkload{d: w.d, cache: w.cache, mats: []*servedMatrix{sm}}
	if err := sw.planReplay(tr); err != nil {
		return err
	}
	for _, b := range w.rhs {
		w.body = append(w.body, mustJSON(solveRequest{Matrix: w.id, Solver: "cg", B: b, Tol: cgTol}))
	}
	// One plain SpMV: its cycle delta is the modeled cost of every SpMV a
	// session iterate runs, and it leaves a profile for the GFLOP/s.
	before, err := w.d.scrape()
	if err != nil {
		return err
	}
	want := make([]float64, w.a.Rows)
	w.a.MulVec(w.rhs[0], want)
	var rep spmvReply
	if err := w.d.doJSON("spmv", "POST", "/v1/spmv", mustJSON(spmvRequest{Matrix: w.id, Vector: w.rhs[0]}), http.StatusOK, &rep); err != nil {
		return err
	}
	if err := checkVec(rep.Result, want); err != nil {
		return fmt.Errorf("warm-up spmv: %w", err)
	}
	after, err := w.d.scrape()
	if err != nil {
		return err
	}
	w.cyc = after.delta(before, "spmvd_device_cycles_total")
	sec, err := w.d.modeledSeconds(w.id)
	if err != nil {
		return err
	}
	w.lap.gflops = 2 * float64(w.a.NNZ()) / sec / 1e9
	w.base = newMulVecTimer(w.a)
	w.lap.baselineMs = w.base.median(21)
	// One warm solve per right-hand side fixes the iteration counts every
	// later solve of it must repeat exactly.
	warm := newPhase(nil)
	for i := range w.rhs {
		w.solve(warm, i)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up solve: %v", warm.problems)
	}
	return nil
}

func (w *solveWorkload) drive(ph *phase, deadline time.Time) {
	w.d.observe(ph, func() {
		runRounds(ph, deadline, nproc, func(c, r int, _ func()) roundWork {
			var rw roundWork
			for _, rhs := range rand.New(rand.NewSource(w.seed*1_000_003 + int64(r*nproc+c))).Perm(cgRHS) {
				rw.add(w.solve(ph, rhs))
			}
			return rw
		})
	})
}

// solve runs one whole session and checks its solution.
func (w *solveWorkload) solve(ph *phase, rhs int) opSample {
	tr := ph.tr
	op := tr.newOp()
	root := tr.begin(op, 0, "op")
	defer root.end()
	t0 := time.Now()
	call := func(endpoint, method, path string, body []byte, want int) (sessionStatus, error) {
		var st sessionStatus
		h := tr.begin(op, root.id(), "server.http")
		code, blob := w.d.do(endpoint, method, path, body)
		h.end()
		if code != want {
			return st, fmt.Errorf("%s %s: status %d: %.200s", method, path, code, blob)
		}
		return st, json.Unmarshal(blob, &st)
	}
	st, err := call("solve", "POST", "/v1/solve", w.body[rhs], http.StatusCreated)
	if err != nil {
		ph.fail("%v", err)
		return opSample{}
	}
	sid := st.Session
	iterates := 0
	for !st.Done && err == nil {
		st, err = call("iterate", "POST", "/v1/solve/"+sid+"/iterate", iterateBody, http.StatusOK)
		iterates++
	}
	if err != nil {
		ph.fail("%v", err)
		return opSample{}
	}
	if _, err := call("session", "DELETE", "/v1/solve/"+sid, nil, http.StatusOK); err != nil {
		ph.fail("%v", err)
		return opSample{}
	}
	lat := time.Since(t0)
	own := time.Now()
	if err := w.checkSolve(rhs, st); err != nil {
		ph.fail("%v", err)
		return opSample{excluded: time.Since(own)}
	}
	base := w.base.sample()
	if tr != nil {
		if err := w.replay(tr, op, root.id(), rhs, iterates); err != nil {
			ph.fail("replay: %v", err)
			return opSample{excluded: time.Since(own)}
		}
	}
	spmvs := st.Iterations + 1 // one for the initial residual
	sample := opSample{
		class: "laplace2d", ms: ms(lat), spmvs: spmvs, nnz: w.a.NNZ(), bytes: float64(spmvs) * computedBytes(w.a, 1),
		baseMs: base, gflops: w.lap.gflops, degraded: st.Degraded, fallback: int(st.Fallbacks),
		excluded: time.Since(own),
	}
	ph.record(sample)
	return sample
}

// checkSolve requires convergence, the same iteration count as every
// earlier solve of the right-hand side, and a recomputed true residual
// within residualCap × cgTol.
func (w *solveWorkload) checkSolve(rhs int, st sessionStatus) error {
	if !st.Converged || len(st.X) != w.a.Rows {
		return fmt.Errorf("cg rhs %d: converged=%v after %d iterations, |x|=%d", rhs, st.Converged, st.Iterations, len(st.X))
	}
	w.mu.Lock()
	first, seen := w.iters[rhs]
	if !seen {
		w.iters[rhs] = st.Iterations
	}
	w.mu.Unlock()
	if seen && first != st.Iterations {
		return fmt.Errorf("cg rhs %d: %d iterations, earlier solve took %d", rhs, st.Iterations, first)
	}
	b := w.rhs[rhs]
	ax := make([]float64, w.a.Rows)
	w.a.MulVec(st.X, ax)
	var rr, bb float64
	for i := range b {
		rr += (b[i] - ax[i]) * (b[i] - ax[i])
		bb += b[i] * b[i]
	}
	if res := math.Sqrt(rr / bb); !(res <= residualCap*cgTol) {
		return fmt.Errorf("cg rhs %d: true residual %g > %g x tol %g", rhs, res, float64(residualCap), cgTol)
	}
	return nil
}

// replay repeats one solve in-process through the layers the session
// handler calls: decode the create body, fetch the plan, then CG steps
// whose SpMV is ExecutePlanOpts, each iterate body decoded and each reply
// encoded; then one simulator-only and one reference SpMV.
func (w *solveWorkload) replay(tr *tracer, op, parent int64, rhs, iterates int) error {
	s := tr.begin(op, parent, "server.wire_decode")
	var req solveRequest
	err := json.Unmarshal(w.body[rhs], &req)
	s.end()
	if err != nil {
		return err
	}
	s = tr.begin(op, parent, "plancache.get")
	p, ok := w.cache.Get(w.fp)
	s.end()
	if !ok {
		return fmt.Errorf("plan not cached")
	}
	opt := core.DefaultGuardOptions()
	opt.Counters = true
	opt.Workers = 1
	var step *openSpan
	mul := func(ctx context.Context, v, u []float64) error {
		ex := tr.begin(op, step.id(), "core.execute")
		rep, err := w.d.fw.ExecutePlanOpts(ctx, p, w.a, v, u, opt)
		ex.end()
		if err == nil {
			w.log.add(rep)
		}
		return err
	}
	x := make([]float64, w.a.Rows)
	cg, err := solvers.NewCGStepper(mul, req.B, x, req.Tol)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for it := 0; it < iterates; it++ {
		s = tr.begin(op, parent, "server.wire_decode")
		var ir iterateRequest
		err := json.Unmarshal(iterateBody, &ir)
		s.end()
		if err != nil {
			return err
		}
		var st solvers.Status
		for k := 0; k < ir.Steps; k++ {
			step = tr.begin(op, parent, "solvers.step")
			st, err = cg.Step(ctx)
			step.end()
			if err != nil {
				return err
			}
			if st.Converged {
				break
			}
		}
		s = tr.begin(op, parent, "server.wire_encode")
		reply := sessionStatus{Iterations: st.Iterations, Residual: st.Residual, Converged: st.Converged, Done: st.Converged}
		if st.Converged {
			reply.X = cg.Solution()
		}
		_, err = json.Marshal(reply)
		s.end()
		if err != nil {
			return err
		}
	}
	if got := cg.Status().Iterations; got != w.iters[rhs] {
		return fmt.Errorf("in-process cg took %d iterations, served %d", got, w.iters[rhs])
	}
	bins, err := p.Rebin(w.a)
	if err != nil {
		return err
	}
	u := [][]float64{make([]float64, w.a.Rows)}
	s = tr.begin(op, parent, "hsa.simulate")
	err = simulatePlan(w.d.fw.Cfg.Device, w.a, [][]float64{req.B}, u, bins, p)
	s.end()
	if err != nil {
		return err
	}
	s = tr.begin(op, parent, "sparse.mulvec")
	w.a.MulVec(req.B, u[0])
	s.end()
	return nil
}

func (w *solveWorkload) check(ph *phase) error {
	if err := checkRequestCounts(ph.start, ph.end, ph.sentStart, ph.sentEnd); err != nil {
		return err
	}
	if got := ph.end.delta(ph.start, requestsSeries("solve")); got != float64(ph.ops+ph.failed) {
		return fmt.Errorf("spmvd_requests_total{solve} moved by %v for %d solves", got, ph.ops+ph.failed)
	}
	if got, want := ph.end.delta(ph.start, "spmvd_device_cycles_total"), float64(ph.spmvs)*w.cyc; got != want {
		return fmt.Errorf("spmvd_device_cycles_total moved by %v, %d SpMVs at %v cycles predict %v", got, ph.spmvs, w.cyc, want)
	}
	return nil
}

func (w *solveWorkload) describe() {
	describeMatrix("laplace2d", w.lap, computedBytes(w.a, 1))
	for i := range w.rhs {
		fmt.Printf("cg rhs %d: %d iterations to tol %g\n", i, w.iters[i], cgTol)
	}
}

func (w *solveWorkload) layers(a, b *phase, out map[string]float64) {
	spans := b.tr.snapshot()
	for _, l := range []struct{ span, metric string }{
		{"server.wire_decode", "server.wire_decode_ms"},
		{"plancache.get", "plancache.get_ms"},
		{"core.execute", "core.execute_ms"},
		{"server.wire_encode", "server.wire_encode_ms"},
		{"hsa.simulate", "hsa.simulate_ms"},
		{"sparse.mulvec", "sparse.mulvec_ms"},
		{"solvers.step", "solvers.step_ms"},
	} {
		out[l.metric], _ = meanMs(spans, l.span)
	}
	// Server self time: every served call minus the handler-side layer
	// work the replay measured for the same solves.
	calls := 0
	for _, s := range spans {
		if s.Name == "server.http" {
			calls++
		}
	}
	handler := totalMs(spans, "server.wire_decode") + totalMs(spans, "plancache.get") +
		totalMs(spans, "solvers.step") + totalMs(spans, "server.wire_encode")
	out["server.self_ms"] = ratio(totalMs(spans, "server.http")-handler, float64(calls))
	serverLayers(a, w.tune, out)
	out["core.fallbacks_per_op"] = ratio(float64(a.fallbacks), float64(a.ops))
	w.log.fill(out)
	out["solvers.iterations_per_solve"] = float64(a.spmvs-a.ops) / float64(a.ops)
	out["kernels.computed_bytes_per_op"] = a.bytes / float64(a.ops)
}

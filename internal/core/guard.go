package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
	"spmvtune/internal/trace"
)

// Typed failure sentinels of the guarded execution path, re-exported from
// the shared taxonomy. Match with errors.Is.
var (
	ErrInvalidMatrix  = errdefs.ErrInvalidMatrix
	ErrKernelFault    = errdefs.ErrKernelFault
	ErrBudgetExceeded = errdefs.ErrBudgetExceeded
	ErrCanceled       = errdefs.ErrCanceled
)

// Stage identifies a link of the guarded fallback chain, in degradation
// order: the model's predicted kernel, then Kernel-Serial (the kernel with
// no LDS traffic, no barriers and no divergence hazards beyond row length),
// then the native CPU reference, which cannot fault.
type Stage int

const (
	StagePredicted Stage = iota
	StageSerialFallback
	StageCPUReference
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StagePredicted:
		return "predicted"
	case StageSerialFallback:
		return "serial-fallback"
	case StageCPUReference:
		return "cpu-reference"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// GuardOptions tunes guarded execution (ExecutePlanOpts,
// ExecutePlanBatchOpts, RunGuardedOpts). The zero value selects defaults.
type GuardOptions struct {
	// MaxAttempts is the number of launches tried per kernel in the chain
	// before falling back to the next link; retries absorb transient
	// faults. <= 0 selects 2.
	MaxAttempts int
	// Backoff is the delay before the first retry of a kernel, doubling
	// per further retry. Negative disables; 0 selects 200µs. The wait
	// aborts immediately if the context is canceled.
	Backoff time.Duration
	// Tolerance is the output-verification tolerance against the reference
	// SpMV (combined absolute/relative). <= 0 selects 1e-9.
	Tolerance float64
	// Faults is the deterministic fault-injection plan applied to device
	// launches; nil injects nothing. Production callers leave it nil —
	// it exists so degradation paths are testable.
	Faults *hsa.FaultPlan
	// Counters enables device performance-counter collection on every
	// simulated launch: each bin's ExecProfile then carries the measured
	// lane utilization, LDS mix and load imbalance, and ExecReport.Counters
	// sums them. Off by default; disabled runs pay a single nil check per
	// collection site.
	Counters bool
	// Trace receives one JSONL span per pipeline phase (features →
	// predict-u → bin → predict-kernel → execute-bin). Nil disables
	// emission; every call site is nil-safe.
	Trace *trace.Writer
	// TraceID tags this run's spans so concurrent runs sharing one Writer
	// stay separable.
	TraceID string
	// Workers bounds the host pool independent bins are served over: <= 1
	// (including the zero value) serves bins sequentially in bin order —
	// the legacy behavior; > 1 fans bins over at most Workers goroutines,
	// for fused batches as for single vectors. Bins write disjoint row
	// ranges of every output vector and each keeps its own fault
	// arming, retry/backoff loop and fallback chain; per-bin sub-reports
	// merge in bin order, so on the success path the outputs and reports
	// are identical to a sequential run's (trace spans may interleave, and on
	// an aborting error the parallel run may have served bins a sequential
	// run would not have reached). Inner device launches are clamped to a
	// sequential executor — the bin pool owns the host budget (see
	// sequentialDevice).
	Workers int
}

// DefaultGuardOptions returns the production defaults.
func DefaultGuardOptions() GuardOptions {
	return GuardOptions{MaxAttempts: 2, Backoff: 200 * time.Microsecond, Tolerance: 1e-9}
}

func (o GuardOptions) withDefaults() GuardOptions {
	d := DefaultGuardOptions()
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.Backoff == 0 {
		o.Backoff = d.Backoff
	}
	if o.Tolerance <= 0 {
		o.Tolerance = d.Tolerance
	}
	return o
}

// Attempt records one execution attempt of a bin.
type Attempt struct {
	Stage  Stage
	Kernel string // kernel name, or "reference" for the CPU stage
	Retry  int    // zero-based retry index within the stage
	Err    string // failure description; empty on the accepted attempt
}

// BinReport records how one bin was finally served.
type BinReport struct {
	Bin      int
	Rows     int
	Attempts []Attempt // every attempt in order; the last one succeeded
	Final    Stage     // chain link that produced the accepted result
}

// Degraded reports whether the bin needed anything beyond the first launch
// of its predicted kernel.
func (b *BinReport) Degraded() bool {
	return b.Final != StagePredicted || len(b.Attempts) > 1
}

// ExecReport records every fallback and retry decision of one guarded run,
// so callers (and observability layers) can see what degraded and why.
type ExecReport struct {
	Decision Decision
	// DecisionFallback is set when the predict path itself failed and the
	// run fell back to the single-bin Kernel-Serial strategy.
	DecisionFallback bool
	Bins             []BinReport
	// Stats sums the device stats of the accepted simulated launches only;
	// aborted launches never reach stats finalization.
	Stats hsa.Stats
	// Profiles records how each bin actually executed, in service order:
	// kernel chosen, fallback depth, modeled cost, and (when
	// GuardOptions.Counters is set) the device performance counters.
	Profiles []plan.ExecProfile
	// Counters sums the device counters of the accepted launches; valid
	// only when CountersEnabled (GuardOptions.Counters was set).
	Counters        hsa.Counters
	CountersEnabled bool
	// Retries counts re-launches of a kernel already attempted on its bin;
	// Fallbacks counts bins not served by their predicted kernel; CPUServed
	// counts bins that degraded all the way to the native reference.
	Retries   int
	Fallbacks int
	CPUServed int
}

// Degraded reports whether any part of the run deviated from the clean
// predicted path.
func (r *ExecReport) Degraded() bool {
	if r.DecisionFallback || r.Retries > 0 || r.Fallbacks > 0 || r.CPUServed > 0 {
		return true
	}
	for i := range r.Bins {
		if r.Bins[i].Degraded() {
			return true
		}
	}
	return false
}

// String renders a one-line summary plus one line per degraded bin.
func (r *ExecReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "guarded run: %d bins, %d retries, %d fallbacks, %d cpu-served",
		len(r.Bins), r.Retries, r.Fallbacks, r.CPUServed)
	if r.DecisionFallback {
		sb.WriteString(", decision fell back to serial")
	}
	if !r.Degraded() {
		sb.WriteString(" (clean)")
	}
	for i := range r.Bins {
		b := &r.Bins[i]
		if !b.Degraded() {
			continue
		}
		fmt.Fprintf(&sb, "\n  bin %d (%d rows): served by %s after", b.Bin, b.Rows, b.Final)
		for _, at := range b.Attempts {
			if at.Err == "" {
				continue
			}
			fmt.Fprintf(&sb, " [%s/%s retry %d: %s]", at.Stage, at.Kernel, at.Retry, at.Err)
		}
	}
	return sb.String()
}

// RunGuarded executes the auto-tuned SpMV u = A·v on the simulated device
// with full failure protection under the default GuardOptions: input
// validation, per-bin panic recovery, the predicted → Kernel-Serial →
// CPU-reference fallback chain, bounded retry with backoff, output
// verification against the reference SpMV, and context cancellation.
//
// On success u holds a verified result (possibly via fallbacks — consult
// the report) and the error is nil. The error is non-nil only for invalid
// input (ErrInvalidMatrix) or an expired context (ErrCanceled); it is
// never a panic.
func (fw *Framework) RunGuarded(ctx context.Context, a *sparse.CSR, v, u []float64) (Decision, *ExecReport, error) {
	return fw.RunGuardedOpts(ctx, a, v, u, DefaultGuardOptions())
}

// RunGuardedOpts is RunGuarded with explicit options. It is exactly
// PlanTraced followed by ExecutePlanOpts — the path spmvd serves — with a
// failed predict path reported as ExecReport.DecisionFallback.
func (fw *Framework) RunGuardedOpts(ctx context.Context, a *sparse.CSR, v, u []float64, opt GuardOptions) (Decision, *ExecReport, error) {
	p, err := fw.PlanTraced(ctx, a, opt.Trace, opt.TraceID)
	if err != nil {
		return Decision{}, &ExecReport{CountersEnabled: opt.Counters}, err
	}
	rep, err := fw.ExecutePlanOpts(ctx, p, a, v, u, opt)
	if p.Fallback {
		rep.DecisionFallback = true
	}
	return rep.Decision, rep, err
}

// guardedExec is the per-call state of one guarded execution over B
// right-hand sides (B=1 for a single-vector request): the vectors, their
// reference results, the reconstructed binning and the bin→kernel routing
// (a func rather than a map so hot per-request callers can route plan
// lookups without materializing a map per request).
type guardedExec struct {
	a             *sparse.CSR
	vs, us, wants [][]float64
	bn            *binning.Binning
	kernelFor     func(binID int) int
	opt           GuardOptions
}

// vector returns the width-1 view of right-hand side b. The views are
// sub-slices of the batch's own slices, so isolating a vector allocates no
// new slice headers.
func (x *guardedExec) vector(b int) guardedExec {
	w := *x
	w.vs, w.us, w.wants = x.vs[b:b+1], x.us[b:b+1], x.wants[b:b+1]
	return w
}

// runBinsGuarded serves every non-empty bin through the fallback chain —
// the one execution engine behind every guarded entry point. With
// opt.Workers > 1 independent bins are served concurrently; each bin runs
// against a private sub-report and the sub-reports merge in bin order, so
// the success-path result is identical to the sequential run's.
func (fw *Framework) runBinsGuarded(ctx context.Context, x *guardedExec, rep *BatchReport) error {
	bins := x.bn.NonEmpty()
	workers := x.opt.Workers
	if workers > len(bins) {
		workers = len(bins)
	}
	if workers <= 1 {
		for _, binID := range bins {
			if err := fw.serveBin(ctx, fw.Cfg.Device, x, binID, rep); err != nil {
				return err
			}
		}
		return nil
	}

	// Whatever the pool's task closure captures escapes to the heap, so it
	// captures a copy of x and prebuilt sub-reports rather than x and rep:
	// the sequential path's per-call state stays on the stack.
	dev := sequentialDevice(fw.Cfg.Device)
	subs := make([]BatchReport, len(bins))
	for i := range subs {
		subs[i] = BatchReport{Vectors: rep.Vectors, Shared: rep.Shared.fork()}
	}
	errs := make([]error, len(bins))
	xp := *x
	forEachLimit(workers, len(bins), func(i int) {
		errs[i] = fw.serveBin(ctx, dev, &xp, bins[i], &subs[i])
	})
	var firstErr error
	for i := range subs {
		rep.Shared.merge(subs[i].Shared)
		for b, pv := range subs[i].PerVector {
			if pv != nil {
				rep.vectorReport(b).merge(pv)
			}
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	return firstErr
}

// fork returns an empty report carrying r's decision, for a bin served
// apart from r (on the bin pool, or isolated out of a fused launch).
func (r *ExecReport) fork() *ExecReport {
	return &ExecReport{Decision: r.Decision, CountersEnabled: r.CountersEnabled}
}

// merge appends a forked sub-report's bin services to r.
func (r *ExecReport) merge(sub *ExecReport) {
	r.Bins = append(r.Bins, sub.Bins...)
	r.Profiles = append(r.Profiles, sub.Profiles...)
	r.Stats.Add(sub.Stats)
	if r.CountersEnabled {
		r.Counters.Add(sub.Counters)
	}
	r.Retries += sub.Retries
	r.Fallbacks += sub.Fallbacks
	r.CPUServed += sub.CPUServed
}

// decideGuarded runs the predict path with panic recovery, emitting one
// span per predict phase when tw is non-nil. The model snapshot m is
// loaded once by the caller so the decision and any version recorded next
// to it refer to the same model even under a concurrent hot-swap.
func (fw *Framework) decideGuarded(m *Model, a *sparse.CSR, tw *trace.Writer, traceID string) (d Decision, b *binning.Binning, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: predict path panicked: %v", rec)
		}
	}()
	d, b = fw.decideTraced(m, a, tw, traceID)
	for _, binID := range b.NonEmpty() {
		if _, ok := d.KernelByBin[binID]; !ok {
			return d, b, fmt.Errorf("core: no kernel assigned to non-empty bin %d", binID)
		}
	}
	return d, b, nil
}

// serveBin serves one bin for every right-hand side of x on the given
// device config (runBinsGuarded passes a sequential-clamped device when the
// bins themselves run on a pool). One launch per attempt walks the
// predicted → Kernel-Serial chain with retries, and each vector's output is
// verified against its own reference. A launch whose outputs verify for
// only part of the batch is accepted for the passing vectors; each failing
// vector is re-served for this bin by serveBin at width 1 (which re-arms
// the same fault plan, so a deterministic per-vector fault degrades that
// request through its own retries and fallbacks without touching the
// others). When the chain is exhausted, a single vector is served from the
// CPU reference and a batch re-serves every vector at width 1.
//
// It returns a non-nil error only on cancellation; every device failure
// degrades to the next chain link, and the CPU reference cannot fail.
func (fw *Framework) serveBin(ctx context.Context, dev hsa.Config, x *guardedExec, binID int, rep *BatchReport) error {
	opt := x.opt
	nb := len(x.vs)
	groups := x.bn.Bins[binID]
	shared := rep.Shared
	br := BinReport{Bin: binID, Rows: x.bn.NumRows(binID)}

	// The simulated chain: the predicted kernel, then Kernel-Serial unless
	// serial was the prediction.
	type link struct {
		stage Stage
		kid   int
	}
	predictedKID := x.kernelFor(binID)
	chain := []link{{StagePredicted, predictedKID}}
	if predictedKID != 0 {
		chain = append(chain, link{StageSerialFallback, 0})
	}

	for _, ln := range chain {
		info, ok := kernels.ByID(ln.kid)
		if !ok {
			br.Attempts = append(br.Attempts, Attempt{
				Stage: ln.stage, Kernel: fmt.Sprintf("kernel#%d", ln.kid),
				Err: "unknown kernel id (stale model?)",
			})
			continue
		}
		for retry := 0; retry < opt.MaxAttempts; retry++ {
			if retry > 0 {
				shared.Retries++
				if err := sleepBackoff(ctx, opt.Backoff<<(retry-1)); err != nil {
					shared.Bins = append(shared.Bins, br)
					return err
				}
			}
			if err := ctx.Err(); err != nil {
				shared.Bins = append(shared.Bins, br)
				return errdefs.Canceled(err)
			}
			fs := opt.Faults.Arm(binID, ln.kid, retry)
			spanStart := opt.Trace.Now()
			wallStart := time.Now()
			st, ctr, err := simulateBinAttempt(ctx, dev, x.a, x.vs, x.us, info.Kernel, groups, fs, opt.Counters, binID%nb)
			var failed []int
			if err == nil {
				failed, err = x.verify(groups)
			}
			if err == nil {
				br.Attempts = append(br.Attempts, Attempt{Stage: ln.stage, Kernel: info.Name, Retry: retry})
				br.Final = ln.stage
				if ln.stage != StagePredicted {
					shared.Fallbacks++
				}
				shared.Stats.Add(st)
				if ctr != nil {
					shared.Counters.Add(*ctr)
				}
				pr := plan.ExecProfile{
					Bin: binID, U: shared.Decision.U,
					Kernel: ln.kid, KernelName: info.Name,
					Rows: br.Rows, NNZ: binNNZ(x.a, groups),
					Vectors: st.Vectors,
					Stage:   ln.stage.String(), FallbackDepth: int(ln.stage),
					Attempts: len(br.Attempts),
					Cycles:   st.Cycles, Seconds: st.Seconds,
					WallNs:   time.Since(wallStart).Nanoseconds(),
					Counters: ctr,
				}
				shared.Profiles = append(shared.Profiles, pr)
				emitBinSpan(opt, spanStart, &pr)
				shared.Bins = append(shared.Bins, br)
				for _, b := range failed {
					if err := fw.isolateVector(ctx, dev, x, binID, rep, b); err != nil {
						return err
					}
				}
				return nil
			}
			br.Attempts = append(br.Attempts, Attempt{Stage: ln.stage, Kernel: info.Name, Retry: retry, Err: err.Error()})
			if errors.Is(err, errdefs.ErrCanceled) {
				shared.Bins = append(shared.Bins, br)
				return err
			}
		}
	}

	if nb > 1 {
		// The fused chain is exhausted: the whole batch leaves the fused
		// path for this bin, each vector ending at its own CPU reference at
		// the latest.
		shared.Fallbacks++
		shared.Bins = append(shared.Bins, br)
		for b := 0; b < nb; b++ {
			if err := fw.isolateVector(ctx, dev, x, binID, rep, b); err != nil {
				return err
			}
		}
		return nil
	}

	// Terminal fallback: the reference result is already in want; serving
	// the bin from it is exact, so no verification step is needed.
	spanStart := opt.Trace.Now()
	wallStart := time.Now()
	u, want := x.us[0], x.wants[0]
	for _, g := range groups {
		copy(u[g.Start:int(g.Start)+int(g.Count)], want[g.Start:int(g.Start)+int(g.Count)])
	}
	br.Attempts = append(br.Attempts, Attempt{Stage: StageCPUReference, Kernel: "reference"})
	br.Final = StageCPUReference
	shared.Fallbacks++
	shared.CPUServed++
	pr := plan.ExecProfile{
		Bin: binID, U: shared.Decision.U,
		Kernel: -1, KernelName: "reference",
		Rows: br.Rows, NNZ: binNNZ(x.a, groups),
		Stage: StageCPUReference.String(), FallbackDepth: int(StageCPUReference),
		Attempts: len(br.Attempts),
		WallNs:   time.Since(wallStart).Nanoseconds(),
	}
	shared.Profiles = append(shared.Profiles, pr)
	emitBinSpan(opt, spanStart, &pr)
	shared.Bins = append(shared.Bins, br)
	return nil
}

// isolateVector re-serves one bin for vector b alone through serveBin at
// width 1, recording the service in the vector's isolation report.
func (fw *Framework) isolateVector(ctx context.Context, dev hsa.Config, x *guardedExec, binID int, rep *BatchReport, b int) error {
	w := x.vector(b)
	return fw.serveBin(ctx, dev, &w, binID, &BatchReport{Vectors: 1, Shared: rep.vectorReport(b)})
}

// verify checks every vector's bin rows against its reference and returns
// the vectors that failed. When all of them fail the launch itself is at
// fault — not per-request corruption — and the error asks for a retry.
func (x *guardedExec) verify(groups []binning.Group) ([]int, error) {
	var failed []int
	row := 0
	for b := range x.us {
		if r, ok := verifyBin(x.us[b], x.wants[b], groups, x.opt.Tolerance); !ok {
			if failed == nil {
				row = r
			}
			failed = append(failed, b)
		}
	}
	switch {
	case len(failed) < len(x.us):
		return failed, nil
	case len(failed) == 1:
		return nil, fmt.Errorf("core: output verification failed at row %d: %w", row, errdefs.ErrKernelFault)
	default:
		return nil, fmt.Errorf("core: output verification failed for all %d vectors: %w", len(failed), errdefs.ErrKernelFault)
	}
}

// binNNZ sums the stored non-zeros of the rows covered by groups.
func binNNZ(a *sparse.CSR, groups []binning.Group) int64 {
	var n int64
	for _, g := range groups {
		n += a.RowPtr[int(g.Start)+int(g.Count)] - a.RowPtr[g.Start]
	}
	return n
}

// emitBinSpan writes one execute-bin span for an accepted bin result. The
// attrs hold only deterministic measurements (modeled cycles, counters) —
// wall time rides on the span's own clock fields, which the deterministic
// Writer suppresses, keeping identical runs byte-identical.
func emitBinSpan(opt GuardOptions, start time.Time, pr *plan.ExecProfile) {
	if opt.Trace == nil {
		return
	}
	attrs := map[string]any{
		"bin": pr.Bin, "u": pr.U, "kernel": pr.KernelName,
		"stage": pr.Stage, "fallbackDepth": pr.FallbackDepth,
		"attempts": pr.Attempts, "rows": pr.Rows, "nnz": pr.NNZ,
		"cycles": pr.Cycles,
	}
	if c := pr.Counters; c != nil {
		attrs["activeLaneRatio"] = c.ActiveLaneRatio()
		attrs["memInstrs"] = c.MemInstrs
		attrs["ldsReads"] = c.LDSReads
		attrs["ldsWrites"] = c.LDSWrites
		attrs["ldsBankConflicts"] = c.LDSBankConflicts
		attrs["barrierWaits"] = c.BarrierWaits
		attrs["loadImbalance"] = c.LoadImbalance()
	}
	opt.Trace.Emit(opt.TraceID, "execute-bin", start, attrs)
}

// simulateBinAttempt runs one kernel launch over B right-hand sides with
// panic recovery: injected device faults and cancellation surface as their
// typed errors, and any other panic — a misbehaving kernel indexing out of
// range, say — is contained as a generic kernel fault instead of taking
// down the process. The launch routes through launchKernel, so dev.Workers
// selects the executor (legacy single-accountant vs sharded) and faults
// fire under either. An armed silent-corruption fault poisons exactly one
// vector, us[poison], modeling per-request corruption rather than a
// whole-launch failure. With collect set the launch gathers device
// performance counters, returned alongside the stats (nil otherwise).
func simulateBinAttempt(ctx context.Context, dev hsa.Config, a *sparse.CSR, vs, us [][]float64,
	k kernels.Kernel, groups []binning.Group, fs *hsa.FaultState, collect bool, poison int) (st hsa.Stats, ctr *hsa.Counters, err error) {

	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if e, ok := rec.(error); ok && (errors.Is(e, errdefs.ErrKernelFault) || errors.Is(e, errdefs.ErrCanceled)) {
			err = e
			return
		}
		err = fmt.Errorf("core: recovered kernel panic: %v: %w", rec, errdefs.ErrKernelFault)
	}()

	st, ctr = launchKernel(ctx, dev, a, vs, us, k, groups, fs, collect)
	if fs.PoisonOutput() {
		// Silent data corruption: the launch "succeeded" but the vector's
		// output rows are NaN. Only the verification oracle can catch this.
		u := us[poison]
		for _, g := range groups {
			for r := g.Start; r < g.Start+g.Count; r++ {
				u[r] = math.NaN()
			}
		}
	}
	return st, ctr, nil
}

// verifyBin compares the bin's output rows against the reference within
// tol, treating any NaN/Inf disagreement as a mismatch (a plain tolerance
// compare is blind to NaN because every NaN comparison is false). Returns
// the first failing row, or ok.
func verifyBin(u, want []float64, groups []binning.Group, tol float64) (int, bool) {
	for _, g := range groups {
		for r := g.Start; r < g.Start+g.Count; r++ {
			a, b := u[r], want[r]
			if math.IsNaN(a) || math.IsInf(a, 0) {
				if math.IsNaN(a) && math.IsNaN(b) {
					continue
				}
				if a == b { // same infinity
					continue
				}
				return int(r), false
			}
			d := math.Abs(a - b)
			scale := math.Max(math.Abs(a), math.Abs(b))
			if d > tol && d > tol*scale {
				return int(r), false
			}
		}
	}
	return 0, true
}

// sleepBackoff waits d, aborting early with a typed cancellation error if
// the context expires first.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return errdefs.Canceled(ctx.Err())
	case <-t.C:
		return nil
	}
}

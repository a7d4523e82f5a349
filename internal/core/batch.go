package core

import (
	"context"
	"errors"
	"fmt"

	"spmvtune/internal/binning"
	"spmvtune/internal/errdefs"
	"spmvtune/internal/hsa"
	"spmvtune/internal/kernels"
	"spmvtune/internal/plan"
	"spmvtune/internal/sparse"
)

// This file is the multi-vector entry layer: one fused SpMM launch serves
// B coalesced requests against the same matrix structure, paying the DRAM
// traffic for values and column indices once instead of B times. Every
// guarded execution — single-vector requests included, as B=1 — runs the
// one fallback chain in guard.go, which verifies each right-hand side
// independently: a fault that corrupts one vector pulls only that vector
// out of the fused launch (it is re-served by the same chain at width 1),
// while the remaining B-1 requests keep their clean fused result.

// SimulateBatchKernel runs one fused multi-RHS launch over the given row
// groups on a fresh device run and returns its stats; us[b] receives A
// times vs[b] for every b. A single-vector call is exactly SimulateKernel.
func SimulateBatchKernel(dev hsa.Config, a *sparse.CSR, vs, us [][]float64, k kernels.Kernel, groups []binning.Group) hsa.Stats {
	st, _ := SimulateBatchKernelCtx(context.Background(), dev, a, vs, us, k, groups)
	return st
}

// SimulateBatchKernelCtx is SimulateBatchKernel under a context, with the
// same cancellation contract as SimulateKernelCtx.
func SimulateBatchKernelCtx(ctx context.Context, dev hsa.Config, a *sparse.CSR, vs, us [][]float64,
	k kernels.Kernel, groups []binning.Group) (st hsa.Stats, err error) {

	if len(vs) == 0 || len(vs) != len(us) {
		return st, errdefs.Invalidf("core: batch launch needs equal, non-zero vector counts (got %d/%d)", len(vs), len(us))
	}
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok && errors.Is(e, errdefs.ErrCanceled) {
				err = e
				return
			}
			panic(rec)
		}
	}()
	st, _ = launchKernel(ctx, dev, a, vs, us, k, groups, nil, false)
	return st, nil
}

// BatchReport records how one batched guarded execution served its B
// coalesced requests.
type BatchReport struct {
	// Vectors is the number of right-hand sides the batch carried.
	Vectors int
	// Shared is the report of the fused launch path: decisions, accepted
	// fused launches, their summed stats and profiles. Its degradation
	// signals (retries, fallbacks) apply to the whole batch.
	Shared *ExecReport
	// PerVector[b] is non-nil iff vector b fell out of the fused path for
	// at least one bin and was re-served through the single-vector guarded
	// chain; it then records those isolated bin services.
	PerVector []*ExecReport
	// Isolated counts the vectors with a non-nil PerVector entry.
	Isolated int
}

// VectorDegraded reports whether request b deviated from the clean fused
// path: either the shared launch chain itself degraded (which affects every
// request in the batch), or vector b was isolated out of a fused launch.
func (r *BatchReport) VectorDegraded(b int) bool {
	if r.Shared != nil && r.Shared.Degraded() {
		return true
	}
	return b >= 0 && b < len(r.PerVector) && r.PerVector[b] != nil
}

// vectorReport returns vector b's isolation report, creating it — and the
// PerVector slice of a bin's private sub-report — on first use.
func (r *BatchReport) vectorReport(b int) *ExecReport {
	if r.PerVector == nil {
		r.PerVector = make([]*ExecReport, r.Vectors)
	}
	if r.PerVector[b] == nil {
		r.PerVector[b] = r.Shared.fork()
	}
	return r.PerVector[b]
}

// ExecutePlanBatch applies a TuningPlan to B right-hand sides with one
// fused guarded launch per bin under the default GuardOptions. On success
// every us[b] holds a verified A times vs[b], byte-identical to what B
// sequential ExecutePlan calls would produce.
func (fw *Framework) ExecutePlanBatch(ctx context.Context, p *plan.TuningPlan, a *sparse.CSR, vs, us [][]float64) (*BatchReport, error) {
	return fw.ExecutePlanBatchOpts(ctx, p, a, vs, us, DefaultGuardOptions())
}

// ExecutePlanBatchOpts is ExecutePlanBatch with explicit options, and the
// one prologue of every plan execution: ExecutePlanOpts is this call at
// B=1. Bins fan out over opt.Workers exactly as for a single vector;
// per-vector verification failures isolate the failing vector alone, and
// only cancellation or invalid input yields a non-nil error.
func (fw *Framework) ExecutePlanBatchOpts(ctx context.Context, p *plan.TuningPlan, a *sparse.CSR, vs, us [][]float64, opt GuardOptions) (*BatchReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	brep := &BatchReport{
		Vectors:   len(vs),
		Shared:    &ExecReport{CountersEnabled: opt.Counters},
		PerVector: make([]*ExecReport, len(vs)),
	}

	if len(vs) == 0 || len(vs) != len(us) {
		return brep, errdefs.Invalidf("core: batch execution needs equal, non-zero vector counts (got %d/%d)", len(vs), len(us))
	}
	if p == nil {
		return brep, errdefs.Invalidf("core: nil tuning plan")
	}
	if err := p.Validate(); err != nil {
		return brep, err
	}
	if err := a.Validate(); err != nil {
		return brep, err
	}
	if err := p.CheckMatrix(a); err != nil {
		return brep, err
	}
	for b := range vs {
		if len(vs[b]) < a.Cols {
			return brep, launchInvalid(len(vs), b, "len(v)=%d < Cols=%d", len(vs[b]), a.Cols)
		}
		if len(us[b]) < a.Rows {
			return brep, launchInvalid(len(vs), b, "len(u)=%d < Rows=%d", len(us[b]), a.Rows)
		}
	}
	if err := ctx.Err(); err != nil {
		return brep, errdefs.Canceled(err)
	}

	bn, err := p.Rebin(a)
	// Execution routes bin→kernel lookups through the plan's allocation-free
	// accessor; the report's Decision still carries the conventional map.
	kernelFor := func(binID int) int { kid, _ := p.KernelFor(binID); return kid }
	kernelByBin := p.KernelByBin()
	if err != nil {
		// A stale plan degrades exactly like a failed predict path.
		brep.Shared.DecisionFallback = true
		bn = binning.Single(a)
		kernelFor = func(int) int { return 0 }
		kernelByBin = map[int]int{0: 0}
	}
	brep.Shared.Decision = Decision{U: p.U, KernelByBin: kernelByBin}

	// Per-vector verification oracles (and terminal CPU fallbacks).
	wants := make([][]float64, len(vs))
	for b := range vs {
		wants[b] = make([]float64, a.Rows)
		a.MulVec(vs[b], wants[b])
	}

	x := &guardedExec{a: a, vs: vs, us: us, wants: wants, bn: bn, kernelFor: kernelFor, opt: opt}
	err = fw.runBinsGuarded(ctx, x, brep)
	for _, pv := range brep.PerVector {
		if pv != nil {
			brep.Isolated++
		}
	}
	return brep, err
}

// launchInvalid reports a vector-shape launch-validation failure, naming
// the vector only when the call carried more than one.
func launchInvalid(nb, b int, format string, args ...any) error {
	if nb > 1 {
		format = fmt.Sprintf("vector %d: ", b) + format
	}
	return errdefs.Invalidf("core: launch validation: "+format, args...)
}

package core

import (
	"context"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// SimulateBinnedQueued executes the per-bin kernels through an HSA
// user-mode queue: the host pays the full launch synchronization once,
// then every further bin kernel is an AQL packet write (QueueDispatchCycles)
// and the device drains the queue back-to-back. This is the HSA/SNACK
// feature the paper's platform section highlights, and it removes most of
// the per-bin dispatch penalty that sequential launches pay on matrices
// with several populated bins.
func SimulateBinnedQueued(dev hsa.Config, a *sparse.CSR, v, u []float64, b *binning.Binning, kernelByBin map[int]int) (hsa.Stats, error) {
	return SimulateBinnedQueuedCtx(context.Background(), dev, a, v, u, b, kernelByBin)
}

// SimulateBinnedQueuedCtx is SimulateBinnedQueued under a context: a
// canceled context drains the queue — packets not yet dispatched are
// abandoned and the in-flight launch aborts between work-group dispatches.
func SimulateBinnedQueuedCtx(ctx context.Context, dev hsa.Config, a *sparse.CSR, v, u []float64, b *binning.Binning, kernelByBin map[int]int) (hsa.Stats, error) {
	var total hsa.Stats
	launches := 0
	err := forEachBinLaunch(ctx, dev, a, v, u, b, kernelByBin, func(st hsa.Stats) {
		// Strip the per-launch overhead; queue costs are added below.
		st.Cycles = st.ExecCycles
		st.Seconds = st.Cycles / dev.ClockHz
		total.Add(st)
		launches++
	})
	if err != nil {
		return total, err
	}
	if launches > 0 {
		extra := dev.KernelLaunchCycles + float64(launches-1)*dev.QueueDispatchCycles
		total.Cycles += extra
		total.Seconds += extra / dev.ClockHz
	}
	return total, nil
}

// RunSimQueued is Framework.RunSim with queued dispatch.
func (fw *Framework) RunSimQueued(a *sparse.CSR, v, u []float64) (Decision, hsa.Stats, error) {
	return fw.RunSimQueuedCtx(context.Background(), a, v, u)
}

// RunSimQueuedCtx is RunSimQueued under a context.
func (fw *Framework) RunSimQueuedCtx(ctx context.Context, a *sparse.CSR, v, u []float64) (Decision, hsa.Stats, error) {
	d, b := fw.Decide(a)
	st, err := SimulateBinnedQueuedCtx(ctx, fw.Cfg.Device, a, v, u, b, d.KernelByBin)
	return d, st, err
}

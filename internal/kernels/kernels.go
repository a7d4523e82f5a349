// Package kernels implements the paper's pool of nine CSR SpMV kernels
// (Section III-B, Algorithms 3-5) on the simulated HSA device:
//
//   - Kernel-Serial: one work-item per row;
//   - Kernel-SubvectorX for X in {2,4,8,16,32,64,128}: X work-items
//     cooperate on one row, staging products in LDS and reducing with a
//     segmented parallel reduction;
//   - Kernel-Vector: the whole 256-thread work-group processes one row.
//
// All kernels compute identical results (u = A·v restricted to their rows)
// but differ in thread organization, so their costs diverge with row
// length: serial wins on very short rows, vector on very long ones, and
// the subvector family covers the middle — exactly the trade-off the
// auto-tuner learns.
package kernels

import (
	"fmt"
	"sync"

	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// Input bundles a device-resident CSR matrix and its vectors: the Go slices
// hold the actual data (kernels execute functionally) and the Regions give
// the simulated memory layout used for coalescing analysis.
type Input struct {
	A *sparse.CSR
	V []float64 // input vector (length >= Cols)
	U []float64 // output vector (length >= Rows)

	// Multi-RHS (SpMM) binding: Vs/Us hold the B dense right-hand sides and
	// outputs of one fused launch (Vs[0]/Us[0] alias V/U). RegV and RegU then
	// cover B vector slabs laid out back to back — vector b's element i lives
	// at region index b*stride+i, with the stride rounded to a segment
	// boundary so distinct vectors never share a cache segment and the batch
	// pays its honest vector-traffic footprint. Single-vector binds leave Vs
	// and Us nil. See AcquireBatchInput.
	Vs, Us  [][]float64
	vStride int64
	uStride int64

	RegRowPtr hsa.Region
	RegColIdx hsa.Region
	RegVal    hsa.Region
	RegV      hsa.Region
	RegU      hsa.Region
	RegBin    hsa.Region
}

// NewInput allocates simulated regions for the matrix and vectors on run.
func NewInput(run *hsa.Run, a *sparse.CSR, v, u []float64) *Input {
	in := new(Input)
	in.bind(run, a, v, u)
	return in
}

func (in *Input) bind(run *hsa.Run, a *sparse.CSR, v, u []float64) {
	in.A, in.V, in.U = a, v, u
	in.RegRowPtr = run.Alloc(8, int64(len(a.RowPtr)))
	in.RegColIdx = run.Alloc(4, int64(len(a.ColIdx)))
	in.RegVal = run.Alloc(8, int64(len(a.Val)))
	in.RegV = run.Alloc(8, int64(len(v)))
	in.RegU = run.Alloc(8, int64(len(u)))
	in.RegBin = run.Alloc(4, int64(a.Rows)+1)
}

var inputPool = sync.Pool{New: func() any { return new(Input) }}

// AcquireInput is NewInput backed by a pool — one less allocation per
// launch on hot paths that perform thousands of them (the tuning search).
// The Input is valid for one launch; Release it once the kernel returned.
func AcquireInput(run *hsa.Run, a *sparse.CSR, v, u []float64) *Input {
	in := inputPool.Get().(*Input)
	in.bind(run, a, v, u)
	return in
}

// Release returns the Input to the pool, dropping its data references.
func (in *Input) Release() {
	*in = Input{}
	inputPool.Put(in)
}

// launchScratch pools the per-launch staging slices every kernel needs
// (row batches, gather address lists, partial sums) so a launch allocates
// nothing once the pool is warm. Buffers are handed out with exact
// capacities: rowIter.take fills to cap(dst), so capacity is semantic —
// a recycled buffer must never leak a previous launch's larger cap.
type launchScratch struct {
	rows   []int32
	addrs  []int64
	vAddrs []int64
	sums   []float64
}

var scratchPool = sync.Pool{New: func() any { return new(launchScratch) }}

func acquireScratch() *launchScratch  { return scratchPool.Get().(*launchScratch) }
func releaseScratch(s *launchScratch) { scratchPool.Put(s) }

func (s *launchScratch) rowBuf(n int) []int32 {
	if cap(s.rows) < n {
		s.rows = make([]int32, n)
	}
	return s.rows[:0:n]
}

func (s *launchScratch) addrBuf(n int) []int64 {
	if cap(s.addrs) < n {
		s.addrs = make([]int64, n)
	}
	return s.addrs[:0:n]
}

func (s *launchScratch) vAddrBuf(n int) []int64 {
	if cap(s.vAddrs) < n {
		s.vAddrs = make([]int64, n)
	}
	return s.vAddrs[:0:n]
}

func (s *launchScratch) sumBuf(n int) []float64 {
	if cap(s.sums) < n {
		s.sums = make([]float64, n)
	}
	return s.sums[:n]
}

// Kernel is one SpMV implementation from the candidate pool. Run processes
// exactly the rows covered by groups, writing u[row] for each, and accounts
// device activity on run. RunBatch is the fused multi-RHS (SpMM) launch: it
// processes the same rows for every bound vector pair (in.Vs[b], in.Us[b]),
// and with a single-vector binding it must behave exactly like Run.
type Kernel interface {
	Name() string
	Run(run *hsa.Run, in *Input, groups []binning.Group)
	RunBatch(run *hsa.Run, in *Input, groups []binning.Group)
}

// Info identifies a kernel in the pool; IDs are the class labels used by
// the stage-2 decision tree.
type Info struct {
	ID     int
	Name   string
	Kernel Kernel
}

// Pool returns the paper's nine-kernel candidate pool in ID order.
func Pool() []Info {
	infos := []Info{{ID: 0, Name: "serial", Kernel: Serial{}}}
	for _, x := range []int{2, 4, 8, 16, 32, 64, 128} {
		infos = append(infos, Info{
			ID:     len(infos),
			Name:   fmt.Sprintf("subvector%d", x),
			Kernel: Subvector{X: x},
		})
	}
	infos = append(infos, Info{ID: len(infos), Name: "vector", Kernel: Subvector{X: 256, vector: true}})
	return infos
}

// VectorKernel returns the Kernel-Vector instance (whole work-group per
// row), used directly by the CSR-Adaptive baseline for its long-row blocks.
func VectorKernel() Kernel {
	return Subvector{X: 256, vector: true}
}

// ByName resolves a kernel name over the full synthesized superset (the
// pool names keep their IDs — see Space). Space-restricted lookups go
// through SpaceByName + Space.ByID.
func ByName(name string) (Info, bool) {
	for _, k := range SynthSpace().Infos {
		if k.Name == name {
			return k, true
		}
	}
	return Info{}, false
}

// ByID resolves a kernel ID over the full synthesized superset: IDs
// 0..len(Pool())-1 are exactly the pool, higher IDs the synthesized
// points, so executors accept plans from every space. Validation paths
// that must reject IDs outside a specific space use Space.ByID instead.
func ByID(id int) (Info, bool) {
	return SynthSpace().ByID(id)
}

// PipeFloorer is implemented by kernels that can certify an analytic lower
// bound on their launch cost, enabling the tuning search to skip simulating
// kernels that cannot possibly win a bin (see core's lower-bound pruning).
type PipeFloorer interface {
	// PipeFloor returns a certified lower bound, in device cycles, on the
	// busiest SIMD pipe of any single work-group of a launch covering rows
	// whose longest row has maxRowLen stored non-zeros. Soundness contract:
	// the simulated makespan of the launch (excluding kernel-launch
	// overhead) is always >= the returned value, in both the legacy and the
	// sharded executor. Implementations derive it from the wavefront that
	// covers the longest row — the divergence floor the paper's kernel
	// trade-off hinges on. Returns 0 when no useful bound exists.
	PipeFloor(cfg hsa.Config, maxRowLen int) float64
}

// rowIter walks the rows of a group list in order.
type rowIter struct {
	groups []binning.Group
	gi     int
	off    int32
}

// next returns the next row index, or false when exhausted.
func (it *rowIter) next() (int32, bool) {
	for it.gi < len(it.groups) {
		g := it.groups[it.gi]
		if it.off < g.Count {
			r := g.Start + it.off
			it.off++
			return r, true
		}
		it.gi++
		it.off = 0
	}
	return 0, false
}

// take fills dst with up to cap(dst) consecutive rows; returns the filled
// prefix.
func (it *rowIter) take(dst []int32) []int32 {
	dst = dst[:0]
	for len(dst) < cap(dst) {
		r, ok := it.next()
		if !ok {
			break
		}
		dst = append(dst, r)
	}
	return dst
}

func countRows(groups []binning.Group) int {
	n := 0
	for _, g := range groups {
		n += int(g.Count)
	}
	return n
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	s := 0
	for v := 1; v < n; v <<= 1 {
		s++
	}
	return s
}

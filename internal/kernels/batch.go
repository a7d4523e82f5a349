package kernels

import (
	"spmvtune/internal/binning"
	"spmvtune/internal/hsa"
	"spmvtune/internal/sparse"
)

// This file is the multi-RHS (SpMM) side of the kernel pool: fused variants
// of every kernel family that apply the CSR structure to B dense vectors in
// one launch. The amortization argument is the whole point — SpMV is
// DRAM-bound, and the matrix structure (values + column indices + row
// pointers) dominates the traffic, so a fused launch streams it once and
// pays only the per-vector v-gathers, multiply-accumulates and result
// stores B times. The walkers below mirror their single-vector originals
// instruction for instruction, with three batch rules:
//
//   - structure loads (bin entries, row pointers, column indices, values)
//     are charged once per batch — later vectors reuse the register- or
//     LDS-resident copy;
//   - per-vector work (v gathers, FMAs, reductions, barriers, result
//     stores) is charged once per vector;
//   - functional accumulation order per (vector, row) is exactly the
//     single-vector kernel's, so a batched launch is byte-identical to B
//     independent launches.
//
// RunBatch with one bound vector delegates to Run: the single-vector
// walkers interleave their gathers differently than a degenerate batch
// loop would, and the direct-mapped cache makes the hit/miss sequence
// order-sensitive, so delegation — not a B==1 walker — is what keeps the
// single-vector cost model bit-identical to the pre-batch code.

// BatchPipeFloorer extends PipeFloorer to fused launches: BatchPipeFloor
// returns a certified lower bound, in device cycles, on the busiest SIMD
// pipe of any work-group of a RunBatch launch over vectors right-hand
// sides. Soundness contract mirrors PipeFloor (the simulated batch
// makespan, excluding launch overhead, is always >= the returned value);
// vectors <= 1 must equal PipeFloor.
type BatchPipeFloorer interface {
	BatchPipeFloor(cfg hsa.Config, maxRowLen, vectors int) float64
}

// bindBatch binds a B-vector launch: one region per matrix array plus one
// slab region each for the B input and B output vectors. A single-vector
// batch degenerates to the plain bind so delegated Run calls see exactly
// the layout the single-vector path allocates.
func (in *Input) bindBatch(run *hsa.Run, a *sparse.CSR, vs, us [][]float64) {
	if len(vs) != len(us) || len(vs) == 0 {
		panic("kernels: batch bind needs equal, non-zero vector counts")
	}
	if len(vs) == 1 {
		in.bind(run, a, vs[0], us[0])
		in.Vs, in.Us = vs, us
		return
	}
	in.A = a
	in.Vs, in.Us = vs, us
	in.V, in.U = vs[0], us[0]
	segElems := run.Config().SegmentBytes / 8
	if segElems < 1 {
		segElems = 1
	}
	var vLen, uLen int64
	for b := range vs {
		if n := int64(len(vs[b])); n > vLen {
			vLen = n
		}
		if n := int64(len(us[b])); n > uLen {
			uLen = n
		}
	}
	in.vStride = ((vLen+segElems-1)/segElems + 1) * segElems
	in.uStride = ((uLen+segElems-1)/segElems + 1) * segElems
	in.RegRowPtr = run.Alloc(8, int64(len(a.RowPtr)))
	in.RegColIdx = run.Alloc(4, int64(len(a.ColIdx)))
	in.RegVal = run.Alloc(8, int64(len(a.Val)))
	in.RegV = run.Alloc(8, in.vStride*int64(len(vs)))
	in.RegU = run.Alloc(8, in.uStride*int64(len(us)))
	in.RegBin = run.Alloc(4, int64(a.Rows)+1)
	run.SetVectors(len(vs))
}

// NewBatchInput allocates simulated regions for a fused B-vector launch.
func NewBatchInput(run *hsa.Run, a *sparse.CSR, vs, us [][]float64) *Input {
	in := new(Input)
	in.bindBatch(run, a, vs, us)
	return in
}

// AcquireBatchInput is NewBatchInput backed by the input pool; Release it
// once the kernel returned, exactly like AcquireInput.
func AcquireBatchInput(run *hsa.Run, a *sparse.CSR, vs, us [][]float64) *Input {
	in := inputPool.Get().(*Input)
	in.bindBatch(run, a, vs, us)
	return in
}

// Batch returns the number of right-hand sides bound to the input (1 for a
// single-vector bind).
func (in *Input) Batch() int {
	if len(in.Vs) > 0 {
		return len(in.Vs)
	}
	return 1
}

// RunBatch implements Kernel for Kernel-Serial.
func (s Serial) RunBatch(run *hsa.Run, in *Input, groups []binning.Group) {
	if in.Batch() <= 1 {
		s.Run(run, in, groups)
		return
	}
	runSerialBatch(run, in, groups, run.Config().MaxWorkGroupSize)
}

// BatchPipeFloor implements BatchPipeFloorer. Per lock-step iteration the
// wavefront holding the longest row gathers column indices and values once
// for the whole batch (two transactions, at least cache hits), then per
// vector gathers v and multiply-accumulates, plus one bookkeeping ALU op —
// (2+B) hits and (B+1) ALU instructions per iteration, reducing to the
// single-vector floor at B=1.
func (s Serial) BatchPipeFloor(cfg hsa.Config, maxRowLen, vectors int) float64 {
	if vectors <= 1 {
		return s.PipeFloor(cfg, maxRowLen)
	}
	if maxRowLen <= 0 {
		return 0
	}
	return float64(maxRowLen) *
		(float64(2+vectors)*cfg.TxHitCycles + float64(vectors+1)*cfg.ALUCycles)
}

// RunBatch implements Kernel for Kernel-SubvectorX / Kernel-Vector.
func (s Subvector) RunBatch(run *hsa.Run, in *Input, groups []binning.Group) {
	if in.Batch() <= 1 {
		s.Run(run, in, groups)
		return
	}
	cfg := run.Config()
	x := s.clampX(cfg)
	factor := s.factor()
	runSubvectorBatch(run, in, groups, x, cfg.MaxWorkGroupSize/x, factor,
		factor*x, cfg.MaxWorkGroupSize, false)
}

// BatchPipeFloor implements BatchPipeFloorer. The staged scheme repeats its
// entire per-round LDS/barrier/reduction sequence once per vector (only the
// matrix-chunk gathers amortize, and those are excluded from the
// single-vector floor already), so the batch floor is exactly B times it.
func (s Subvector) BatchPipeFloor(cfg hsa.Config, maxRowLen, vectors int) float64 {
	if vectors <= 1 {
		return s.PipeFloor(cfg, maxRowLen)
	}
	return float64(vectors) * s.PipeFloor(cfg, maxRowLen)
}

// RunBatch implements Kernel for synthesized points, routing to the
// batch walker of the same family Run would pick.
func (s Synth) RunBatch(run *hsa.Run, in *Input, groups []binning.Group) {
	if in.Batch() <= 1 {
		s.Run(run, in, groups)
		return
	}
	cfg := run.Config()
	g := s.geom(cfg)
	if g.x == 1 {
		runSerialBatch(run, in, groups, g.rowsPerWG)
		return
	}
	if s.wavefront(cfg, g) {
		s.runWavefrontBatch(run, in, groups, g)
		return
	}
	runSubvectorBatch(run, in, groups, g.x, g.rowsPerWG, g.factor, g.chunk,
		g.wgSize, s.P.Reduction == ReduceSequential)
}

// BatchPipeFloor implements BatchPipeFloorer: the serial walk amortizes its
// structure gathers (Serial's batch floor shape), the staged and wavefront
// schemes repeat their per-vector floors B times.
func (s Synth) BatchPipeFloor(cfg hsa.Config, maxRowLen, vectors int) float64 {
	if vectors <= 1 || maxRowLen <= 0 {
		return s.PipeFloor(cfg, maxRowLen)
	}
	if s.geom(cfg).x == 1 {
		return float64(maxRowLen) *
			(float64(2+vectors)*cfg.TxHitCycles + float64(vectors+1)*cfg.ALUCycles)
	}
	return float64(vectors) * s.PipeFloor(cfg, maxRowLen)
}

// runSerialBatch is the fused lock-step serial walk: iteration t of the
// wavefront loads element rowStart+t's column index and value once, then
// applies them to every vector. Accumulation per (vector, row) is
// k-ascending, exactly like Serial.Run.
func runSerialBatch(run *hsa.Run, in *Input, groups []binning.Group, rowsPerWG int) {
	cfg := run.Config()
	wfSize := cfg.WavefrontSize
	nb := len(in.Vs)

	it := rowIter{groups: groups}
	sc := acquireScratch()
	defer releaseScratch(sc)
	wgRows := sc.rowBuf(rowsPerWG)
	addrs := sc.addrBuf(wfSize)
	vAddrs := sc.vAddrBuf(wfSize)
	sums := sc.sumBuf(wfSize * nb)

	a := in.A
	for {
		wgRows = it.take(wgRows[:0:cap(wgRows)])
		if len(wgRows) == 0 {
			break
		}
		g := run.BeginWG()
		for lo := 0; lo < len(wgRows); lo += wfSize {
			hi := lo + wfSize
			if hi > len(wgRows) {
				hi = len(wgRows)
			}
			rows := wgRows[lo:hi]
			acc := g.WF()

			// Bin entries and row pointers load once for the whole batch.
			addrs = addrs[:0]
			for _, r := range rows {
				addrs = append(addrs, int64(r))
			}
			acc.Gather(in.RegBin, addrs)
			acc.Gather(in.RegRowPtr, addrs)
			for i := range addrs {
				addrs[i]++
			}
			acc.Gather(in.RegRowPtr, addrs)
			acc.ALU(2) // rowStart/rowEnd setup

			maxLen := 0
			for i, r := range rows {
				for b := 0; b < nb; b++ {
					sums[b*wfSize+i] = 0
				}
				if l := a.RowLen(int(r)); l > maxLen {
					maxLen = l
				}
			}
			for t := 0; t < maxLen; t++ {
				addrs = addrs[:0]
				vAddrs = vAddrs[:0]
				for i, r := range rows {
					lo := a.RowPtr[r]
					if int64(t) >= a.RowPtr[r+1]-lo {
						continue
					}
					k := lo + int64(t)
					addrs = append(addrs, k)
					c := a.ColIdx[k]
					vAddrs = append(vAddrs, int64(c))
					for b := 0; b < nb; b++ {
						sums[b*wfSize+i] += a.Val[k] * in.Vs[b][c]
					}
				}
				// The matrix element streams once; each vector pays its own
				// v gather and multiply-accumulate.
				acc.Gather(in.RegColIdx, addrs)
				acc.Gather(in.RegVal, addrs)
				for b := 0; b < nb; b++ {
					if b > 0 {
						for i := range vAddrs {
							vAddrs[i] += in.vStride
						}
					}
					acc.Gather(in.RegV, vAddrs)
					acc.ALU(1) // multiply-accumulate for this vector
				}
				acc.ALU(1) // loop bookkeeping
			}

			// Scatter the results to each vector's u slab.
			for b := 0; b < nb; b++ {
				addrs = addrs[:0]
				for i, r := range rows {
					in.Us[b][r] = sums[b*wfSize+i]
					addrs = append(addrs, int64(r)+int64(b)*in.uStride)
				}
				acc.Gather(in.RegU, addrs)
			}
		}
		g.End()
	}
}

// runWavefrontBatch is the fused wavefront-synchronous scheme: per step the
// matrix chunk gathers once, then every vector gathers its v entries and
// multiply-accumulates into its own private partials; the log2(x) cross-lane
// combine repeats per vector.
func (s Synth) runWavefrontBatch(run *hsa.Run, in *Input, groups []binning.Group, geo synthGeom) {
	cfg := run.Config()
	wfSize := cfg.WavefrontSize
	x := geo.x
	nWF := (geo.wgSize + wfSize - 1) / wfSize
	nb := len(in.Vs)

	a := in.A
	it := rowIter{groups: groups}
	sc := acquireScratch()
	defer releaseScratch(sc)
	rows := sc.rowBuf(geo.rowsPerWG)
	addrs := sc.addrBuf(wfSize)
	vAddrs := sc.vAddrBuf(wfSize)
	combineSteps := log2ceil(x)

	for {
		rows = it.take(rows[:0:cap(rows)])
		if len(rows) == 0 {
			break
		}
		for b := 0; b < nb; b++ {
			for _, r := range rows {
				in.Us[b][r] = dotRow(a, in.Vs[b], r)
			}
		}

		g := run.BeginWG()
		for wf := 0; wf < nWF; wf++ {
			gidLo := wf * wfSize
			slotLo := gidLo / x
			acc := g.WF()
			if slotLo >= len(rows) {
				acc.ALU(2)
				continue
			}
			slotHi := (gidLo + wfSize - 1) / x
			if slotHi >= len(rows) {
				slotHi = len(rows) - 1
			}

			addrs = addrs[:0]
			for slot := slotLo; slot <= slotHi; slot++ {
				addrs = append(addrs, int64(rows[slot]))
			}
			acc.Gather(in.RegBin, addrs)
			acc.Gather(in.RegRowPtr, addrs)
			for i := range addrs {
				addrs[i]++
			}
			acc.Gather(in.RegRowPtr, addrs)
			acc.ALU(2)

			maxSteps := 0
			for slot := slotLo; slot <= slotHi; slot++ {
				l := a.RowLen(int(rows[slot]))
				if st := (l + x - 1) / x; st > maxSteps {
					maxSteps = st
				}
			}

			for t := 0; t < maxSteps; t++ {
				addrs = addrs[:0]
				vAddrs = vAddrs[:0]
				for gid := gidLo; gid < gidLo+wfSize; gid++ {
					slot := gid / x
					if slot >= len(rows) {
						continue
					}
					lane := gid % x
					r := rows[slot]
					e := a.RowPtr[r] + int64(t*x+lane)
					if e < a.RowPtr[r+1] {
						addrs = append(addrs, e)
						vAddrs = append(vAddrs, int64(a.ColIdx[e]))
					}
				}
				if len(addrs) > 0 {
					acc.Gather(in.RegColIdx, addrs)
					acc.Gather(in.RegVal, addrs)
					for b := 0; b < nb; b++ {
						if b > 0 {
							for i := range vAddrs {
								vAddrs[i] += in.vStride
							}
						}
						acc.Gather(in.RegV, vAddrs)
						acc.ALU(1) // multiply-accumulate into vector b's partial
					}
				}
			}

			// One cross-lane combine per vector.
			acc.ALU(nb * combineSteps)

			for b := 0; b < nb; b++ {
				addrs = addrs[:0]
				for slot := slotLo; slot <= slotHi; slot++ {
					gid0 := slot * x
					if gid0 >= gidLo && gid0 < gidLo+wfSize {
						addrs = append(addrs, int64(rows[slot])+int64(b)*in.uStride)
					}
				}
				acc.Gather(in.RegU, addrs)
			}
		}
		g.End()
	}
}

// runSubvectorBatch is the fused LDS-staged scheme: vector 0's staging pass
// streams the round's matrix chunk from global memory, later vectors reuse
// the register-resident copy and reuse the same LDS buffer for their own
// products (no extra LDS budget), so each vector repeats the stage/barrier/
// reduce sequence while the structure traffic is paid once.
func runSubvectorBatch(run *hsa.Run, in *Input, groups []binning.Group,
	x, rowsPerWG, factor, chunk, wgSize int, seq bool) {
	cfg := run.Config()
	wfSize := cfg.WavefrontSize
	nWF := (wgSize + wfSize - 1) / wfSize
	nb := len(in.Vs)

	a := in.A
	it := rowIter{groups: groups}
	sc := acquireScratch()
	defer releaseScratch(sc)
	rows := sc.rowBuf(rowsPerWG)
	addrs := sc.addrBuf(wfSize)
	vAddrs := sc.vAddrBuf(wfSize)
	redSteps := log2ceil(chunk)
	redConflicts := reductionConflicts(redSteps)

	for {
		rows = it.take(rows[:0:cap(rows)])
		if len(rows) == 0 {
			break
		}
		for b := 0; b < nb; b++ {
			for _, r := range rows {
				in.Us[b][r] = dotRow(a, in.Vs[b], r)
			}
		}

		g := run.BeginWG()
		for wf := 0; wf < nWF; wf++ {
			gidLo := wf * wfSize
			slotLo := gidLo / x
			acc := g.WF()
			if slotLo >= len(rows) {
				acc.ALU(2)
				continue
			}
			slotHi := (gidLo + wfSize - 1) / x
			if slotHi >= len(rows) {
				slotHi = len(rows) - 1
			}

			addrs = addrs[:0]
			for slot := slotLo; slot <= slotHi; slot++ {
				addrs = append(addrs, int64(rows[slot]))
			}
			acc.Gather(in.RegBin, addrs)
			acc.Gather(in.RegRowPtr, addrs)
			for i := range addrs {
				addrs[i]++
			}
			acc.Gather(in.RegRowPtr, addrs)
			acc.ALU(2)

			maxRounds := 0
			for slot := slotLo; slot <= slotHi; slot++ {
				l := a.RowLen(int(rows[slot]))
				if r := (l + chunk - 1) / chunk; r > maxRounds {
					maxRounds = r
				}
			}

			for round := 0; round < maxRounds; round++ {
				for b := 0; b < nb; b++ {
					for t := 0; t < factor; t++ {
						addrs = addrs[:0]
						vAddrs = vAddrs[:0]
						for gid := gidLo; gid < gidLo+wfSize; gid++ {
							slot := gid / x
							if slot >= len(rows) {
								continue
							}
							lane := gid % x
							r := rows[slot]
							e := a.RowPtr[r] + int64(round*chunk+t*x+lane)
							if e < a.RowPtr[r+1] {
								addrs = append(addrs, e)
								vAddrs = append(vAddrs, int64(a.ColIdx[e])+int64(b)*in.vStride)
							}
						}
						if len(addrs) > 0 {
							if b == 0 {
								acc.Gather(in.RegColIdx, addrs)
								acc.Gather(in.RegVal, addrs)
							}
							acc.Gather(in.RegV, vAddrs)
							acc.ALU(1) // product
						}
						acc.LDSWrite(1) // stage into localMem
					}
					acc.Barrier()
					if seq {
						acc.LDSRead(chunk)
						acc.ALU(chunk)
						acc.ALU(1) // accumulate into sum
						if x > wfSize {
							acc.Barrier()
						}
					} else {
						acc.LDSRead(redSteps)
						acc.LDSWrite(redSteps)
						acc.BankConflicts(redConflicts)
						acc.ALU(redSteps)
						acc.Barrier()
						acc.ALU(1) // first lane accumulates into sum
					}
				}
			}

			for b := 0; b < nb; b++ {
				addrs = addrs[:0]
				for slot := slotLo; slot <= slotHi; slot++ {
					gid0 := slot * x
					if gid0 >= gidLo && gid0 < gidLo+wfSize {
						addrs = append(addrs, int64(rows[slot])+int64(b)*in.uStride)
					}
				}
				acc.Gather(in.RegU, addrs)
			}
		}
		g.End()
	}
}

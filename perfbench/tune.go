package main

import (
	"fmt"
	"math/rand"
	"time"

	"spmvtune/internal/binning"
	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
	"spmvtune/internal/sparse"
)

const tuneRows = 384 // rows of a corpus matrix before family scaling

// corpusFamily is one stratum of the training corpus: a matgen generator at
// fixed size parameters, fed a seeded generator seed.
type corpusFamily struct {
	name string
	gen  func(seed int64) *sparse.CSR
}

// corpusFamilies mirrors matgen.Corpus — the same generator families in
// the same proportions (banded and bipartite twice), each at the middle of
// the parameter range Corpus draws from. Corpus draws family and size at
// random, so its search cost varies several-fold from seed to seed; fixing
// them leaves the seed to the matrices' structure, and a round's work
// nearly constant.
var corpusFamilies = []corpusFamily{
	{"banded", func(s int64) *sparse.CSR { return matgen.Banded(tuneRows, 9, s) }},
	{"banded", func(s int64) *sparse.CSR { return matgen.Banded(tuneRows, 5, s) }},
	{"road", func(s int64) *sparse.CSR { return matgen.RoadNetwork(tuneRows, s) }},
	{"bipartite", func(s int64) *sparse.CSR { return matgen.Bipartite(tuneRows, tuneRows/2, 3, s) }},
	{"bipartite", func(s int64) *sparse.CSR { return matgen.Bipartite(tuneRows, tuneRows/3, 5, s) }},
	{"powerlaw", func(s int64) *sparse.CSR { return matgen.PowerLaw(tuneRows, 5, 2.1, 512, s) }},
	{"uniform", func(s int64) *sparse.CSR { return matgen.RandomUniform(tuneRows, tuneRows, 4, 28, s) }},
	{"blockfem", func(s int64) *sparse.CSR { return matgen.BlockFEM(tuneRows/2, 70, 17, s) }},
	{"blockfem-long", func(s int64) *sparse.CSR { return matgen.BlockFEM(tuneRows/3, 375, 75, s) }},
	{"mixed", func(s int64) *sparse.CSR { return matgen.Mixed(tuneRows, tuneRows, 64, []int{2, 30, 4}, s) }},
}

// heldOutFamilies are the regret corpus strata.
var heldOutFamilies = []int{0, 3, 5, 7, 9}

// corpusMatrix is one generated corpus member.
type corpusMatrix struct {
	family string
	a      *sparse.CSR
}

// stratifiedCorpus generates one matrix per listed family stratum (all of
// them when idx is nil), with generator seeds drawn from seed.
func stratifiedCorpus(seed int64, idx []int) []corpusMatrix {
	rng := rand.New(rand.NewSource(seed))
	if idx == nil {
		for i := range corpusFamilies {
			idx = append(idx, i)
		}
	}
	var out []corpusMatrix
	for _, i := range idx {
		f := corpusFamilies[i]
		out = append(out, corpusMatrix{family: f.name, a: f.gen(rng.Int63())})
	}
	return out
}

// tuneRoundStrata is how many copies of the strata one round searches.
const tuneRoundStrata = 2

// tuneWorkload is the offline phase: exhaustive search over a seeded
// corpus with a cold cost cache, C5.0 training on the labels, and regret
// on a held-out corpus from a second seed. No daemon is involved.
type tuneWorkload struct {
	seed      int64
	incumbent *core.Model // the bootstrap model, regret reference
	heldOut   []*sparse.CSR

	regrets    []float64 // per round: geomean predicted/optimal
	incReg     float64
	cache      plancache.CostStats // cost-cache counters summed over the rounds' searches
	bestCycles float64             // modeled cycles of the best plans found, summed
	first      *firstSearch
}

// firstSearch pins the first matrix searched and its result; the run
// searches it again at the end and requires the identical outcome.
type firstSearch struct {
	a   *sparse.CSR
	res core.SearchResult
}

func newTuneWorkload(seed int64) *tuneWorkload {
	return &tuneWorkload{seed: seed}
}

func (w *tuneWorkload) config(cache *plancache.CostCache) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = nproc
	cfg.SearchCache = cache
	return cfg
}

// roundCorpus is round r's seeded training corpus.
func (w *tuneWorkload) roundCorpus(r int) []corpusMatrix {
	var out []corpusMatrix
	for k := 0; k < tuneRoundStrata; k++ {
		out = append(out, stratifiedCorpus(w.seed*1_000_003+int64(r*tuneRoundStrata+k), nil)...)
	}
	return out
}

func (w *tuneWorkload) setup() error {
	w.incumbent = trainBootstrap()
	w.heldOut = w.heldOut[:0]
	for _, cm := range stratifiedCorpus(-w.seed-1, heldOutFamilies) {
		w.heldOut = append(w.heldOut, cm.a)
	}
	return nil
}

func (w *tuneWorkload) prepare(tr *tracer) error {
	cfg := w.config(plancache.NewCostCache(plancache.CostCacheOptions{}))
	w.incReg = core.EvaluateRegret(cfg, w.incumbent, w.heldOut).GeoMean
	return nil
}

func (w *tuneWorkload) drive(ph *phase, deadline time.Time) {
	runRounds(ph, deadline, 1, func(_, r int, _ func()) roundWork { return w.round(ph, r) })
}

// round searches one corpus (one op per matrix), trains on it and
// measures regret, all against a fresh cost cache.
func (w *tuneWorkload) round(ph *phase, r int) roundWork {
	var rw roundWork
	tr := ph.tr
	cache := plancache.NewCostCache(plancache.CostCacheOptions{})
	cfg := w.config(cache)
	td := core.NewTrainingData(cfg)
	for k, cm := range w.roundCorpus(r) {
		op := tr.newOp()
		root := tr.begin(op, 0, "op")
		s := tr.begin(op, root.id(), "core.search")
		t0 := time.Now()
		res := td.AddMatrix(cfg, cm.a)
		lat := time.Since(t0)
		s.end()
		if !(res.Seconds > 0) {
			root.end()
			ph.fail("search of %s matrix %d found no plan", cm.family, k)
			continue
		}
		own := time.Now()
		if w.first == nil {
			w.first = &firstSearch{a: cm.a, res: res}
		}
		w.bestCycles += res.Seconds * cfg.Device.ClockHz
		if tr != nil {
			w.replay(tr, op, root.id(), cfg, cm.a, res)
		}
		root.end()
		sample := opSample{
			class: fmt.Sprintf("%02d-%s", k%len(corpusFamilies), cm.family), ms: ms(lat), spmvs: 1,
			nnz: cm.a.NNZ(), bytes: computedBytes(cm.a, 1), baseMs: newMulVecTimer(cm.a).median(5),
			gflops: 2 * float64(cm.a.NNZ()) / res.Seconds / 1e9,
		}
		sample.excluded = time.Since(own)
		ph.record(sample)
		rw.add(sample)
	}
	st := cache.Stats() // the round's searches only, not the held-out ones
	w.cache.Hits += st.Hits
	w.cache.Misses += st.Misses
	w.cache.Pruned += st.Pruned
	s := tr.begin(tr.newOp(), 0, "c50.train")
	m := core.TrainModel(td, cfg, c50.DefaultOptions())
	s.end()
	s = tr.begin(tr.newOp(), 0, "core.regret")
	reg := core.EvaluateRegret(cfg, m, w.heldOut)
	s.end()
	if !(reg.GeoMean >= 1) || reg.N != len(w.heldOut) {
		ph.checkFailed(fmt.Errorf("round %d: regret %+v on %d held-out matrices", r, reg, len(w.heldOut)))
	}
	w.regrets = append(w.regrets, reg.GeoMean)
	return rw
}

// replay times the layers a search runs on its own, outside the search:
// feature extraction, binning at the chosen U, and the chosen plan on the
// simulator and on the CPU reference.
func (w *tuneWorkload) replay(tr *tracer, op, parent int64, cfg core.Config, a *sparse.CSR, res core.SearchResult) {
	s := tr.begin(op, parent, "features.extract")
	cfg.FeatureVector(a)
	s.end()
	s = tr.begin(op, parent, "binning.bin")
	b := binning.Coarse(a, res.BestU, cfg.MaxBins)
	s.end()
	v := [][]float64{make([]float64, a.Cols)}
	for i := range v[0] {
		v[0][i] = 1
	}
	u := [][]float64{make([]float64, a.Rows)}
	s = tr.begin(op, parent, "hsa.simulate")
	core.SimulateBinned(cfg.Device, a, v[0], u[0], b, res.KernelByBin())
	s.end()
	s = tr.begin(op, parent, "sparse.mulvec")
	a.MulVec(v[0], u[0])
	s.end()
}

// check repeats the first search with a cold cache: the search is
// deterministic, so its result must be identical.
func (w *tuneWorkload) check(ph *phase) error {
	if w.first == nil {
		return fmt.Errorf("no search ran")
	}
	again := core.Search(w.config(plancache.NewCostCache(plancache.CostCacheOptions{})), w.first.a)
	if err := core.CheckSearchEquivalence(w.first.res, again); err != nil {
		return fmt.Errorf("repeated search differs: %w", err)
	}
	fmt.Printf("model_regret %.4f x (median over %d rounds of held-out geomean predicted/optimal; bootstrap model %.4f)\n",
		median(w.regrets), len(w.regrets), w.incReg)
	return nil
}

func (w *tuneWorkload) describe() {
	fmt.Printf("corpus: %d matrices per round (%d strata x %d), held-out %d; incumbent (bootstrap) regret %.4f\n",
		tuneRoundStrata*len(corpusFamilies), len(corpusFamilies), tuneRoundStrata, len(heldOutFamilies), w.incReg)
}

func (w *tuneWorkload) layers(a, b *phase, out map[string]float64) {
	spans := b.tr.snapshot()
	for _, l := range []struct{ span, metric string }{
		{"core.search", "core.search_ms"},
		{"c50.train", "c50.train_ms"},
		{"features.extract", "features.extract_ms"},
		{"binning.bin", "binning.bin_ms"},
		{"hsa.simulate", "hsa.simulate_ms"},
		{"sparse.mulvec", "sparse.mulvec_ms"},
	} {
		out[l.metric], _ = meanMs(spans, l.span)
	}
	ops := float64(a.ops + b.ops)
	out["core.search.cells_simulated"] = float64(w.cache.Misses) / ops
	out["core.search.cells_pruned"] = float64(w.cache.Pruned) / ops
	out["core.search.cost_cache_hit_ratio"] = ratio(float64(w.cache.Hits), float64(w.cache.Hits+w.cache.Misses))
	out["core.model_regret"] = median(w.regrets)
	out["hsa.cycles_per_op"] = w.bestCycles / float64(a.ops+b.ops)
	out["kernels.computed_bytes_per_op"] = a.bytes / float64(a.ops)
}

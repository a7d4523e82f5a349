package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"

	"spmvtune/internal/c50"
	"spmvtune/internal/core"
	"spmvtune/internal/matgen"
	"spmvtune/internal/plancache"
	"spmvtune/internal/server"
)

// Bootstrap-model recipe: spmvd's start-up training without -model, on a
// smaller corpus (spmvd trains on 24 matrices of 256-2048 rows) so that a
// run can set up several times. The corpus seed is fixed, not the workload
// seed: the model is part of the system under test, the workload seed
// drives its traffic.
const (
	bootstrapCorpus  = 12
	bootstrapMinRows = 256
	bootstrapMaxRows = 768
	bootstrapSeed    = 42
)

// trainBootstrap trains the serving model over a private cold search-cost
// cache, so that repeated set-ups in one process each pay the full search.
func trainBootstrap() *core.Model {
	cfg := core.DefaultConfig()
	cfg.SearchCache = plancache.NewCostCache(plancache.CostCacheOptions{})
	mats := matgen.Corpus(matgen.CorpusOptions{
		N: bootstrapCorpus, MinRows: bootstrapMinRows, MaxRows: bootstrapMaxRows, Seed: bootstrapSeed,
	})
	td := core.NewTrainingData(cfg)
	for _, cm := range mats {
		td.AddMatrix(cfg, cm.A)
	}
	return core.TrainModel(td, cfg, c50.DefaultOptions())
}

// daemon is an in-process spmvd: the serving handler driven through
// ServeHTTP, with per-endpoint counts of the requests the benchmark sent so
// they can be matched against the daemon's own spmvd_requests_total.
type daemon struct {
	fw  *core.Framework
	srv *server.Server

	mu   sync.Mutex
	sent map[string]int64 // endpoint label -> requests sent
}

func newDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &daemon{fw: cfg.Framework, srv: srv, sent: map[string]int64{}}, nil
}

// do sends one request through the handler and returns status and body.
// endpoint is the label spmvd counts the route under.
func (d *daemon) do(endpoint, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	d.srv.ServeHTTP(rec, req)
	d.mu.Lock()
	d.sent[endpoint]++
	d.mu.Unlock()
	return rec.Code, rec.Body.Bytes()
}

// sentCounts returns a copy of the per-endpoint request counts.
func (d *daemon) sentCounts() map[string]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int64, len(d.sent))
	for k, v := range d.sent {
		out[k] = v
	}
	return out
}

// doJSON sends a request and decodes a 2xx JSON reply into out.
func (d *daemon) doJSON(endpoint, method, path string, body []byte, want int, out any) error {
	code, blob := d.do(endpoint, method, path, body)
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, code, want, blob)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// upload posts a Matrix Market body and returns the matrix ID.
func (d *daemon) upload(mtx []byte) (string, error) {
	var up struct {
		ID string `json:"id"`
	}
	if err := d.doJSON("matrices", "POST", "/v1/matrices", mtx, http.StatusCreated, &up); err != nil {
		return "", err
	}
	return up.ID, nil
}

// firstPlan makes the daemon tune (or fetch) the matrix's plan.
func (d *daemon) firstPlan(id string) error {
	return d.doJSON("plans", "GET", "/v1/plans/"+id, nil, http.StatusOK, nil)
}

// modeledSeconds returns the modeled device seconds of the matrix's last
// served execution, per right-hand side, from GET /v1/profiles/{id}.
func (d *daemon) modeledSeconds(id string) (float64, error) {
	var pr struct {
		Plan struct {
			Profiles []struct {
				Seconds float64 `json:"seconds"`
				Vectors int     `json:"vectors"`
			} `json:"profiles"`
		} `json:"plan"`
	}
	if err := d.doJSON("profiles", "GET", "/v1/profiles/"+id, nil, http.StatusOK, &pr); err != nil {
		return 0, err
	}
	sec := 0.0
	for _, p := range pr.Plan.Profiles {
		w := p.Vectors
		if w < 1 {
			w = 1
		}
		sec += p.Seconds / float64(w)
	}
	if sec <= 0 {
		return 0, fmt.Errorf("profiles of %s carry no modeled time", id)
	}
	return sec, nil
}

// scrape reads /metrics into a map keyed by the full series name
// (labels included).
func (d *daemon) scrape() (metricSet, error) {
	code, blob := d.do("metrics", "GET", "/metrics", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseExposition(blob)
}

// observe runs fn between two scrapes of /metrics and records the scrapes
// and the requests the benchmark sent on ph, for the phase's checks.
func (d *daemon) observe(ph *phase, fn func()) {
	var err error
	ph.sentStart = d.sentCounts()
	if ph.start, err = d.scrape(); err != nil {
		ph.checkFailed(err)
	}
	fn()
	if ph.end, err = d.scrape(); err != nil {
		ph.checkFailed(err)
	}
	ph.sentEnd = d.sentCounts()
}

// metricSet is one /metrics scrape.
type metricSet map[string]float64

func parseExposition(blob []byte) (metricSet, error) {
	out := metricSet{}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns end minus start for one series.
func (m metricSet) delta(start metricSet, name string) float64 { return m[name] - start[name] }

// requestsSeries is the spmvd_requests_total series of one endpoint.
func requestsSeries(endpoint string) string {
	return fmt.Sprintf("spmvd_requests_total{endpoint=%q}", endpoint)
}

// checkRequestCounts asserts that, for every endpoint the benchmark drove
// between two scrapes, the daemon counted exactly the requests it was
// sent. The closing scrape itself is not yet counted in its own output.
func checkRequestCounts(start, end metricSet, sentStart, sentEnd map[string]int64) error {
	for ep, n := range sentEnd {
		if ep == "metrics" {
			continue
		}
		want := float64(n - sentStart[ep])
		if got := end.delta(start, requestsSeries(ep)); got != want {
			return fmt.Errorf("spmvd_requests_total{endpoint=%q} moved by %v, benchmark sent %v", ep, got, want)
		}
	}
	return nil
}

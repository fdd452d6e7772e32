package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/study"
)

// serveWorkload drives an in-process inipd behind httptest with a closed
// loop of two clients. Each client runs a seeded script of /v1/compare
// requests and waits for every reply before sending the next. The
// script mixes cold first requests for a key, warm repeats of a key the
// client already saw answered, and coalesced pairs where both clients
// send the same uncached key at once. Learned compares stay out: they
// retrain over the whole suite.
type serveWorkload struct {
	name       string
	scale      float64
	benches    []*spec.Benchmark
	plainT     []float64 // paper-unit thresholds of plain requests
	variantT   float64   // threshold of predictor and sampled requests
	predictors []string
	period     uint64
	// steps and coalesced are per client and repetition.
	steps, coalesced int
	warmFrac         float64
	// figures is the suite whose oracle series the traced run renders
	// figures from: serve_mix renders none itself, and the probe keeps
	// study.figures_ms defined.
	figures *suiteWorkload
}

func serveMix() *serveWorkload {
	return &serveWorkload{
		name:       "serve_mix",
		scale:      0.01,
		plainT:     []float64{200, 2000, 20000},
		variantT:   2000,
		predictors: []string{"gshare", "perceptron"},
		period:     16,
		steps:      24,
		coalesced:  3,
		warmFrac:   0.8,
		figures:    suitePaper(),
	}
}

func (w *serveWorkload) suite() []*spec.Benchmark {
	if w.benches != nil {
		return w.benches
	}
	return spec.Suite()
}

// serveKey is one distinct compare request.
type serveKey struct {
	bench   string
	t       float64
	variant string // "plain", "bp" (predictors) or "sp" (sampled)
}

func (k serveKey) String() string { return fmt.Sprintf("%s|t=%g|%s", k.bench, k.t, k.variant) }

func (w *serveWorkload) request(k serveKey) []byte {
	req := map[string]any{"bench": k.bench, "t": k.t}
	switch k.variant {
	case "bp":
		req["predictors"] = w.predictors
	case "sp":
		req["sample_period"] = w.period
	}
	b, _ := json.Marshal(req) // plain map of strings and numbers
	return b
}

// keys lists the request universe in a fixed order.
func (w *serveWorkload) keys() []serveKey {
	var keys []serveKey
	for _, b := range w.suite() {
		for _, t := range w.plainT {
			keys = append(keys, serveKey{b.Name, t, "plain"})
		}
		keys = append(keys, serveKey{b.Name, w.variantT, "bp"}, serveKey{b.Name, w.variantT, "sp"})
	}
	return keys
}

func (w *serveWorkload) config() string {
	ks := w.keys()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return fmt.Sprintf("serve scale=%g predictors=%v period=%d keys=%s", w.scale, w.predictors, w.period, strings.Join(names, ","))
}

// Wire mirrors of the /v1/compare response, built from the serial
// oracle. Field names are the public wire contract.
type wireSummary struct {
	SdBP       float64 `json:"sd_bp"`
	BPMismatch float64 `json:"bp_mismatch"`
	HasRegions bool    `json:"has_regions"`
	SdCP       float64 `json:"sd_cp,omitempty"`
	SdLP       float64 `json:"sd_lp,omitempty"`
	LPMismatch float64 `json:"lp_mismatch,omitempty"`
	Blocks     int     `json:"blocks"`
	Traces     int     `json:"traces,omitempty"`
	Loops      int     `json:"loops,omitempty"`
}

type wirePredictor struct {
	Predictor      string  `json:"predictor"`
	Branches       uint64  `json:"branches"`
	Mispredicts    uint64  `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`
}

type wireSampled struct {
	Summary          wireSummary `json:"summary"`
	ProfilingOps     uint64      `json:"profiling_ops"`
	FullProfilingOps uint64      `json:"full_profiling_ops"`
	CostRatio        float64     `json:"cost_ratio"`
	SdBPDelta        float64     `json:"sd_bp_delta"`
}

type wireCompare struct {
	Bench        string          `json:"bench"`
	Class        string          `json:"class"`
	Scale        float64         `json:"scale"`
	TPaper       float64         `json:"t_paper"`
	TEffective   uint64          `json:"t_effective"`
	Summary      wireSummary     `json:"summary"`
	Train        wireSummary     `json:"train"`
	Predictors   []wirePredictor `json:"predictors,omitempty"`
	SamplePeriod uint64          `json:"sample_period,omitempty"`
	Sampled      *wireSampled    `json:"sampled,omitempty"`
}

func toWire(s metrics.Summary) wireSummary {
	return wireSummary{
		SdBP: s.SdBP, BPMismatch: s.BPMismatch, HasRegions: s.HasRegions,
		SdCP: s.SdCP, SdLP: s.SdLP, LPMismatch: s.LPMismatch,
		Blocks: s.Blocks, Traces: s.Traces, Loops: s.Loops,
	}
}

// expectedBody builds the body inipd must answer for k.
func (w *serveWorkload) expectedBody(sb *serialBench, k serveKey) ([]byte, error) {
	eff := study.EffectiveThreshold(k.t, w.scale)
	full, err := sb.inip(eff, 0)
	if err != nil {
		return nil, err
	}
	resp := wireCompare{
		Bench: sb.b.Name, Class: sb.b.Class.String(), Scale: w.scale,
		TPaper: k.t, TEffective: eff,
		Summary: toWire(full.Summary), Train: toWire(sb.train),
	}
	switch k.variant {
	case "bp":
		for _, p := range sb.preds {
			resp.Predictors = append(resp.Predictors, wirePredictor{p.Predictor, p.Branches, p.Mispredicts, p.MispredictRate()})
		}
	case "sp":
		sp, err := sb.inip(eff, w.period)
		if err != nil {
			return nil, err
		}
		sw := &wireSampled{
			Summary:          toWire(sp.Summary),
			ProfilingOps:     sp.ProfilingOps,
			FullProfilingOps: full.ProfilingOps,
			SdBPDelta:        sp.Summary.SdBP - full.Summary.SdBP,
		}
		if sw.FullProfilingOps > 0 {
			sw.CostRatio = float64(sw.ProfilingOps) / float64(sw.FullProfilingOps)
		}
		resp.SamplePeriod = w.period
		resp.Sampled = sw
	}
	return json.Marshal(resp)
}

func (w *serveWorkload) generate() (*expectedFile, error) {
	exp := &expectedFile{Workload: w.name, Config: w.config(), Bodies: map[string]json.RawMessage{}}
	var mu sync.Mutex
	keys := w.keys()
	err := forEachBench(w.suite(), func(_ int, b *spec.Benchmark) error {
		sb, err := newSerialBench(b, w.scale, w.predictors, nil)
		if err != nil {
			return err
		}
		for _, k := range keys {
			if k.bench != b.Name {
				continue
			}
			body, err := w.expectedBody(sb, k)
			if err != nil {
				return err
			}
			mu.Lock()
			exp.Bodies[k.String()] = body
			mu.Unlock()
		}
		return nil
	})
	return exp, err
}

type step struct {
	kind string // "cold", "warm" or "coalesced"
	key  serveKey
}

// keyDealer deals request keys from successive seeded permutations of
// the key universe, so that over a run every key is executed about
// equally often and the run's mix of cheap and expensive keys does not
// hinge on the seed.
type keyDealer struct {
	keys []serveKey
	rng  *rand.Rand
	perm []int
}

func newKeyDealer(keys []serveKey, rng *rand.Rand) *keyDealer {
	return &keyDealer{keys: keys, rng: rng}
}

// deal returns the next key not in used, and marks it used. The
// universe must hold more keys than one repetition uses.
func (d *keyDealer) deal(used map[serveKey]bool) serveKey {
	for {
		if len(d.perm) == 0 {
			d.perm = d.rng.Perm(len(d.keys))
		}
		k := d.keys[d.perm[0]]
		d.perm = d.perm[1:]
		if !used[k] {
			used[k] = true
			return k
		}
	}
}

// script draws one repetition's two client scripts. Cold keys are
// distinct across clients; the i-th coalesced step of both clients
// names the same key, which neither has requested before; a warm step
// repeats a key the client itself has already seen answered.
func (w *serveWorkload) script(rng *rand.Rand, deal *keyDealer) [2][]step {
	used := map[serveKey]bool{}
	take := func() serveKey { return deal.deal(used) }
	coal := make([]serveKey, w.coalesced)
	for i := range coal {
		coal[i] = take()
	}
	var out [2][]step
	for c := range out {
		at := map[int]bool{}
		for _, p := range rng.Perm(w.steps)[:w.coalesced] {
			at[p] = true
		}
		var seen []serveKey
		ci := 0
		for s := range w.steps {
			var st step
			switch {
			case at[s]:
				st = step{"coalesced", coal[ci]}
				ci++
			case len(seen) > 0 && rng.Float64() < w.warmFrac:
				st = step{"warm", seen[rng.Intn(len(seen))]}
			default:
				st = step{"cold", take()}
			}
			seen = append(seen, st.key)
			out[c] = append(out[c], st)
		}
	}
	return out
}

// daemon is one in-process inipd with a fresh result cache.
type daemon struct {
	srv   *serve.Server
	ts    *httptest.Server
	store *resultcache.Store
	dir   string
}

func startDaemon(scale float64, workDir string, trace *obs.Recorder) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	store, err := resultcache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Config{Scale: scale, Workers: workers(), Cache: store, Trace: trace})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), store: store, dir: dir}
	resp, err := d.ts.Client().Get(d.ts.URL + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	d.ts.Close()
	if err := d.srv.Drain(10 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.RemoveAll(d.dir)
}

// metricsText scrapes /v1/metrics into name → value for unlabeled
// samples.
func (d *daemon) metricsText() (map[string]float64, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// served is one answered request.
type served struct {
	step   step
	status int
	body   []byte
	ms     float64
	leader bool
	blocks uint64
	err    error
}

type serveRep struct {
	wall      float64
	blocks    uint64
	reqs      []served
	attempted int
	failed    int
	firstDiff string
	metrics   map[string]float64
	cacheSize int64
	cache     resultcache.Counters
}

// rep runs one repetition's scripts against a fresh daemon, timed from
// the first request until both clients are done, then checks every body
// against the oracle and every repeat of a key against its first body.
func (w *serveWorkload) rep(exp *expectedFile, scripts [2][]step, workDir string, trace *obs.Recorder) (*serveRep, error) {
	d, err := startDaemon(w.scale, workDir, trace)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := d.ts.Client()
	meet := make([]sync.WaitGroup, w.coalesced)
	for i := range meet {
		meet[i].Add(2)
	}
	var results [2][]served
	var wg sync.WaitGroup
	start := time.Now()
	for c := range scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ci := 0
			for _, st := range scripts[c] {
				if st.kind == "coalesced" {
					meet[ci].Done()
					meet[ci].Wait()
					ci++
				}
				results[c] = append(results[c], post(client, d.ts.URL, st, w.request(st.key)))
			}
		}(c)
	}
	wg.Wait()
	out := &serveRep{wall: time.Since(start).Seconds()}
	if trace != nil {
		if out.metrics, err = d.metricsText(); err != nil {
			return nil, err
		}
		out.cacheSize = dirSize(d.dir)
		out.cache = d.store.Counters()
	}
	first := map[string][]byte{}
	for _, rs := range results {
		for _, r := range rs {
			out.reqs = append(out.reqs, r)
			out.attempted++
			if r.leader {
				out.blocks += r.blocks
			}
			key := r.step.key.String()
			msg := ""
			switch {
			case r.err != nil:
				msg = r.err.Error()
			case r.status != http.StatusOK:
				msg = fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
			default:
				if d := sameJSON(exp.Bodies[key], r.body); d != "" {
					msg = "body: " + d
				} else if f, ok := first[key]; ok && !bytes.Equal(f, r.body) {
					msg = "body differs from the key's first body in this repetition"
				} else if !ok {
					first[key] = r.body
				}
			}
			if msg != "" {
				out.failed++
				if out.firstDiff == "" {
					out.firstDiff = fmt.Sprintf("%s %s: %s", r.step.kind, key, msg)
				}
			}
		}
	}
	return out, nil
}

func post(client *http.Client, url string, st step, body []byte) served {
	start := time.Now()
	resp, err := client.Post(url+"/v1/compare", "application/json", bytes.NewReader(body))
	if err != nil {
		return served{step: st, err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := served{step: st, status: resp.StatusCode, body: b, err: err, ms: float64(time.Since(start)) / float64(time.Millisecond)}
	r.leader = resp.Header.Get("X-Inipd-Coalesced") == "leader"
	r.blocks, _ = strconv.ParseUint(resp.Header.Get("X-Inipd-Guest-Blocks"), 10, 64)
	return r
}

// setup is the work before the first timed request: decode the oracle
// and bring up a daemon with a fresh cache.
func (w *serveWorkload) setup(o *options) (*expectedFile, *daemon, error) {
	exp, err := loadExpected(o.dir, w.name, w.config())
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(w.scale, o.work, nil)
	return exp, d, err
}

func (w *serveWorkload) measure(o *options) (*report, error) {
	var exp *expectedFile
	setupS, err := timeSetup(func() (func(), error) {
		var d *daemon
		var err error
		exp, d, err = w.setup(o)
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	deal := newKeyDealer(w.keys(), rng)
	r := newReport()
	var walls, bps, all []float64
	byKind := map[string][]float64{}
	rss, err := repeat(o.seconds, minReps, func() (float64, error) {
		rep, err := w.rep(exp, w.script(rng, deal), o.work, nil)
		if err != nil {
			return 0, err
		}
		r.count(rep.attempted, rep.failed, rep.firstDiff)
		walls = append(walls, rep.wall)
		bps = append(bps, float64(rep.blocks)/rep.wall)
		for _, q := range rep.reqs {
			all = append(all, q.ms)
			byKind[q.step.kind] = append(byKind[q.step.kind], q.ms)
		}
		return rep.wall, nil
	})
	if err != nil {
		return nil, err
	}
	r.endToEnd(walls, bps, rss, setupS, all, minReps*2*w.steps)
	for _, kind := range []string{"cold", "warm", "coalesced"} {
		r.note("%s_p50_ms = %.4g ms over %d requests", kind, median(byKind[kind]), len(byKind[kind]))
	}
	r.note("repetitions %d, %d clients in a closed loop, %d requests each per repetition", len(walls), 2, w.steps)
	return r, nil
}

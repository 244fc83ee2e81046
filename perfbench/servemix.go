package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
)

// serve-mix drives an in-process serve.Server over loopback TCP with two
// keep-alive clients in a closed loop. Each client repeats a fixed round of
// requests. The weights are a choice, made after the repository's own load
// generator (cmd/reprod/loadtest: a /solve hot loop on every connection and
// a few verify jobs through the queue); README.md gives the reason for each.
const (
	serveClients  = 2
	serveSolveN   = 8
	serveSolves   = 32 // /solve requests per round
	serveHitEvery = 8  // a cached /verify after every 8th /solve
	serveBatchLen = 16 // runs per /solve/batch sweep, one sweep per round
	// serveSpecs is how many distinct solve and batch requests each client
	// cycles through; references are computed for all of them.
	serveSpecs = 200
	// serveVectors is how many input vectors each row uses, within the
	// handle's snapshot cache of 8.
	serveVectors = 4
	// serveJobDepth is the smallest max_depth of the unique jobs. T1.10 is
	// wait-free and every run ends within a few steps, so a job's report is
	// the same at any depth from here on while its cache key is new.
	serveJobDepth = 32
	// servePoll is how long a client waits between polls of an unfinished
	// job once the rest of its round is sent: the interval
	// cmd/reprod/loadtest polls at.
	servePoll = 20 * time.Millisecond
)

// serveSolveRows are the light rows the /solve and /solve/batch requests use.
var serveSolveRows = []string{"T1.10", "T1.14", "T1.9", "T1.13", "T1.15"}

// serveHitInstances are the explorations the cached /verify requests ask
// for; the cache is filled before measuring.
var serveHitInstances = []serve.VerifyRequest{
	{Row: "T1.9", MaxDepth: 8, Symmetry: true},
	{Row: "T1.12", MaxDepth: 8},
	{Row: "T1.13", MaxDepth: 9, Symmetry: true},
	{Row: "T1.7", MaxDepth: 7},
}

type solveCase struct {
	req serve.SolveRequest
	ref serve.SolveResponse
}

type batchCase struct {
	req  serve.BatchRequest
	refs []serve.SolveResponse
}

type hitCase struct {
	req serve.VerifyRequest
	ref repro.VerifyReport
}

// jobCase is a unique-job input vector; the depth is chosen per request.
type jobCase struct {
	inputs []int
	ref    repro.VerifyReport
}

type serveClient struct {
	http   *http.Client
	solves []solveCase
	// batches are the client's /solve/batch sweeps.
	batches []batchCase
	jobs    []jobCase
	round   int
	waits   int // polls that waited servePoll for an unfinished job
}

type serveMix struct {
	clients  []*serveClient
	hits     []hitCase
	srv      *serve.Server
	httpSrv  *http.Server
	ln       net.Listener
	base     string
	serveErr chan error
	jobSeq   atomic.Int64
	tr       atomic.Pointer[tracer] // the handler wrapper's tracer, nil untraced
}

func newServeMix(seed int64) *serveMix {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e27e))
	w := &serveMix{}
	// Each row gets serveVectors input vectors, permutations of 0..n-1, so
	// the seed moves which process holds which value but not how much work
	// a run does, and every vector fits the handle's snapshot cache.
	vectors := make([][][]int, len(serveSolveRows))
	for r := range vectors {
		for v := 0; v < serveVectors; v++ {
			vectors[r] = append(vectors[r], rng.Perm(serveSolveN))
		}
	}
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{}
		for i := 0; i < serveSpecs; i++ {
			r := i % len(serveSolveRows)
			row := serveSolveRows[r]
			cl.solves = append(cl.solves, solveCase{req: serve.SolveRequest{
				Row: row, Inputs: vectors[r][rng.IntN(serveVectors)], Seed: rng.Int64N(1 << 40),
			}})
			b := serve.BatchRequest{Row: row}
			in := vectors[r][rng.IntN(serveVectors)]
			for k := 0; k < serveBatchLen; k++ {
				b.Runs = append(b.Runs, serve.BatchRun{Inputs: in, Seed: rng.Int64N(1 << 40)})
			}
			cl.batches = append(cl.batches, batchCase{req: b})
		}
		for i := 0; i < 6; i++ {
			cl.jobs = append(cl.jobs, jobCase{inputs: rng.Perm(3)})
		}
		w.clients = append(w.clients, cl)
	}
	for _, h := range serveHitInstances {
		h.Inputs = rng.Perm(3)
		w.hits = append(w.hits, hitCase{req: h})
	}
	return w
}

func (w *serveMix) tailPct() float64 { return 99 }

// setUp starts the server on a loopback port and opens the two client
// connections.
func (w *serveMix) setUp() error {
	srv, err := serve.New(serve.Config{Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv, w.ln, w.base = srv, ln, "http://"+ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.handler(srv.Handler())}
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.httpSrv.Serve(ln) }()
	for _, cl := range w.clients {
		cl.http = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			DialContext: dialNoLinger,
		}}
		resp, err := cl.http.Get(w.base + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	return nil
}

// handler wraps the server's handler with the benchmark's span, when a
// tracer is attached. The request carries the client span it belongs to.
func (w *serveMix) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Op"), 10, 64)
		sp := tr.begin("serve.handler", parent, op)
		h.ServeHTTP(rw, r)
		tr.end(sp)
	})
}

func (w *serveMix) tearDown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Drain(ctx)
	for _, cl := range w.clients {
		cl.http.CloseIdleConnections()
	}
	w.httpSrv.Shutdown(ctx)
	<-w.serveErr
	w.srv = nil
}

// dialNoLinger opens a client connection that is reset when it closes. A
// run sets the server up thousands of times to time set-up; closing every
// connection the usual way would leave thousands of sockets in TIME_WAIT
// and could use up the machine's local ports. The clients close first, so
// the server's side of each connection ends without TIME_WAIT too.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	return c, err
}

// prepare computes every reference in process, on handles of its own, and
// fills the server's result cache with the instances the cached requests
// ask for.
func (w *serveMix) prepare() error {
	ctx := context.Background()
	handles := map[string]*repro.Protocol{}
	handle := func(row string, n int) (*repro.Protocol, error) {
		key := fmt.Sprint(row, n)
		if p := handles[key]; p != nil {
			return p, nil
		}
		p, err := repro.Compile(row, n)
		handles[key] = p
		return p, err
	}
	solve := func(row string, in []int, seed int64) (serve.SolveResponse, error) {
		p, err := handle(row, len(in))
		if err != nil {
			return serve.SolveResponse{}, err
		}
		out, err := p.Solve(ctx, in, repro.Seed(seed))
		if err != nil {
			return serve.SolveResponse{}, err
		}
		return serve.SolveResponse{Value: out.Value, Footprint: out.Footprint, Steps: out.Steps, MaxBits: out.MaxBits}, nil
	}
	verify := func(req serve.VerifyRequest) (repro.VerifyReport, error) {
		p, err := handle(req.Row, len(req.Inputs))
		if err != nil {
			return repro.VerifyReport{}, err
		}
		var opts []repro.VerifyOption
		if req.Symmetry {
			opts = append(opts, repro.WithSymmetry())
		}
		rep, err := p.Verify(ctx, req.Inputs, req.MaxDepth, opts...)
		if err != nil {
			return repro.VerifyReport{}, err
		}
		rep.Mem = repro.VerifyMemStats{}
		return *rep, nil
	}
	var err error
	for _, cl := range w.clients {
		for i := range cl.solves {
			s := &cl.solves[i]
			if s.ref, err = solve(s.req.Row, s.req.Inputs, s.req.Seed); err != nil {
				return err
			}
		}
		for i := range cl.batches {
			b := &cl.batches[i]
			b.refs = b.refs[:0]
			for _, run := range b.req.Runs {
				ref, err := solve(b.req.Row, run.Inputs, run.Seed)
				if err != nil {
					return err
				}
				b.refs = append(b.refs, ref)
			}
		}
		for i := range cl.jobs {
			j := &cl.jobs[i]
			if j.ref, err = verify(serve.VerifyRequest{Row: "T1.10", Inputs: j.inputs, MaxDepth: serveJobDepth}); err != nil {
				return err
			}
		}
	}
	cl := w.clients[0]
	for i := range w.hits {
		h := &w.hits[i]
		if h.ref, err = verify(h.req); err != nil {
			return err
		}
		vr, err := w.postVerify(cl, h.req, nil, 0, 0)
		if err != nil {
			return err
		}
		if vr.Cached {
			return fmt.Errorf("filling the result cache: %s was cached before it was asked for", h.req.Row)
		}
		var m measure
		job := &pendingJob{req: h.req, ref: &h.ref, url: vr.StatusURL}
		for !job.done {
			if err := w.pollJob(cl, job, &m, nil); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		if len(m.problems) > 0 {
			return fmt.Errorf("filling the result cache: %v", m.problems)
		}
	}
	return nil
}

// run starts both clients and waits for them; each runs whole rounds until
// the deadline.
func (w *serveMix) run(deadline time.Time, tr *tracer) (*measure, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	out := make([]*measure, len(w.clients))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for c, cl := range w.clients {
		wg.Add(1)
		go func(c int, cl *serveClient) {
			defer wg.Done()
			out[c], errs[c] = w.clientLoop(cl, deadline, tr)
		}(c, cl)
	}
	wg.Wait()
	m := &measure{}
	waits, rounds := 0, 0
	for c, cl := range w.clients {
		if errs[c] != nil {
			return nil, errs[c]
		}
		m.merge(out[c])
		waits, rounds = waits+cl.waits, rounds+cl.round
	}
	logf("serve-mix: %d rounds so far, %d polls waited %v for an unfinished job", rounds, waits, servePoll)
	return m, nil
}

// clientLoop runs one client's rounds. A round submits one job, sends the
// /solve requests with a cached /verify after every serveHitEvery of them
// and the batch sweep and a poll of the job half-way, then polls the job
// until it has finished, waiting servePoll between polls. Every request is
// one operation and one latency sample.
func (w *serveMix) clientLoop(cl *serveClient, deadline time.Time, tr *tracer) (*measure, error) {
	m := &measure{}
	for {
		r := cl.round
		cl.round++
		var job *pendingJob
		m.op("verify_job", func() (err error) { job, err = w.submitJob(cl, r, m, tr); return err })
		for i := 1; i <= serveSolves; i++ {
			m.op("solve", func() error { return w.solveOp(cl, r*serveSolves+i, m, tr) })
			if i%serveHitEvery == 0 {
				m.op("verify_hit", func() error { return w.hitOp(cl, r*serveSolves/serveHitEvery+i/serveHitEvery, m, tr) })
			}
			if i == serveSolves/2 {
				m.op("batch", func() error { return w.batchOp(cl, r, m, tr) })
				if job != nil {
					m.op("poll", func() error { return w.pollJob(cl, job, m, tr) })
				}
			}
		}
		for polls := 0; job != nil && !job.done; polls++ {
			if polls > 0 {
				cl.waits++
				time.Sleep(servePoll)
			}
			if !m.op("poll", func() error { return w.pollJob(cl, job, m, tr) }) {
				break
			}
		}
		if !time.Now().Before(deadline) {
			return m, nil
		}
	}
}

// op runs one client operation, counting it and timing it on the wall
// clock; it reports whether the operation succeeded.
func (m *measure) op(kind string, fn func() error) bool {
	m.attempted++
	t0 := time.Now()
	if err := fn(); err != nil {
		m.failed++
		m.fail("%s: %v", kind, err)
		return false
	}
	m.sample(time.Since(t0))
	m.ops++
	return true
}

// opSeq numbers client operations for the spans of one request.
var opSeq atomic.Int64

// call performs one HTTP request and decodes a JSON answer into out (nil
// leaves the body to the caller's reader).
func (w *serveMix) call(cl *serveClient, method, path string, body any, tr *tracer, parent, op int64) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("http.request", parent, op)
	if tr != nil {
		req.Header.Set("X-Perfbench-Span", strconv.FormatInt(sp, 10))
		req.Header.Set("X-Perfbench-Op", strconv.FormatInt(op, 10))
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		tr.end(sp)
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	return resp, data, err
}

func (w *serveMix) solveOp(cl *serveClient, i int, m *measure, tr *tracer) error {
	op := opSeq.Add(1)
	sp := tr.begin("client.solve", 0, op)
	defer tr.end(sp)
	c := &cl.solves[i%len(cl.solves)]
	resp, data, err := w.call(cl, "POST", "/solve", c.req, tr, sp, op)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s: %s", resp.Status, data)
	}
	var got serve.SolveResponse
	if err := json.Unmarshal(data, &got); err != nil {
		return err
	}
	if got != c.ref {
		m.fail("/solve %+v: got %+v, in-process Solve %+v", c.req, got, c.ref)
	}
	return nil
}

func (w *serveMix) batchOp(cl *serveClient, i int, m *measure, tr *tracer) error {
	op := opSeq.Add(1)
	sp := tr.begin("client.batch", 0, op)
	defer tr.end(sp)
	c := &cl.batches[i%len(cl.batches)]
	resp, data, err := w.call(cl, "POST", "/solve/batch", c.req, tr, sp, op)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s: %s", resp.Status, data)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	n := 0
	for sc.Scan() {
		var line serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return err
		}
		switch {
		case line.Index != n || line.Error != "" || line.Outcome == nil:
			m.fail("/solve/batch %s line %d: %s", c.req.Row, n, sc.Text())
		case *line.Outcome != c.refs[n]:
			m.fail("/solve/batch %s run %d: got %+v, in-process Solve %+v", c.req.Row, n, *line.Outcome, c.refs[n])
		}
		n++
	}
	if n != len(c.refs) {
		m.fail("/solve/batch %s: %d lines for %d runs", c.req.Row, n, len(c.refs))
	}
	return sc.Err()
}

func (w *serveMix) hitOp(cl *serveClient, i int, m *measure, tr *tracer) error {
	op := opSeq.Add(1)
	sp := tr.begin("client.verify_hit", 0, op)
	defer tr.end(sp)
	h := &w.hits[i%len(w.hits)]
	vr, err := w.postVerify(cl, h.req, tr, sp, op)
	if err != nil {
		return err
	}
	if !vr.Cached || vr.Report == nil {
		return fmt.Errorf("/verify %s: not answered from the result cache", h.req.Row)
	}
	w.checkReport(m, h.req, vr.Report, &h.ref)
	return nil
}

// pendingJob is a submitted verify job the client has not yet seen finish.
type pendingJob struct {
	req  serve.VerifyRequest
	ref  *repro.VerifyReport
	url  string
	op   int64
	done bool
}

// submitJob posts a /verify request with a cache key no earlier request
// had; the server must queue it.
func (w *serveMix) submitJob(cl *serveClient, i int, m *measure, tr *tracer) (*pendingJob, error) {
	op := opSeq.Add(1)
	sp := tr.begin("client.verify_job", 0, op)
	defer tr.end(sp)
	j := &cl.jobs[i%len(cl.jobs)]
	req := serve.VerifyRequest{Row: "T1.10", Inputs: j.inputs, MaxDepth: serveJobDepth + int(w.jobSeq.Add(1))}
	vr, err := w.postVerify(cl, req, tr, sp, op)
	if err != nil {
		return nil, err
	}
	if vr.Cached || vr.StatusURL == "" {
		return nil, fmt.Errorf("/verify %s depth %d: a new key was not queued", req.Row, req.MaxDepth)
	}
	return &pendingJob{req: req, ref: &j.ref, url: vr.StatusURL, op: op}, nil
}

// pollJob reads the job's status once; when the job has finished it checks
// the report and marks the job done.
func (w *serveMix) pollJob(cl *serveClient, job *pendingJob, m *measure, tr *tracer) error {
	sp := tr.begin("client.poll", 0, job.op)
	defer tr.end(sp)
	resp, data, err := w.call(cl, "GET", job.url, nil, tr, sp, job.op)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("poll %s: %s", job.url, resp.Status)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	switch st.State {
	case serve.JobQueued, serve.JobRunning:
		return nil
	case serve.JobDone:
	default:
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	job.done = true
	if st.Report == nil {
		return fmt.Errorf("job %s: no report", st.ID)
	}
	w.checkReport(m, job.req, st.Report, job.ref)
	if tr != nil {
		created, _ := time.Parse(time.RFC3339Nano, st.CreatedAt)
		started, _ := time.Parse(time.RFC3339Nano, st.StartedAt)
		finished, _ := time.Parse(time.RFC3339Nano, st.FinishedAt)
		tr.record("serve.job_queue_wait", created, started, sp, job.op)
		tr.record("serve.job_run", started, finished, sp, job.op)
	}
	return nil
}

// postVerify posts a /verify request and decodes the answer, which is 200
// with a cached report or 202 with a queued job.
func (w *serveMix) postVerify(cl *serveClient, req serve.VerifyRequest, tr *tracer, parent, op int64) (*serve.VerifyResponse, error) {
	resp, data, err := w.call(cl, "POST", "/verify", req, tr, parent, op)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("status %s: %s", resp.Status, data)
	}
	var vr serve.VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		return nil, err
	}
	return &vr, nil
}

// checkReport compares a served report (Mem zeroed by the server's cache or
// not) with the in-process reference.
func (w *serveMix) checkReport(m *measure, req serve.VerifyRequest, rep, ref *repro.VerifyReport) {
	if !sameReport(rep, ref) {
		m.fail("/verify %s %v depth %d: got %+v, in-process Verify %+v", req.Row, req.Inputs, req.MaxDepth, *rep, *ref)
	}
}

// sameReport compares two reports with Mem left out; a nil and an empty
// list are equal (JSON may give either).
func sameReport(a, b *repro.VerifyReport) bool {
	return a.Runs == b.Runs && a.States == b.States && a.Deduped == b.Deduped &&
		a.Truncated == b.Truncated && a.DistinctStates == b.DistinctStates &&
		a.UnderApprox == b.UnderApprox && a.FalseMergeProb == b.FalseMergeProb &&
		slices.Equal(a.DecidedValues, b.DecidedValues) && slices.Equal(a.Violations, b.Violations)
}

// status reads the server's /status counters.
func (w *serveMix) status() (serve.StatusResponse, error) {
	var st serve.StatusResponse
	resp, err := w.clients[0].http.Get(w.base + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

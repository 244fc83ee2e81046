package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// runTraced is the --trace 1 run. It measures the workload untraced and
// traced, for the tracing overhead, and runs the per-layer probes over every
// layer: machine, sim, explore, the repro handle and serve. Every span is
// taken in the benchmark's own code around calls into a layer's exported
// functions. The spans are written to outDir as JSON when the run ends.
func runTraced(name string, w workload, seed int64, dur time.Duration, outDir string) (*result, error) {
	if _, err := timedSetUp(w); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.tearDown()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	warm, err := warmUp(w)
	if err != nil {
		return nil, err
	}
	// Untraced and traced stretches alternate, so drift in the host's speed
	// falls on both sides of the overhead ratio.
	tr := newTracer()
	var serveTrace *serveTraceStats
	m := warm
	var plainRate, tracedRate []float64
	for i := 0; i < 4; i++ {
		p, err := measured(w, dur/8, nil)
		if err != nil {
			return nil, err
		}
		var t *measure
		if sm, ok := w.(*serveMix); ok {
			t, serveTrace, err = sm.tracedRun(dur/8, tr, serveTrace)
		} else {
			t, err = measured(w, dur/8, tr)
		}
		if err != nil {
			return nil, err
		}
		plainRate = append(plainRate, p.opsPerSecond())
		tracedRate = append(tracedRate, t.opsPerSecond())
		m.merge(p)
		m.merge(t)
	}
	res := m.result()
	p := &probes{tr: tr, seed: seed, metrics: map[string]metric{}}
	p.put("trace.slowdown", median(plainRate)/median(tracedRate), "x")
	if serveTrace == nil {
		// The serve layer is measured by a short serve-mix of its own.
		sm := newServeMix(seed)
		if err := sm.setUp(); err != nil {
			return nil, err
		}
		err := sm.prepare()
		if err == nil {
			_, serveTrace, err = sm.tracedRun(dur/8, tr, nil)
		}
		sm.tearDown()
		if err != nil {
			return nil, err
		}
	}
	p.serveMetrics(serveTrace)
	if p.traces, err = solveTraces(seed); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{p.machine, p.sim, p.explore, p.repro} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	if len(p.problems) > 0 {
		for _, pr := range p.problems {
			logf("check failed: %s", pr)
		}
		res.Correct = false
	}
	res.Metrics = p.metrics
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.dump(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans written to %s", path)
	return res, nil
}

// probes measures single layers and collects the per-layer metrics.
type probes struct {
	tr       *tracer
	seed     int64
	traces   []solveTrace
	metrics  map[string]metric
	problems []string
}

func (p *probes) put(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

func (p *probes) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// solveTrace is one recorded solve-table1 run: its row, inputs, schedule
// and instruction trace.
type solveTrace struct {
	row    core.Row
	inputs []int
	seed   int64
	steps  []sim.StepInfo
}

// solveTraces records one run per solve-table1 row with sim.WithTrace, on
// the workload's first inputs and seeds.
func solveTraces(seed int64) ([]solveTrace, error) {
	w := newSolveTable1(seed)
	var out []solveTrace
	for r, sr := range solveRows {
		row, _ := core.RowByID(sr.id, 2)
		in, runSeed := w.inputs[r][0], w.seeds[0][r][0]
		sys, err := row.Build(solveN).NewSystem(in, sim.WithTrace())
		if err != nil {
			return nil, err
		}
		_, err = sys.Run(sim.NewRandom(runSeed), solveBudget)
		steps := sys.Trace()
		sys.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sr.id, err)
		}
		out = append(out, solveTrace{row: row, inputs: in, seed: runSeed, steps: steps})
	}
	return out, nil
}

// machine replays the recorded instruction traces on fresh memories through
// Memory.Apply (and MultiAssign for the multiple-assignment row), checking
// every result against the recorded one on the first replay.
func (p *probes) machine() error {
	sp := p.tr.begin("machine.Memory.Apply", 0, 0)
	defer p.tr.end(sp)
	var total time.Duration
	var applies int64
	for rep := 0; rep < 20; rep++ {
		for _, t := range p.traces {
			pr := t.row.Build(solveN)
			mem := pr.NewMemory()
			t0 := time.Now()
			for i, st := range t.steps {
				if st.Info.Multi != nil {
					if err := mem.MultiAssign(st.Info.Multi); err != nil {
						return fmt.Errorf("%s step %d: %w", t.row.ID, i, err)
					}
					continue
				}
				v, err := mem.Apply(st.Info.Loc, st.Info.Op, st.Info.Args...)
				if err != nil {
					return fmt.Errorf("%s step %d: %w", t.row.ID, i, err)
				}
				if rep == 0 && !machine.EqualValues(v, st.Result) {
					p.fail("machine replay %s step %d: %v gave %v, recorded %v", t.row.ID, i, st.Info, v, st.Result)
				}
			}
			total += time.Since(t0)
			applies += int64(len(t.steps))
		}
	}
	p.put("machine.apply_ns", float64(total.Nanoseconds())/float64(applies), "ns")
	return nil
}

// sim times System.Step over the recorded schedules, whole runs for
// steps/s, and Fork (pooled and cold) and both state keys over the
// configurations the verify workloads explore.
func (p *probes) sim() error {
	var stepTime, runTime time.Duration
	var steps, runSteps int64
	sp := p.tr.begin("sim.System.Step", 0, 0)
	for rep := 0; rep < 10; rep++ {
		for _, t := range p.traces {
			pristine, err := t.row.Build(solveN).NewSystem(t.inputs)
			if err != nil {
				return err
			}
			fk, err := pristine.Fork()
			if err != nil {
				return err
			}
			t0 := time.Now()
			for _, st := range t.steps {
				if _, err := fk.Step(st.PID); err != nil {
					return fmt.Errorf("%s: %w", t.row.ID, err)
				}
			}
			stepTime += time.Since(t0)
			steps += int64(len(t.steps))
			fk.Close()
			fk, err = pristine.Fork()
			if err != nil {
				return err
			}
			t0 = time.Now()
			res, err := fk.Run(sim.NewRandom(t.seed), solveBudget)
			runTime += time.Since(t0)
			fk.Close()
			pristine.Close()
			if err != nil {
				return err
			}
			runSteps += res.Steps
		}
	}
	p.tr.end(sp)
	p.put("sim.step_ns", float64(stepTime.Nanoseconds())/float64(steps), "ns")
	p.put("sim.steps_per_s", float64(runSteps)/runTime.Seconds(), "1/s")

	symCfgs, err := configurations(newVerifySym(p.seed).inst, true)
	if err != nil {
		return err
	}
	mpCfgs, err := configurations(newVerifyMPQSC(p.seed).inst, false)
	if err != nil {
		return err
	}
	defer closeAll(symCfgs)
	defer closeAll(mpCfgs)
	all := append(append([]*sim.System(nil), symCfgs...), mpCfgs...)
	pool := new(sim.Pool)
	for _, c := range all {
		c.SetPool(pool)
	}
	p.put("sim.fork_ns", p.perCall("sim.System.Fork.pooled", all, func(c *sim.System) error {
		f, err := c.Fork()
		if err == nil {
			f.Close()
		}
		return err
	}), "ns")
	for _, c := range all {
		c.SetPool(nil)
	}
	p.put("sim.fork_cold_ns", p.perCall("sim.System.Fork.cold", all, func(c *sim.System) error {
		f, err := c.Fork()
		if err == nil {
			f.Close()
		}
		return err
	}), "ns")
	var sc sim.SymScratch
	var buf []byte
	p.put("sim.symkey_ns", p.perCall("sim.System.AppendSymStateKey", symCfgs, func(c *sim.System) error {
		var ok bool
		if buf, ok = c.AppendSymStateKey(buf[:0], &sc); !ok {
			return fmt.Errorf("no symmetric key")
		}
		return nil
	}), "ns")
	p.put("sim.statekey_ns", p.perCall("sim.System.AppendStateKey", mpCfgs, func(c *sim.System) error {
		var ok bool
		if buf, ok = c.AppendStateKey(buf[:0]); !ok {
			return fmt.Errorf("no state key")
		}
		return nil
	}), "ns")
	return nil
}

// perCall times fn over every configuration, repeated until about 100 ms
// have passed, and returns the mean nanoseconds per call. Errors are
// recorded as failed checks.
func (p *probes) perCall(name string, cfgs []*sim.System, fn func(*sim.System) error) float64 {
	sp := p.tr.begin(name, 0, 0)
	defer p.tr.end(sp)
	var calls int64
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for _, c := range cfgs {
			if err := fn(c); err != nil {
				p.fail("%s: %v", name, err)
				return 0
			}
		}
		calls += int64(len(cfgs))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// configurations collects, breadth first, up to cfgsPerInstance
// configurations of each instance (keyed with or without symmetry).
const cfgsPerInstance = 500

func configurations(insts []verifyInstance, sym bool) ([]*sim.System, error) {
	var out []*sim.System
	for _, in := range insts {
		root, err := in.root()
		if err != nil {
			closeAll(out)
			return nil, err
		}
		seen := map[string]bool{}
		var sc sim.SymScratch
		key := func(s *sim.System) string {
			if sym {
				k, _ := s.AppendSymStateKey(nil, &sc)
				return string(k)
			}
			k, _ := s.AppendStateKey(nil)
			return string(k)
		}
		seen[key(root)] = true
		level := []*sim.System{root}
		got := []*sim.System{root}
		var live []int
		for len(level) > 0 && len(got) < cfgsPerInstance {
			var next []*sim.System
			for _, s := range level {
				live = s.AppendLive(live[:0])
				for _, pid := range live {
					if len(got) >= cfgsPerInstance {
						break
					}
					c, err := s.Fork()
					if err != nil {
						closeAll(append(out, got...))
						return nil, err
					}
					if _, err := c.Step(pid); err != nil {
						c.Close()
						closeAll(append(out, got...))
						return nil, err
					}
					if k := key(c); !seen[k] {
						seen[k] = true
						next = append(next, c)
						got = append(got, c)
					} else {
						c.Close()
					}
				}
			}
			level = next
		}
		out = append(out, got...)
	}
	return out, nil
}

func closeAll(ss []*sim.System) {
	for _, s := range ss {
		s.Close()
	}
}

// explore runs each verify workload's instances as the workload does and
// reads the explorer's counters, sim.ForkTally, and the parallel speed-up.
func (p *probes) explore() error {
	ctx := context.Background()
	for _, vw := range []struct {
		name string
		w    *verifyWorkload
	}{{"verify-sym", newVerifySym(p.seed)}, {"verify-mpqsc-par", newVerifyMPQSC(p.seed)}} {
		if err := vw.w.setUp(); err != nil {
			return err
		}
		opts := vw.w.options(vw.w.sym, vw.w.workers)
		var states, deduped, distinct, tableBytes, forks, verifies int64
		var wall time.Duration
		for rep := 0; rep < 3; rep++ {
			for i, in := range vw.w.inst {
				sp := p.tr.begin("explore.Verify."+vw.name, 0, int64(i))
				f0, t0 := sim.ForkTally(), time.Now()
				vr, err := vw.w.handles[i].Verify(ctx, in.inputs, in.depth, opts...)
				wall += time.Since(t0)
				forks += sim.ForkTally() - f0
				p.tr.end(sp)
				if err != nil {
					return err
				}
				if len(vr.Violations) > 0 {
					p.fail("%v: violations %v", in, vr.Violations)
				}
				verifies++
				states += vr.States
				deduped += vr.Deduped
				distinct += vr.DistinctStates
				tableBytes += vr.Mem.TableBytes
			}
		}
		p.put("sim.forks_per_state."+vw.name, float64(forks)/float64(states), "count")
		p.put("explore.states_per_s."+vw.name, float64(states)/wall.Seconds(), "1/s")
		p.put("explore.states_per_verify."+vw.name, float64(states)/float64(verifies), "count")
		p.put("explore.dedup_ratio."+vw.name, float64(deduped)/float64(states), "ratio")
		p.put("explore.table_bytes_per_state."+vw.name, float64(tableBytes)/float64(distinct), "B")
		vw.w.tearDown()
	}
	// Parallel speed-up on MP.QSC: 1 worker against 2, alternating.
	w := newVerifyMPQSC(p.seed)
	if err := w.setUp(); err != nil {
		return err
	}
	in := w.inst[0]
	var one, two []float64
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{1, 2} {
			sp := p.tr.begin(fmt.Sprintf("explore.Verify.workers%d", workers), 0, int64(rep))
			t0 := time.Now()
			_, err := w.handles[0].Verify(ctx, in.inputs, in.depth, repro.Workers(workers))
			d := ms(time.Since(t0))
			p.tr.end(sp)
			if err != nil {
				return err
			}
			if workers == 1 {
				one = append(one, d)
			} else {
				two = append(two, d)
			}
		}
	}
	p.put("explore.par_wall_1w_ms", median(one), "ms")
	p.put("explore.par_wall_2w_ms", median(two), "ms")
	p.put("explore.par_speedup", median(one)/median(two), "x")
	return nil
}

// repro times Compile, Solve per row, and Solve against a direct simulator
// run of the same seed forked from a pooled snapshot of its own.
func (p *probes) repro() error {
	ctx := context.Background()
	w := newSolveTable1(p.seed)
	var compile time.Duration
	var compiles int64
	sp := p.tr.begin("repro.Compile", 0, 0)
	for rep := 0; rep < 5; rep++ {
		for _, sr := range solveRows {
			t0 := time.Now()
			if _, err := repro.Compile(sr.id, solveN); err != nil {
				return err
			}
			compile += time.Since(t0)
			compiles++
		}
	}
	p.tr.end(sp)
	p.put("repro.compile_us", float64(compile.Microseconds())/float64(compiles), "us")
	var overheads []float64
	for r, sr := range solveRows {
		h, err := repro.Compile(sr.id, solveN)
		if err != nil {
			return err
		}
		in := w.inputs[r][0]
		row, _ := core.RowByID(sr.id, 2)
		snap, err := row.Build(solveN).NewSystem(in)
		if err != nil {
			return err
		}
		pool := new(sim.Pool)
		snap.SetPool(pool)
		if _, err := h.Solve(ctx, in, repro.Seed(1)); err != nil {
			return err
		}
		var solveT, directT time.Duration
		var runs int64
		sp := p.tr.begin("repro.Solve."+sr.id, 0, int64(r))
		for t := time.Now(); time.Since(t) < 60*time.Millisecond; {
			for _, seed := range w.seeds[0][r] {
				t0 := time.Now()
				out, err := h.Solve(ctx, in, repro.Seed(seed))
				solveT += time.Since(t0)
				if err != nil {
					return err
				}
				t0 = time.Now()
				fk, err := snap.Fork()
				if err != nil {
					return err
				}
				res, err := fk.Run(sim.NewRandom(seed), solveBudget)
				fk.Close()
				directT += time.Since(t0)
				if err != nil {
					return err
				}
				if res.Steps != out.Steps {
					p.fail("%s seed %d: Solve took %d steps, direct run %d", sr.id, seed, out.Steps, res.Steps)
				}
				runs++
			}
		}
		p.tr.end(sp)
		snap.Close()
		perSolve := float64(solveT.Nanoseconds()) / float64(runs) / 1e3
		p.put("repro.solve_us."+sr.id, perSolve, "us")
		overheads = append(overheads, perSolve-float64(directT.Nanoseconds())/float64(runs)/1e3)
	}
	p.put("repro.solve_overhead_us", median(overheads), "us")
	return nil
}

// serveTraceStats is what a traced serve-mix stretch read from /status.
type serveTraceStats struct {
	handleHits, handleMisses, resultHits, resultMisses int64
}

// tracedRun runs serve-mix traced and adds the cache counters read around
// it to acc (nil starts a new tally).
func (w *serveMix) tracedRun(dur time.Duration, tr *tracer, acc *serveTraceStats) (*measure, *serveTraceStats, error) {
	before, err := w.status()
	if err != nil {
		return nil, nil, err
	}
	m, err := measured(w, dur, tr)
	if err != nil {
		return nil, nil, err
	}
	after, err := w.status()
	if err != nil {
		return nil, nil, err
	}
	if acc == nil {
		acc = &serveTraceStats{}
	}
	acc.handleHits += after.HandleCache.Hits - before.HandleCache.Hits
	acc.handleMisses += after.HandleCache.Misses - before.HandleCache.Misses
	acc.resultHits += after.ResultCache.Hits - before.ResultCache.Hits
	acc.resultMisses += after.ResultCache.Misses - before.ResultCache.Misses
	return m, acc, nil
}

// serveMetrics turns the serve spans into the serve layer's metrics.
func (p *probes) serveMetrics(st *serveTraceStats) {
	us := func(name string) float64 {
		t := p.tr.total(name)
		return float64(t.Total.Nanoseconds()) / float64(max(t.Count, 1)) / 1e3
	}
	med := func(name string) float64 { return median(p.tr.total(name).durs) }
	p.put("serve.handler_us", us("serve.handler"), "us")
	req := p.tr.total("http.request")
	p.put("serve.transport_us", float64(req.Self.Nanoseconds())/float64(max(req.Count, 1))/1e3, "us")
	p.put("serve.solve_ms", med("client.solve"), "ms")
	p.put("serve.batch_ms", med("client.batch"), "ms")
	p.put("serve.verify_hit_ms", med("client.verify_hit"), "ms")
	p.put("serve.verify_job_ms", med("client.verify_job"), "ms")
	p.put("serve.job_queue_wait_ms", med("serve.job_queue_wait"), "ms")
	p.put("serve.job_run_ms", med("serve.job_run"), "ms")
	p.put("serve.handle_cache_hit_ratio", float64(st.handleHits)/float64(max(st.handleHits+st.handleMisses, 1)), "ratio")
	p.put("serve.result_cache_hit_ratio", float64(st.resultHits)/float64(max(st.resultHits+st.resultMisses, 1)), "ratio")
}

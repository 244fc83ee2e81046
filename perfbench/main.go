// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the repro stack (machine → sim → explore → the repro handle →
// serve) through four closed-loop workloads, checks every output against
// references it recomputes on each run, and prints one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload solve-table1 --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of the workload; --trace 1 runs
// the traced per-layer suite and prints the per-layer metrics. --steady and
// --smoke check the benchmark itself (see README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one closed-loop benchmark workload.
type workload interface {
	// setUp builds the program's own objects (handles, a server); it is what
	// setup_s times. A second call replaces the first set-up.
	setUp() error
	// tearDown releases what setUp built and waits for its goroutines.
	tearDown()
	// prepare recomputes every reference answer the checks compare against.
	prepare() error
	// run drives whole rounds of operations until the deadline has passed,
	// checking each output, and returns what it measured.
	run(deadline time.Time, tr *tracer) (*measure, error)
	// tailPct is the percentile op_tail_ms reports for this workload.
	tailPct() float64
}

// A run times set-ups in batches that each last at least setupBatch and
// start from a collected heap, at least minSetups batches and for at least
// setupTime; setup_s is the median over the batches of the mean set-up time
// in a batch. Collecting first keeps the garbage earlier set-ups left from
// moving the figure; batching keeps a set-up of microseconds from being
// timed only on the cold caches a collection leaves.
const (
	minSetups  = 9
	setupTime  = time.Second
	setupBatch = time.Millisecond
)

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "solve-table1":
		return newSolveTable1(seed), nil
	case "verify-sym":
		return newVerifySym(seed), nil
	case "verify-mpqsc-par":
		return newVerifyMPQSC(seed), nil
	case "serve-mix":
		return newServeMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"solve-table1", "verify-sym", "verify-mpqsc-par", "serve-mix"}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 20, "measured duration of the run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer suite instead of the end-to-end run")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for span dumps")
		steady  = flag.Int("steady", 0, "steadiness mode: run this many seeds per set, two sets, and compare")
		smoke   = flag.Bool("smoke", false, "smoke mode: run every workload briefly and check it")
	)
	flag.Parse()
	if err := checkRepoLayout(); err != nil {
		fatalf("%v", err)
	}
	switch {
	case *steady > 0:
		if err := runSteady(*name, *steady, *seconds); err != nil {
			fatalf("steady: %v", err)
		}
		return
	case *smoke:
		if err := runSmoke(); err != nil {
			fatalf("smoke: %v", err)
		}
		return
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(*name, w, *seed, dur, *outDir)
	} else {
		res, err = runEndToEnd(w, dur)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		logf("peak resident memory %d MiB", ru.Maxrss>>10)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// checkRepoLayout refuses to run outside a repository checkout: the
// benchmark measures the repro module one directory up, and without it
// there is nothing to measure.
func checkRepoLayout() error {
	for _, f := range []string{"go.mod", "repro.go", "internal/sim/system.go"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root (missing %s)", f)
		}
	}
	return nil
}

// logf reports progress on standard error; standard output carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// timedSetUp sets the workload up repeatedly and returns the median time of
// one set-up, leaving the last set-up in place. Tearing down and collecting
// the heap are not timed.
func timedSetUp(w workload) (float64, error) {
	if err := w.setUp(); err != nil {
		return 0, err
	}
	var times []float64
	for begin := time.Now(); len(times) < minSetups || time.Since(begin) < setupTime; {
		runtime.GC()
		var d time.Duration
		n := 0
		for ; d < setupBatch; n++ {
			w.tearDown()
			t0 := time.Now()
			if err := w.setUp(); err != nil {
				return 0, err
			}
			d += time.Since(t0)
		}
		times = append(times, d.Seconds()/float64(n))
	}
	return median(times), nil
}

// runEndToEnd is the untraced run: set up, recompute references, warm up,
// measure, and report the end-to-end metrics.
func runEndToEnd(w workload, dur time.Duration) (*result, error) {
	setup, err := timedSetUp(w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.tearDown()
	t0 := time.Now()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	t1 := time.Now()
	warm, err := warmUp(w)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	m, err := measured(w, dur, nil)
	if err != nil {
		return nil, err
	}
	m.merge(warm)
	logf("set-up %.6fs, references %.2fs, warm-up %.2fs, measured %.2fs (%.3fs stolen per CPU): %d ops, %d latency samples, p90 %.4g p95 %.4g p99 %.4g p99.9 %.4g ms",
		setup, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), m.elapsed.Seconds(), m.stolen.Seconds(), m.ops, len(m.lat),
		percentile(m.lat, 90), percentile(m.lat, 95), percentile(m.lat, 99), percentile(m.lat, 99.9))
	res := m.result()
	res.Metrics = map[string]metric{
		"setup_s":            {setup, "s"},
		"ops_per_s":          {m.opsPerSecond(), "1/s"},
		"op_p50_ms":          {percentile(m.lat, 50), "ms"},
		"op_tail_ms":         {percentile(m.lat, w.tailPct()), "ms"},
		"alloc_bytes_per_op": {m.allocPerOp(), "B"},
	}
	return res, nil
}

// warmUp runs one untimed round, which fills the program's caches before
// measuring. It returns a measure that carries only the round's checks, so
// that merging it into a measured one changes no figure.
func warmUp(w workload) (*measure, error) {
	m, err := w.run(time.Now(), nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warm := &measure{problems: m.problems}
	if m.failed > 0 {
		warm.fail("warm-up: %d operations failed", m.failed)
	}
	return warm, nil
}

// measured runs the workload for dur and records its wall time, the
// machine's stolen time per CPU over the same stretch, and the bytes the
// process allocated.
func measured(w workload, dur time.Duration, tr *tracer) (*measure, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s0, t0 := stolen(), time.Now()
	m, err := w.run(t0.Add(dur), tr)
	if err != nil {
		return nil, err
	}
	m.elapsed, m.stolen = time.Since(t0), (stolen()-s0)/time.Duration(runtime.NumCPU())
	runtime.ReadMemStats(&after)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	return m, nil
}

// The benchmark runs on shared virtual machines, where the hypervisor may
// take the CPUs away from the guest for stretches of milliseconds ("steal"
// in /proc/stat). That time is not the program's, so the throughput leaves
// it out. /proc/stat counts in ticks of 10 ms, too coarse for one latency
// sample, so latencies are plain wall time.

// userHZ is the unit of the /proc/stat counters.
const userHZ = 100

// stolen returns the machine's total stolen CPU time since boot, summed
// over its CPUs; 0 without /proc/stat.
func stolen() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// measure is what one measured stretch of a workload recorded.
type measure struct {
	attempted, failed int64
	ops               int64     // completed operations, the throughput unit
	lat               []float64 // latency samples, ms of wall time
	elapsed           time.Duration
	stolen            time.Duration // stolen time per CPU during elapsed
	allocBytes        uint64
	problems          []string // failed correctness checks
}

// fail records a failed correctness check (at most a few are kept).
func (m *measure) fail(format string, args ...any) {
	if len(m.problems) < 5 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	} else if len(m.problems) == 5 {
		m.problems = append(m.problems, "...")
	}
}

// sample records one latency sample.
func (m *measure) sample(d time.Duration) { m.lat = append(m.lat, ms(d)) }

func (m *measure) merge(o *measure) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.ops += o.ops
	m.lat = append(m.lat, o.lat...)
	for _, p := range o.problems {
		m.fail("%s", p)
	}
}

// opsPerSecond is the completed operations over the measured wall time
// less the time stolen from each CPU.
func (m *measure) opsPerSecond() float64 {
	return float64(m.ops) / (m.elapsed - m.stolen).Seconds()
}

func (m *measure) allocPerOp() float64 { return float64(m.allocBytes) / float64(max(m.ops, 1)) }

// result reports the operation accounting and the correctness verdict,
// printing failed checks to standard error.
func (m *measure) result() *result {
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return &result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed}
}

// percentile returns the p-th percentile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

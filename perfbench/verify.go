package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sim"
)

// verifyInstance is one exploration the verify workloads run.
type verifyInstance struct {
	row    string
	n      int
	depth  int
	inputs []int
	// reorder compiles the message-passing row with reordering delivery.
	reorder bool
}

// symRow is a verify-sym row and its depth. The rows are those whose
// protocols fork natively; depths make each exploration take roughly 3 to
// 20 ms on a 2-core x86 host (T1.10 is wait-free and ends before its bound).
type symRow struct {
	id    string
	depth int
}

var symRows = []symRow{
	{"T1.2", 14}, {"T1.4", 14}, {"T1.7", 13}, {"T1.8", 13}, {"T1.9", 14}, {"T1.10", 12},
	{"T1.11", 13}, {"T1.12", 16}, {"T1.13", 16}, {"T1.14", 16}, {"T1.15", 16},
}

const (
	symN = 3
	// mpqscDepth is the shallowest reorder-delivery envelope in which
	// MP.QSC at n=3 decides when two processes share an input.
	mpqscDepth = 15
	mpqscN     = 3
)

// verifyWorkload runs a fixed list of Verify calls per round. verify-sym
// runs them sequentially with symmetry reduction; verify-mpqsc-par runs
// MP.QSC on the parallel explorer with exact keys.
type verifyWorkload struct {
	inst    []verifyInstance
	sym     bool
	workers int
	tail    float64
	handles []*repro.Protocol
	refs    []walkResult // for the loop's key mode, from the benchmark's own walk
}

func newVerifySym(seed int64) *verifyWorkload {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7a11))
	w := &verifyWorkload{sym: true, tail: 95}
	for _, r := range symRows {
		// A permutation of 0..n-1: every row decides any of the values,
		// and permuted inputs give isomorphic state spaces of equal size.
		w.inst = append(w.inst, verifyInstance{row: r.id, n: symN, depth: r.depth, inputs: rng.Perm(symN)})
	}
	return w
}

func newVerifyMPQSC(seed int64) *verifyWorkload {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9c5c))
	// Two processes share input a, the middle one holds b: a majority
	// exists, so the envelope contains decisions.
	vals := rng.Perm(mpqscN)
	a, b := vals[0], vals[1]
	return &verifyWorkload{
		workers: 2, tail: 80,
		inst: []verifyInstance{{row: "MP.QSC", n: mpqscN, depth: mpqscDepth, inputs: []int{a, b, a}, reorder: true}},
	}
}

func (w *verifyWorkload) tailPct() float64 { return w.tail }

func (in verifyInstance) compile() (*repro.Protocol, error) {
	var opts []repro.CompileOption
	if in.reorder {
		opts = append(opts, repro.WithDelivery(repro.DeliveryReorder, 0))
	}
	return repro.Compile(in.row, in.n, opts...)
}

// root builds the instance's initial configuration directly from the row's
// protocol, bypassing the handle layer.
func (in verifyInstance) root() (*sim.System, error) {
	row, ok := core.RowByID(in.row, 2)
	if !ok {
		return nil, fmt.Errorf("unknown row %s", in.row)
	}
	var opts []sim.SystemOption
	if in.reorder {
		opts = append(opts, sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder}))
	}
	return row.Build(in.n).NewSystem(in.inputs, opts...)
}

func (in verifyInstance) String() string {
	return fmt.Sprintf("%s n=%d inputs=%v depth=%d", in.row, in.n, in.inputs, in.depth)
}

func (w *verifyWorkload) options(sym bool, workers int) []repro.VerifyOption {
	var opts []repro.VerifyOption
	if sym {
		opts = append(opts, repro.WithSymmetry())
	}
	if workers > 0 {
		opts = append(opts, repro.Workers(workers))
	}
	return opts
}

// setUp compiles every instance's handle and builds the pristine
// configuration of its inputs, which every later Verify forks, with a
// Verify one step deep.
func (w *verifyWorkload) setUp() error {
	ctx := context.Background()
	w.handles = w.handles[:0]
	for _, in := range w.inst {
		p, err := in.compile()
		if err != nil {
			return err
		}
		if _, err := p.Verify(ctx, in.inputs, 1); err != nil {
			return fmt.Errorf("%v: %w", in, err)
		}
		w.handles = append(w.handles, p)
	}
	return nil
}

func (w *verifyWorkload) tearDown() { w.handles = nil }

// prepare walks every instance with symmetry on and off and checks a
// sequential Verify of each mode against the walk; the walk in the loop's
// mode is the reference every measured Verify is checked against.
func (w *verifyWorkload) prepare() error {
	ctx := context.Background()
	w.refs = w.refs[:0]
	for i, in := range w.inst {
		for _, sym := range []bool{true, false} {
			root, err := in.root()
			if err != nil {
				return err
			}
			ref, err := reachable(root, in.depth, sym)
			if err != nil {
				return fmt.Errorf("%v walk (symmetry %v): %w", in, sym, err)
			}
			rep, err := w.handles[i].Verify(ctx, in.inputs, in.depth, w.options(sym, 0)...)
			if err != nil {
				return fmt.Errorf("%v: %w", in, err)
			}
			if p := checkReport(rep, ref, in); p != "" {
				return fmt.Errorf("sequential Verify (symmetry %v): %s", sym, p)
			}
			if sym == w.sym {
				w.refs = append(w.refs, ref)
			}
		}
	}
	return nil
}

// checkReport compares a Verify report with the walk's reference.
func checkReport(rep *repro.VerifyReport, ref walkResult, in verifyInstance) string {
	switch {
	case len(rep.Violations) > 0:
		return fmt.Sprintf("%v: violations %v", in, rep.Violations)
	case rep.Truncated || rep.UnderApprox:
		return fmt.Sprintf("%v: truncated=%v underApprox=%v", in, rep.Truncated, rep.UnderApprox)
	case rep.DistinctStates != ref.distinct:
		return fmt.Sprintf("%v: DistinctStates %d, walk found %d", in, rep.DistinctStates, ref.distinct)
	case !slices.Equal(rep.DecidedValues, ref.decided):
		return fmt.Sprintf("%v: DecidedValues %v, walk found %v", in, rep.DecidedValues, ref.decided)
	}
	for _, d := range rep.DecidedValues {
		if !slices.Contains(in.inputs, d) {
			return fmt.Sprintf("%v: decided value %d is not an input", in, d)
		}
	}
	return ""
}

// run drives whole rounds: one Verify of every instance. A latency sample
// is one Verify call.
func (w *verifyWorkload) run(deadline time.Time, tr *tracer) (*measure, error) {
	ctx := context.Background()
	opts := w.options(w.sym, w.workers)
	m := &measure{}
	for {
		for i, in := range w.inst {
			m.attempted++
			sp := tr.begin("repro.Verify", 0, int64(i))
			t0 := time.Now()
			rep, err := w.handles[i].Verify(ctx, in.inputs, in.depth, opts...)
			lat := time.Since(t0)
			tr.end(sp)
			if err != nil {
				m.failed++
				m.fail("%v: %v", in, err)
				continue
			}
			m.ops++
			m.sample(lat)
			if p := checkReport(rep, w.refs[i], in); p != "" {
				m.fail("%s", p)
			}
		}
		if !time.Now().Before(deadline) {
			return m, nil
		}
	}
}

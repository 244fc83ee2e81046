package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sim"
)

// solveN is the process count of the solve-table1 workload.
const solveN = 8

// solveRow is one shared-memory Table 1 row of solve-table1 with its block
// size: the number of consecutive Solve calls one block makes on the row.
// Block sizes are fixed (not tuned at run time) so every round does the
// same operations; they make each row's block take about 4 ms on a 2-core
// x86 host, so each row takes a similar share of a round.
type solveRow struct {
	id    string
	block int
}

var solveRows = []solveRow{
	{"T1.1", 4}, {"T1.2", 2}, {"T1.3", 8}, {"T1.4", 2}, {"T1.5", 2}, {"T1.6", 2},
	{"T1.7", 40}, {"T1.8", 40}, {"T1.9", 100}, {"T1.10", 500}, {"T1.11", 64},
	{"T1.12", 64}, {"T1.13", 100}, {"T1.14", 150}, {"T1.15", 120}, {"T1.MA", 3},
}

const (
	// solveSeedSets is how many distinct rounds of seeds the workload
	// cycles through; references are computed for all of them.
	solveSeedSets = 64
	// solveVectors is how many input vectors each row uses (within the
	// handle's snapshot cache, so runs fork a pristine snapshot).
	solveVectors = 4
	solveBudget  = 50_000_000
)

// solveRef is the reference outcome of one (row, input vector, seed).
type solveRef struct {
	value, footprint, maxBits int
	steps                     int64
}

type solveTable1 struct {
	rng     *rand.Rand
	inputs  [][][]int   // [row][vector] input vectors
	seeds   [][][]int64 // [set][row][block index] schedule seeds
	handles []*repro.Protocol
	refs    [][][]solveRef // [set][row][block index]
	bounds  [][2]int
	round   int
}

func newSolveTable1(seed int64) *solveTable1 {
	w := &solveTable1{rng: rand.New(rand.NewPCG(uint64(seed), 0x501e7ab1e1))}
	w.inputs = make([][][]int, len(solveRows))
	for r, sr := range solveRows {
		row, _ := core.RowByID(sr.id, 2)
		values := row.Build(solveN).Values
		for v := 0; v < solveVectors; v++ {
			// A permutation of one fixed vector, so the seed moves which
			// process holds which input but not how much work a run does.
			in := make([]int, solveN)
			for i, j := range w.rng.Perm(solveN) {
				in[i] = (j*3 + 1) % values
			}
			w.inputs[r] = append(w.inputs[r], in)
		}
	}
	w.seeds = make([][][]int64, solveSeedSets)
	for s := range w.seeds {
		w.seeds[s] = make([][]int64, len(solveRows))
		for r, sr := range solveRows {
			for b := 0; b < sr.block; b++ {
				w.seeds[s][r] = append(w.seeds[s][r], w.rng.Int64())
			}
		}
	}
	return w
}

func (w *solveTable1) tailPct() float64 { return 90 }

// setUp compiles every row's handle and builds the pristine snapshot of
// each input vector that later runs fork. A Solve limited to one step
// builds the snapshot without running a schedule, whose length would
// depend on the inputs; it ends undecided or, on a wait-free row, decided.
func (w *solveTable1) setUp() error {
	ctx := context.Background()
	w.handles = w.handles[:0]
	w.bounds = w.bounds[:0]
	for r, sr := range solveRows {
		p, err := repro.Compile(sr.id, solveN)
		if err != nil {
			return err
		}
		for _, in := range w.inputs[r] {
			if _, err := p.Solve(ctx, in, repro.Seed(1), repro.MaxSteps(1)); err != nil && !errors.Is(err, repro.ErrNoDecision) {
				return fmt.Errorf("%s: %w", sr.id, err)
			}
		}
		lo, up := p.Bounds()
		w.handles = append(w.handles, p)
		w.bounds = append(w.bounds, [2]int{lo, up})
	}
	return nil
}

func (w *solveTable1) tearDown() { w.handles = nil }

// prepare runs every (row, seed) of every seed set directly on the
// simulator — a freshly built system per run, no handle, no snapshot, no
// pool — and checks agreement and validity on each final configuration.
func (w *solveTable1) prepare() error {
	w.refs = make([][][]solveRef, solveSeedSets)
	for s := range w.refs {
		w.refs[s] = make([][]solveRef, len(solveRows))
		for r, sr := range solveRows {
			row, _ := core.RowByID(sr.id, 2)
			for b, seed := range w.seeds[s][r] {
				in := w.inputs[r][b%solveVectors]
				ref, err := directSolve(row, in, seed)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", sr.id, seed, err)
				}
				w.refs[s][r] = append(w.refs[s][r], ref)
			}
		}
	}
	return nil
}

// directSolve runs one seed on a freshly built system and checks the final
// configuration: every process decided, all agree, on an input.
func directSolve(row core.Row, inputs []int, seed int64) (solveRef, error) {
	sys, err := row.Build(len(inputs)).NewSystem(inputs)
	if err != nil {
		return solveRef{}, err
	}
	defer sys.Close()
	res, err := sys.Run(sim.NewRandom(seed), solveBudget)
	if err != nil {
		return solveRef{}, err
	}
	if len(res.Undecided) > 0 {
		return solveRef{}, fmt.Errorf("%d processes undecided after %d steps", len(res.Undecided), res.Steps)
	}
	if err := checkDecisions(decisionList(sys), inputs); err != nil {
		return solveRef{}, err
	}
	v, _ := res.AgreedValue()
	st := sys.Mem().Stats()
	return solveRef{value: v, footprint: st.Footprint(), maxBits: st.MaxBits, steps: st.Steps}, nil
}

// run drives whole rounds; a round is one block on every row, and its seeds
// come from the next seed set in the cycle. A latency sample is one block.
func (w *solveTable1) run(deadline time.Time, tr *tracer) (*measure, error) {
	ctx := context.Background()
	m := &measure{}
	for {
		set := w.round % solveSeedSets
		w.round++
		for r, sr := range solveRows {
			p := w.handles[r]
			blk := tr.begin("solve.block", 0, 0)
			t0 := time.Now()
			for b, seed := range w.seeds[set][r] {
				in := w.inputs[r][b%solveVectors]
				m.attempted++
				sp := tr.begin("repro.Solve", blk, int64(r))
				out, err := p.Solve(ctx, in, repro.Seed(seed))
				tr.end(sp)
				if err != nil {
					m.failed++
					m.fail("%s seed %d: %v", sr.id, seed, err)
					continue
				}
				m.ops++
				w.check(m, r, w.refs[set][r][b], out, seed)
			}
			m.sample(time.Since(t0))
			tr.end(blk)
		}
		if !time.Now().Before(deadline) {
			return m, nil
		}
	}
}

func (w *solveTable1) check(m *measure, r int, ref solveRef, out *repro.Outcome, seed int64) {
	got := solveRef{value: out.Value, footprint: out.Footprint, maxBits: out.MaxBits, steps: out.Steps}
	if got != ref {
		m.fail("%s seed %d: Solve gave %+v, direct run %+v", solveRows[r].id, seed, got, ref)
	}
	lo, up := w.bounds[r][0], w.bounds[r][1]
	if out.Footprint < max(lo, 1) || (up != repro.Unbounded && out.Footprint > up) {
		m.fail("%s seed %d: footprint %d outside the paper's bounds [%d, %d] at n=%d",
			solveRows[r].id, seed, out.Footprint, lo, up, solveN)
	}
}

// decisionList returns the decided values of every process that decided.
func decisionList(sys *sim.System) []int {
	var ds []int
	for pid := 0; pid < sys.N(); pid++ {
		if d, ok := sys.Decided(pid); ok {
			ds = append(ds, d)
		}
	}
	return ds
}

// checkDecisions checks validity (every decision is an input) and agreement
// (all decisions are equal).
func checkDecisions(ds, inputs []int) error {
	for i, d := range ds {
		valid := false
		for _, in := range inputs {
			valid = valid || d == in
		}
		if !valid {
			return fmt.Errorf("validity: decided %d, not an input of %v", d, inputs)
		}
		if d != ds[0] {
			return fmt.Errorf("agreement: decisions %d and %d (decision %d)", ds[0], d, i)
		}
	}
	return nil
}

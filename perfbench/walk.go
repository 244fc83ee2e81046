package main

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// walkResult is what the benchmark's own reachability walk finds: the
// number of distinct canonical configurations within the depth bound and
// the set of values decided in any of them.
type walkResult struct {
	distinct int64
	decided  []int
}

// reachable walks every configuration reachable from root within depth
// scheduler steps, breadth first, keyed by the simulator's exact state key
// or, with sym, its symmetry-reduced key. Breadth first reaches each key at
// its shallowest depth, so the set of keys found is exactly the set of
// canonical configurations within the bound, whatever order the explorer
// visits them in. Every configuration reached is checked for validity and
// agreement. The walk shares no code with the explorer: it forks without a
// pool and keeps its own seen set. root is closed.
func reachable(root *sim.System, depth int, sym bool) (walkResult, error) {
	inputs := root.Inputs()
	seen := make(map[string]struct{})
	decided := make(map[int]struct{})
	var sc sim.SymScratch
	var buf []byte
	// visit records a configuration and reports whether it is new.
	visit := func(s *sim.System) (bool, error) {
		var key []byte
		var ok bool
		if sym {
			key, ok = s.AppendSymStateKey(buf[:0], &sc)
		} else {
			key, ok = s.AppendStateKey(buf[:0])
		}
		buf = key
		if !ok {
			return false, fmt.Errorf("configuration has no state key")
		}
		if _, dup := seen[string(key)]; dup {
			return false, nil
		}
		seen[string(key)] = struct{}{}
		if err := s.Err(); err != nil {
			return false, err
		}
		ds := decisionList(s)
		if err := checkDecisions(ds, inputs); err != nil {
			return false, err
		}
		for _, d := range ds {
			decided[d] = struct{}{}
		}
		return true, nil
	}
	frontier := []*sim.System{root}
	var next []*sim.System
	defer func() {
		for _, s := range append(frontier, next...) {
			if s != nil {
				s.Close()
			}
		}
	}()
	if _, err := visit(root); err != nil {
		return walkResult{}, err
	}
	var live []int
	for d := 0; d < depth && len(frontier) > 0; d++ {
		next = nil
		for i, s := range frontier {
			live = s.AppendLive(live[:0])
			for _, pid := range live {
				c, err := s.Fork()
				if err == nil {
					_, err = c.Step(pid)
				}
				var fresh bool
				if err == nil {
					fresh, err = visit(c)
				}
				if err != nil {
					if c != nil {
						c.Close()
					}
					return walkResult{}, fmt.Errorf("depth %d pid %d: %w", d+1, pid, err)
				}
				if fresh {
					next = append(next, c)
				} else {
					c.Close()
				}
			}
			s.Close()
			frontier[i] = nil
		}
		frontier, next = next, nil
	}
	res := walkResult{distinct: int64(len(seen))}
	for d := range decided {
		res.decided = append(res.decided, d)
	}
	slices.Sort(res.decided)
	return res, nil
}

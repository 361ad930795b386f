package client

import (
	"fmt"
	"strings"
	"testing"
)

// schedActor is one allocator in the exhaustive schedule model: it
// works through script, allocating each size and then freeing what the
// allocation returned, one extent per step.
type schedActor struct {
	script []int
	pc     int       // index of the current request in script
	held   []*extent // extents returned for the current request, FIFO
	placed bool      // the current request's extent is in held
}

// schedState is a ring plus its allocators at one point of a schedule.
type schedState struct {
	r      *ring
	actors []schedActor
}

func (s *schedState) clone() *schedState {
	copies := make(map[*extent]*extent, len(s.r.extents))
	cp := func(e *extent) *extent {
		if c, ok := copies[e]; ok {
			return c
		}
		c := *e
		copies[e] = &c
		return &c
	}
	r := newRing(s.r.size)
	r.head = s.r.head
	for _, e := range s.r.extents {
		r.extents = append(r.extents, cp(e))
	}
	out := &schedState{r: r, actors: make([]schedActor, len(s.actors))}
	for i, a := range s.actors {
		out.actors[i] = schedActor{script: a.script, pc: a.pc, placed: a.placed}
		for _, e := range a.held {
			out.actors[i].held = append(out.actors[i].held, cp(e))
		}
	}
	return out
}

// key renders the state for memoization: two schedules reaching the
// same ring layout with every actor at the same point have the same
// future.
func (s *schedState) key() string {
	// Rings are at most 256 bytes, so every offset and extent size the
	// model produces fits a byte.
	b := make([]byte, 0, 64)
	b = append(b, byte(s.r.head))
	for _, e := range s.r.extents {
		flags := byte(0)
		if e.done {
			flags |= 1
		}
		if e.noop {
			flags |= 2
		}
		b = append(b, byte(e.off), byte(e.size), flags)
	}
	for _, a := range s.actors {
		placed := byte(0)
		if a.placed {
			placed = 1
		}
		b = append(b, 0xff, byte(a.pc), placed)
		for _, e := range a.held {
			b = append(b, byte(e.off))
		}
	}
	return string(b)
}

// step runs one non-blocking step of actor i and reports whether it
// made progress; false means the actor is parked waiting for a free.
func (s *schedState) step(i int) bool {
	a := &s.actors[i]
	if a.pc == len(a.script) {
		return false
	}
	if a.placed {
		// Free the oldest extent this request holds, as the client does:
		// the NOOP once its reply is in, then the request itself.
		s.r.free(a.held[0])
		a.held = a.held[1:]
		if len(a.held) == 0 {
			a.placed = false
			a.pc++
		}
		return true
	}
	s.r.mu.Lock()
	e, noopE, err := s.r.tryAllocLocked(a.script[a.pc])
	s.r.mu.Unlock()
	if err != nil {
		// A request that can never fit fails fast (see
		// TestRingWrapCannotFitErrorsInsteadOfDeadlock); the caller
		// moves on.
		a.pc++
		return true
	}
	if noopE != nil {
		a.held = append(a.held, noopE)
	}
	if e != nil {
		a.held = append(a.held, e)
		a.placed = true
	}
	return e != nil || noopE != nil
}

func describeExtents(es []*extent) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "[%d,%d) done=%v noop=%v ", e.off, e.off+e.size, e.done, e.noop)
	}
	return b.String()
}

func (s *schedState) done() bool {
	for _, a := range s.actors {
		if a.pc < len(a.script) {
			return false
		}
	}
	return true
}

// exploreSchedules walks every interleaving of the actors' steps from s
// and returns a description of the first state in which no actor can
// make progress before all are done — a deadlock — or "" if none.
func exploreSchedules(s *schedState, seen map[string]bool, trace []int) string {
	k := s.key()
	if seen[k] {
		return ""
	}
	seen[k] = true
	if s.done() {
		return ""
	}
	progressed := false
	for i := range s.actors {
		next := s.clone()
		if !next.step(i) {
			continue
		}
		progressed = true
		if msg := exploreSchedules(next, seen, append(trace, i)); msg != "" {
			return msg
		}
	}
	if !progressed {
		return fmt.Sprintf("every actor blocked after schedule %v: head %d, extents %s",
			trace, s.r.head, describeExtents(s.r.extents))
	}
	return ""
}

// TestRingScheduleNoDeadlock model-checks the request ring: for small
// rings, two and three allocators, and a spread of request sizes, it
// explores every interleaving of alloc and free steps and fails on any
// reachable state where every unfinished allocator is blocked. Each
// allocator frees only what it holds, so such a state is a deadlock the
// ring caused — like an allocator waiting on room that its own reserved
// NOOP extent keeps from being reclaimed.
func TestRingScheduleNoDeadlock(t *testing.T) {
	sizes := []int{16, 32, 48, 64, 96}
	explored := 0
	for ringSize := 64; ringSize <= 256; ringSize += 32 {
		var fits []int
		for _, sz := range sizes {
			if sz <= ringSize {
				fits = append(fits, sz)
			}
		}
		// Scripts: each actor allocates two requests. Two actors take
		// every pair of sizes; three actors (a larger space) repeat one
		// size each.
		var pairs, repeats [][]int
		for _, a := range fits {
			repeats = append(repeats, []int{a, a})
			for _, b := range fits {
				pairs = append(pairs, []int{a, b})
			}
		}
		for actors := 2; actors <= 3; actors++ {
			scripts := pairs
			if actors == 3 {
				scripts = repeats
			}
			// Actors are interchangeable, so only non-decreasing index
			// tuples are enumerated.
			idx := make([]int, actors)
			for {
				s := &schedState{r: newRing(ringSize)}
				for _, i := range idx {
					s.actors = append(s.actors, schedActor{script: scripts[i]})
				}
				seen := map[string]bool{}
				if msg := exploreSchedules(s, seen, nil); msg != "" {
					var ss [][]int
					for _, i := range idx {
						ss = append(ss, scripts[i])
					}
					t.Fatalf("ring %d, scripts %v: %s", ringSize, ss, msg)
				}
				explored += len(seen)
				// Next non-decreasing index tuple.
				j := actors - 1
				for j >= 0 && idx[j] == len(scripts)-1 {
					j--
				}
				if j < 0 {
					break
				}
				idx[j]++
				for k := j + 1; k < actors; k++ {
					idx[k] = idx[j]
				}
			}
		}
	}
	t.Logf("explored %d distinct states", explored)
}

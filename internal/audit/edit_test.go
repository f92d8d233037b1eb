package audit

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// TestGenerateEditCaseDeterministic: the edit generator must be
// reproducible from the seed alone, including the replayed base graph.
func TestGenerateEditCaseDeterministic(t *testing.T) {
	a, b := GenerateEditCase(42), GenerateEditCase(42)
	if a.String() != b.String() {
		t.Fatalf("case header differs:\n%v\n%v", a, b)
	}
	ga, gb := a.BaseGraph(), a.BaseGraph()
	if ga.Version() != gb.Version() {
		t.Fatalf("base replays diverge: versions %d vs %d", ga.Version(), gb.Version())
	}
}

// TestEditGeneratorCoversAxes: across a contiguous seed range, the
// generator must produce all three edit mixes, both base-trace kinds,
// all three op kinds, and at least one no-op edit — or the differential
// silently stops covering the semantics it exists to pin.
func TestEditGeneratorCoversAxes(t *testing.T) {
	mixes := map[string]bool{}
	bases := map[string]bool{}
	kinds := map[EditKind]bool{}
	noop := false
	for seed := int64(0); seed < 60; seed++ {
		c := GenerateEditCase(seed)
		mixes[c.Mix] = true
		bases[c.Base] = true
		g := c.BaseGraph()
		for _, op := range c.Ops {
			kinds[op.Kind] = true
			if changed, err := op.Apply(g); !changed && err == nil {
				noop = true
			}
		}
	}
	if len(mixes) != 3 {
		t.Fatalf("mix coverage %v, want all three", mixes)
	}
	if len(bases) != 2 {
		t.Fatalf("base coverage %v, want synthetic and haggle", bases)
	}
	if len(kinds) != 3 {
		t.Fatalf("op-kind coverage %v, want add, remove, retime", kinds)
	}
	if !noop {
		t.Fatal("no no-op edit in 60 seeds")
	}
}

// TestEditDifferential is the headline acceptance gate: ≥500 seeded
// edit-sequence cases across the three mixes, each checking after every
// edit that the incremental solve is byte-identical to a cold
// Build+solve on the edited trace, agrees on the error taxonomy, and
// executes identically under the reference executor. The contiguous
// seed range guarantees all three mixes (mix cycles with seed%3).
func TestEditDifferential(t *testing.T) {
	cases := 510
	if testing.Short() {
		cases = 60
	}
	const chunk = 30
	for lo := 0; lo < cases; lo += chunk {
		lo := lo
		n := chunk
		if cases-lo < n {
			n = cases - lo
		}
		t.Run(fmt.Sprintf("seeds-%d-%d", lo, lo+n-1), func(t *testing.T) {
			t.Parallel()
			rep := RunEditDifferential(n, int64(lo))
			if !rep.Ok() {
				t.Fatalf("edit differential failed:\n%s", rep)
			}
			if len(rep.ByMix) != 3 {
				t.Fatalf("mix coverage %v in a 30-seed chunk, want all three", rep.ByMix)
			}
		})
	}
}

// editChain is the 4-node chain 0-1-2-3 over staggered contact windows,
// small enough that edge-case edits have predictable effects.
func editChain() *tveg.Graph {
	g := tveg.New(4, interval.Interval{Start: 0, End: 200}, 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 50}, 8)
	g.AddContact(1, 2, interval.Interval{Start: 30, End: 80}, 6)
	// Second (1,2) contact, beyond the solve window: retime targets that
	// collide with it must be rejected.
	g.AddContact(1, 2, interval.Interval{Start: 125, End: 145}, 6)
	g.AddContact(2, 3, interval.Interval{Start: 60, End: 110}, 9)
	return g
}

// TestEditEdgeCases runs the hand-picked edge edits — no-op edits,
// edits entirely outside the solve window, and edits that disconnect
// the source — through the same incremental-vs-cold differential,
// including the error taxonomy.
func TestEditEdgeCases(t *testing.T) {
	const (
		t0       = 0.0
		deadline = 120.0
	)
	alg := core.EEDCB{Level: 1}
	for _, tc := range []struct {
		name string
		op   EditOp
		// wantChange: the edit bumps the version.
		wantChange bool
		// wantEditErr: the edit itself is rejected.
		wantEditErr bool
		// wantSameSchedule: the post-edit schedule equals the pre-edit one.
		wantSameSchedule bool
		// wantUncovered: nodes the post-edit solve must report unreachable.
		wantUncovered []tvg.NodeID
	}{
		{
			name:             "noop-remove-absent-pair",
			op:               EditOp{Kind: OpRemoveContact, I: 0, J: 3, Iv: interval.Interval{Start: 10, End: 50}},
			wantSameSchedule: true,
		},
		{
			name:             "noop-remove-disjoint-window",
			op:               EditOp{Kind: OpRemoveContact, I: 0, J: 1, Iv: interval.Interval{Start: 120, End: 150}},
			wantSameSchedule: true,
		},
		{
			name: "noop-identity-retime",
			op: EditOp{Kind: OpRetimeChannel, I: 1, J: 2,
				Iv: interval.Interval{Start: 30, End: 80}, To: interval.Interval{Start: 30, End: 80}},
			wantSameSchedule: true,
		},
		{
			name:             "add-outside-window",
			op:               EditOp{Kind: OpAddContact, I: 0, J: 3, Iv: interval.Interval{Start: 150, End: 180}, Dist: 5},
			wantChange:       true,
			wantSameSchedule: true,
		},
		{
			name: "retime-out-of-window",
			op: EditOp{Kind: OpRetimeChannel, I: 2, J: 3,
				Iv: interval.Interval{Start: 60, End: 110}, To: interval.Interval{Start: 130, End: 180}},
			wantChange:    true,
			wantUncovered: []tvg.NodeID{3},
		},
		{
			name:          "remove-disconnects-source",
			op:            EditOp{Kind: OpRemoveContact, I: 0, J: 1, Iv: interval.Interval{Start: 10, End: 50}},
			wantChange:    true,
			wantUncovered: []tvg.NodeID{1, 2, 3},
		},
		{
			name: "rejected-retime-overlap",
			op: EditOp{Kind: OpRetimeChannel, I: 1, J: 2,
				Iv: interval.Interval{Start: 30, End: 80}, To: interval.Interval{Start: 110, End: 130}},
			wantEditErr:      true,
			wantSameSchedule: true,
		},
		{
			name: "rejected-retime-missing-contact",
			op: EditOp{Kind: OpRetimeChannel, I: 0, J: 1,
				Iv: interval.Interval{Start: 11, End: 50}, To: interval.Interval{Start: 120, End: 160}},
			wantEditErr:      true,
			wantSameSchedule: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := editChain()
			sBefore, err := alg.Schedule(inc, 0, t0, deadline)
			if err != nil {
				t.Fatalf("pre-edit solve: %v", err)
			}
			vBefore := inc.Version()
			changed, editErr := tc.op.Apply(inc)
			if changed != tc.wantChange {
				t.Fatalf("edit changed=%v, want %v (err=%v)", changed, tc.wantChange, editErr)
			}
			if (editErr != nil) != tc.wantEditErr {
				t.Fatalf("edit error %v, want error=%v", editErr, tc.wantEditErr)
			}
			if !changed && inc.Version() != vBefore {
				t.Fatalf("no-op edit bumped the version %d -> %d", vBefore, inc.Version())
			}
			if changed && inc.Version() == vBefore {
				t.Fatal("effective edit left the version untouched")
			}

			// The cold side: a fresh graph in the edited state.
			cold := editChain()
			coldChanged, coldErr := tc.op.Apply(cold)
			if coldChanged != changed || !sameError(coldErr, editErr) {
				t.Fatalf("edit outcome diverges on replay: (%v, %v) vs (%v, %v)", changed, editErr, coldChanged, coldErr)
			}

			sInc, errInc := alg.Schedule(inc, 0, t0, deadline)
			sCold, errCold := alg.Schedule(cold, 0, t0, deadline)
			if !sameSolveError(errInc, errCold) {
				t.Fatalf("solve error taxonomy diverges: incremental %q, cold %q", errString(errInc), errString(errCold))
			}
			if !reflect.DeepEqual(sInc, sCold) {
				t.Fatalf("incremental schedule diverges from cold solve:\n inc:  %v\n cold: %v", sInc, sCold)
			}
			if tc.wantSameSchedule {
				if errInc != nil {
					t.Fatalf("solve after neutral edit failed: %v", errInc)
				}
				if !reflect.DeepEqual(sInc, sBefore) {
					t.Fatalf("neutral edit changed the schedule:\n before: %v\n after:  %v", sBefore, sInc)
				}
			}
			if tc.wantUncovered != nil {
				var ie *core.IncompleteError
				if !errors.As(errInc, &ie) {
					t.Fatalf("want IncompleteError covering %v, got %v", tc.wantUncovered, errInc)
				}
				if !reflect.DeepEqual(ie.Uncovered, tc.wantUncovered) {
					t.Fatalf("uncovered %v, want %v", ie.Uncovered, tc.wantUncovered)
				}
			}
		})
	}
}

// TestCompareEditCaseCatchesStaleness proves the differential has teeth:
// a deliberately corrupted incremental result — solving the pre-edit
// graph state as if it were the post-edit one — must produce diffs.
func TestCompareEditCaseCatchesStaleness(t *testing.T) {
	alg := core.EEDCB{Level: 1}
	g := editChain()
	sStale, err := alg.Schedule(g, 0, 0, 120)
	if err != nil {
		t.Fatalf("pre-edit solve: %v", err)
	}
	// Disconnect node 3; the stale schedule still claims to cover it.
	if !g.RemoveContact(2, 3, interval.Interval{Start: 60, End: 110}) {
		t.Fatal("test setup: removal must change the graph")
	}
	_, errFresh := alg.Schedule(g, 0, 0, 120)
	var ie *core.IncompleteError
	if !errors.As(errFresh, &ie) {
		t.Fatalf("test setup: post-edit solve should be incomplete, got %v", errFresh)
	}
	// The stale pre-edit schedule diverges from the honest post-edit one;
	// the harness's schedule comparison is exactly this DeepEqual.
	sFresh, _ := alg.Schedule(g, 0, 0, 120)
	if reflect.DeepEqual(sStale, sFresh) {
		t.Fatal("test setup: stale and fresh schedules coincide; pick a sharper edit")
	}
}

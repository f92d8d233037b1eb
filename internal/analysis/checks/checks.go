// Package checks holds the repo-specific analyzers run by
// cmd/tmedbvet. Each analyzer encodes one contract the solver
// established in PRs 1–4 and DESIGN.md sections 6–9:
//
//   - detrange: map iteration must not reach planner output unsorted
//     (determinism contract, DESIGN.md §6).
//   - nondeterm: no wall clocks, unseeded global RNG, or raw
//     goroutines in solver or executor packages (byte-identical
//     schedules and Monte Carlo results under any worker count;
//     parallel.ForEach is the sanctioned pattern).
//   - floateq: no exact float equality on times/energies, and no raw
//     tau-arrival comparisons outside the TimeTol-gated rule
//     (execution semantics, DESIGN.md §7).
//   - cancelthread: looping ScheduleCtx/MulticastCtx/Build entry
//     points must thread cancel checkpoints, and cancellation
//     sentinels must be matched with errors.Is (DESIGN.md §9).
//   - spanpair: every obs phase span that is started must be ended on
//     every path (observability contract, DESIGN.md §8).
//   - logconst: obs.Logger / log/slog messages must be constant
//     strings; variable data rides in key-value attrs (telemetry
//     contract, DESIGN.md §13).
//   - hotalloc: functions reachable from //tmedbvet:hotpath roots must
//     not allocate — arena, pooled scratch, or capacity-guarded
//     buffers only (hot-path allocation contract, DESIGN.md §15).
//   - atomiconly: a word accessed via sync/atomic anywhere must be
//     accessed atomically everywhere, and no-copy sync/atomic values
//     must never be copied (serving-tier contract, DESIGN.md §13).
//   - goexit: go statements in serving/parallel packages need a
//     visible completion path — Done/close/send/receive (DESIGN.md
//     §8/§13).
package checks

import (
	"strings"

	"repro/internal/analysis"
)

// Module-internal package paths the analyzers key their scopes and
// type lookups on.
const (
	modulePath    = "repro"
	cancelPkgPath = modulePath + "/internal/cancel"
	obsPkgPath    = modulePath + "/internal/obs"
)

// plannerPkgs are the packages whose outputs reach planned schedules:
// anything nondeterministic here breaks the byte-identical-schedules
// contract. detrange and the cancelthread entry-point rule are scoped
// to these.
var plannerPkgs = []string{
	modulePath + "/internal/core",
	modulePath + "/internal/dts",
	modulePath + "/internal/auxgraph",
	modulePath + "/internal/steiner",
	modulePath + "/internal/nlp",
	modulePath + "/internal/schedule",
	modulePath + "/internal/degrade",
}

// timePkgs additionally include the executors and the audit oracle —
// everything that implements the tau-propagation arrival rule and so
// must respect TimeTol. floateq and nondeterm are scoped to these.
var timePkgs = append([]string{
	modulePath + "/internal/sim",
	modulePath + "/internal/des",
	modulePath + "/internal/audit",
}, plannerPkgs...)

// underAny reports whether path is one of roots or nested below one.
func underAny(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// All returns every analyzer cmd/tmedbvet runs, in reporting-name
// order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicOnly,
		CancelThread,
		DetRange,
		FloatEq,
		GoExit,
		HotAlloc,
		LogConst,
		NonDeterm,
		SpanPair,
	}
}

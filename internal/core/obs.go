package core

import "bionav/internal/obs"

// Process-wide DP metrics on the default registry (docs/OBSERVABILITY.md
// catalogs them). The fold never touches an atomic per step — optimizer
// entry points count locally and publish deltas once per call — so the
// counters cost a handful of atomic adds per EXPAND, not per fold step.
var (
	dpFoldSteps = obs.Default.Counter("bionav_dp_fold_steps_total",
		"Opt-EdgeCut fold steps executed (cut/retain decisions).")
	dpMemoHits = obs.Default.Counter("bionav_dp_memo_hits_total",
		"Opt-EdgeCut memo lookups answered from a completed state.")
	dpMemoMisses = obs.Default.Counter("bionav_dp_memo_misses_total",
		"Opt-EdgeCut memo lookups that had to compute the state.")
	dpAborts = obs.Default.Counter("bionav_dp_aborts_total",
		"Opt-EdgeCut runs abandoned by context cancellation or deadline.")
	dpScratchGets = obs.Default.Counter("bionav_dp_scratch_gets_total",
		"Bitset scratch buffers borrowed from the shared pool.")
	dpReducedNodes = obs.Default.Histogram("bionav_dp_reduced_nodes",
		"Reduced-tree size |T_R| per Heuristic-ReducedOpt reduction (k histogram).")
)

// PolyCut anytime-driver metrics: how deep the deepening got, how often
// a round beat the incumbent, and the grade ladder every solve lands on.
var (
	anytimeRounds = obs.Default.Histogram("bionav_anytime_rounds",
		"Deepening rounds completed per PolyCut anytime solve.")
	anytimeImprovements = obs.Default.Counter("bionav_anytime_improvements_total",
		"PolyCut rounds whose candidate cut displaced the incumbent.")
	cutGrades = obs.Default.CounterVec("bionav_cut_grade_total",
		"PolyCut solves by final cut grade (full, anytime, static).", "grade")
)

// solveSeconds times one component's ChooseCut in SolveComponents, on
// whichever goroutine runs it.
var solveSeconds = obs.Default.Histogram("bionav_solve_component_seconds",
	"Wall time of one component's EdgeCut solve (k-partition + DP).")

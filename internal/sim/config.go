// Package sim is the cycle-level execution simulator of Chapter 7: it runs
// resolved methods through a configured DataFlow Fabric under the token-
// bundle execution model of Section 6.3, with two clock domains (N serial
// clocks per mesh clock), the Table 17 execution latencies, the Figure 25
// transit/service times, and the BP1/BP2 branch-prediction methodology,
// measuring IPC, Figure of Merit, coverage and parallelism.
//
// The load-bearing invariant is byte-identity with the rules as stated:
// the engine (Engine.Run, an event-driven loop) must produce the Results
// and encoded MethodRun bytes of a clock-by-clock, hop-by-hop transcription
// of Section 6.3 — the test-side oracle refEngine in reference_test.go,
// which shares no code with Engine — for every method, configuration,
// branch policy, folding setting and quiesce schedule. Any change that can
// alter a Result must bump EngineVersion so persisted store records become
// misses instead of silently replaying stale semantics; a pure performance
// change that passes the differential suite must not.
//
// The engine does not simulate what cannot change the answer.
// Runner.RunResolved runs a method once when no node ever asks the branch
// predictor a forward question (BP2's Result is BP1's), and the serial
// network delivers a token at the next node where it can act — REGISTER r
// at nodes accessing local r, MEMORY at ordered-storage nodes, HEAD at
// nodes it alone keeps from firing, TAIL at nodes that had not fired when
// it left or where it would wait behind a lagging token, everything at
// control/return nodes and the last node — at the clock hop-by-hop
// transport would have reached it. Same-clock processing order, the
// rearmost-TAIL watermark, the event count and the nodes HEAD and TAIL
// pass virtually are kept exact by the five rules in engine_event.go's
// header. The counters
// reflect the split: EngineStats.Events is what the machine simulated (the
// oracle counts the same number), Delivered what the loop had to
// dequeue for it, EngineTotals.PolicyRunsShared the runs not needed.
package sim

import (
	"javaflow/internal/bytecode"
	"javaflow/internal/fabric"
)

// DrainSerial marks the Baseline clocking rule: "allow all serial clocks to
// proceed until there are no more serial messages queued for any nodes."
const DrainSerial = 0

// Config is one machine configuration under measurement (Table 15).
type Config struct {
	Name string
	// Fabric geometry (node pattern, width, collapsed flag).
	Fabric *fabric.Fabric
	// SerialPerMesh is the maximum serial clocks run between mesh clocks
	// (DrainSerial = unbounded, the Baseline rule).
	SerialPerMesh int
	Description   string
}

// Configurations returns the six studied configurations of Table 15.
func Configurations() []Config {
	baseline := fabric.NewFabric(10, fabric.PatternCompact)
	baseline.Collapsed = true
	return []Config{
		{
			Name: "Baseline", Fabric: baseline, SerialPerMesh: DrainSerial,
			Description: "Collapsed DataFlow machine where dataflow distance is 1 and all serial traffic is moved before next mesh clock",
		},
		{
			Name: "Compact10", Fabric: fabric.NewFabric(10, fabric.PatternCompact), SerialPerMesh: 10,
			Description: "DataFlow mesh 10 units wide, up to 10 serial clocks between each mesh clock",
		},
		{
			Name: "Compact4", Fabric: fabric.NewFabric(10, fabric.PatternCompact), SerialPerMesh: 4,
			Description: "DataFlow mesh 10 units wide; up to 4 serial clocks between each mesh clock",
		},
		{
			Name: "Compact2", Fabric: fabric.NewFabric(10, fabric.PatternCompact), SerialPerMesh: 2,
			Description: "DataFlow mesh 10 units wide; up to 2 serial clocks between each mesh clock",
		},
		{
			Name: "Sparse2", Fabric: fabric.NewFabric(10, fabric.PatternSparse), SerialPerMesh: 2,
			Description: "Compact2 with each Instruction Node separated by a blank node",
		},
		{
			Name: "Hetero2", Fabric: fabric.NewFabric(10, fabric.PatternHetero), SerialPerMesh: 2,
			Description: "Compact2 with mesh nodes configured on the static instruction mix (6 arithmetic, 1 floating point, 2 storage, 1 control) and automatically assigned",
		},
	}
}

// Execution latencies in mesh cycles (Table 17).
const (
	CyclesMove    = 1
	CyclesFloat   = 10
	CyclesConvert = 5
	CyclesDefault = 2 // "Special, Logical, Register, Memory"
	// MemoryServiceCycles is the load/store round trip over the storage
	// ring (Figure 25's service time; reads stall, writes post).
	MemoryServiceCycles = 10
	// GPPServiceCycles covers calls, returns-to-GPP and Service
	// instructions delegated to the General Purpose Processor.
	GPPServiceCycles = 20
)

// ExecCycles maps an instruction group to its Table 17 execution latency.
func ExecCycles(g bytecode.Group) int {
	switch g {
	case bytecode.GroupMove:
		return CyclesMove
	case bytecode.GroupFloatArith:
		return CyclesFloat
	case bytecode.GroupFloatConv:
		return CyclesConvert
	default:
		return CyclesDefault
	}
}

// BranchPolicy selects the pre-established branch behaviour of the
// measurement methodology ("BP1 started with the first forward jump taken
// while BP2 started with the first jump not taken. In all cases back jumps
// had a taken percentage of 90%").
type BranchPolicy uint8

const (
	BP1 BranchPolicy = iota
	BP2
)

func (b BranchPolicy) String() string {
	if b == BP1 {
		return "BP-1"
	}
	return "BP-2"
}

// Predictor replays the deterministic branch pattern for one method
// execution.
type Predictor struct {
	policy BranchPolicy
	fwd    map[int]bool // per-site next forward decision
	back   map[int]int  // per-site back-jump counter
}

// NewPredictor returns a fresh pattern generator.
func NewPredictor(p BranchPolicy) *Predictor {
	return &Predictor{policy: p, fwd: make(map[int]bool), back: make(map[int]int)}
}

// Forward returns the next taken/not-taken decision for a forward jump at
// site: a per-site 50% alternation seeded by the policy.
func (p *Predictor) Forward(site int) bool {
	taken, seen := p.fwd[site]
	if !seen {
		taken = p.policy == BP1
	}
	p.fwd[site] = !taken
	return taken
}

// Backward returns the decision for a back jump at site: taken 9 times out
// of 10.
func (p *Predictor) Backward(site int) bool {
	c := p.back[site]
	p.back[site] = c + 1
	return c%10 != 9
}

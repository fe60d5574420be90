// Package fabric implements the JavaFlow DataFlow Fabric: the tiled grid of
// Instruction Nodes connected by the ordered Serial Networks (method
// loading, address resolution, token bundles) and the X-Y routed Mesh
// Network (producer/consumer operand transfers), plus the interfaces to the
// Memory subsystem and the General Purpose Processor (Chapter 4 and
// Chapter 6 of the dissertation).
//
// The load-bearing invariant is that greedy loading is deterministic:
// the same method on the same geometry produces the same Placement and
// Resolution everywhere, and a method the fabric cannot host fails with
// a typed LoadError that is itself a stable, cacheable result — dispatch
// treats it as an answer (every node agrees), never as a reason to retry.
package fabric

import (
	"fmt"
	"sync/atomic"

	"javaflow/internal/bytecode"
)

// NodeKind is the hardware flavour of an Instruction Node in a
// heterogeneous fabric (Section 4.2: "for each 10 Instruction Nodes, 6
// could be general purpose logic/arithmetic, 1 floating point, 2 storage,
// 1 control").
type NodeKind uint8

const (
	// KindUniversal accepts every instruction (homogeneous fabrics).
	KindUniversal NodeKind = iota
	// KindArith hosts integer/logical arithmetic, moves, and register ops.
	KindArith
	// KindFloat hosts floating-point arithmetic and conversions.
	KindFloat
	// KindStorage hosts memory instructions and owns a ring interface to
	// the Storage subsystem.
	KindStorage
	// KindControl hosts jumps, calls, returns and GPP-serviced specials.
	KindControl
	// KindBlank is an empty site (the Sparse2 configuration separates
	// every Instruction Node with one of these).
	KindBlank
)

func (k NodeKind) String() string {
	switch k {
	case KindUniversal:
		return "universal"
	case KindArith:
		return "arith"
	case KindFloat:
		return "float"
	case KindStorage:
		return "storage"
	case KindControl:
		return "control"
	case KindBlank:
		return "blank"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Accepts reports whether a node of this kind can host an instruction of
// the given group.
func (k NodeKind) Accepts(g bytecode.Group) bool {
	switch k {
	case KindUniversal:
		return true
	case KindBlank:
		return false
	case KindArith:
		switch g {
		case bytecode.GroupMove, bytecode.GroupIntArith,
			bytecode.GroupLocalRead, bytecode.GroupLocalWrite, bytecode.GroupLocalInc:
			return true
		}
	case KindFloat:
		switch g {
		case bytecode.GroupFloatArith, bytecode.GroupFloatConv:
			return true
		}
	case KindStorage:
		switch g {
		case bytecode.GroupMemConst, bytecode.GroupMemRead, bytecode.GroupMemWrite:
			return true
		}
	case KindControl:
		switch g {
		case bytecode.GroupControl, bytecode.GroupCall,
			bytecode.GroupReturn, bytecode.GroupSpecial:
			return true
		}
	}
	return false
}

// KindFor returns the heterogeneous node kind that hosts a group.
func KindFor(g bytecode.Group) NodeKind {
	switch g {
	case bytecode.GroupMove, bytecode.GroupIntArith,
		bytecode.GroupLocalRead, bytecode.GroupLocalWrite, bytecode.GroupLocalInc:
		return KindArith
	case bytecode.GroupFloatArith, bytecode.GroupFloatConv:
		return KindFloat
	case bytecode.GroupMemConst, bytecode.GroupMemRead, bytecode.GroupMemWrite:
		return KindStorage
	default:
		return KindControl
	}
}

// Patterns for the studied configurations (Table 15, Figure 26).
var (
	// PatternCompact is the homogeneous fabric: every node hosts anything.
	PatternCompact = []NodeKind{KindUniversal}
	// PatternSparse interleaves blank sites between Instruction Nodes.
	PatternSparse = []NodeKind{KindUniversal, KindBlank}
	// PatternHetero is the Figure 26 static-mix row: 6 arithmetic, 1
	// floating point, 2 storage, 1 control per 10 nodes, spread so that
	// scarce kinds sit mid-row.
	PatternHetero = []NodeKind{
		KindArith, KindArith, KindStorage, KindArith, KindFloat,
		KindArith, KindControl, KindArith, KindStorage, KindArith,
	}
)

// Fabric describes one DataFlow Fabric geometry: a Width-wide grid whose
// nodes follow a repeating kind pattern along the serial (row-major) order.
type Fabric struct {
	// Width is the mesh width in nodes (the paper's studied segment is 10
	// wide).
	Width int
	// Pattern repeats along the serial order to type each node.
	Pattern []NodeKind
	// Collapsed marks the Baseline machine: every mesh transfer is a
	// single hop and serial distances vanish (Section 7.3, "Baseline
	// configuration").
	Collapsed bool

	geometry atomic.Pointer[string] // GeometryKey, rendered on first use
}

// NewFabric builds a fabric description.
func NewFabric(width int, pattern []NodeKind) *Fabric {
	if width <= 0 {
		width = 10
	}
	if len(pattern) == 0 {
		pattern = PatternCompact
	}
	return &Fabric{Width: width, Pattern: pattern}
}

// Kind returns the node kind at serial position n.
func (f *Fabric) Kind(n int) NodeKind {
	return f.Pattern[n%len(f.Pattern)]
}

// Position maps a serial node index to mesh (x, y) coordinates. The serial
// network snakes row-major through the grid.
func (f *Fabric) Position(n int) (x, y int) {
	return n % f.Width, n / f.Width
}

// MeshDistance is the X-Y routed hop count between two node positions
// (one mesh cycle per hop, Figure 25). The Baseline machine collapses all
// transfers to a single hop.
func (f *Fabric) MeshDistance(a, b int) int {
	if f.Collapsed || a == b {
		return 1
	}
	ax, ay := f.Position(a)
	bx, by := f.Position(b)
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	if dx+dy == 0 {
		return 1
	}
	return dx + dy
}

// SerialDistance is the number of serial hops between two node positions
// along the ordered network (one serial clock per hop).
func (f *Fabric) SerialDistance(a, b int) int {
	if f.Collapsed {
		return 1
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 1
	}
	return d
}
